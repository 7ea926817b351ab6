#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `anon-radio` CLI and the
`perfbench` binary from source (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the named workload, and
prints its JSON result as the last line of standard output. Build output
and progress go to standard error. Exits non-zero without a result when
the build, the run or the result's shape fails.

Deterministic counters persist under
$CARGO_TARGET_DIR/perfbench-state/<code key>/, where the key hashes the
sources the measured program is built from. So later runs compare only
with earlier runs of the same code.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds; this bounds set-up, checks and overrun.
RUN_TIMEOUT_S = 170
# The sources the measured program and the benchmark are built from,
# relative to the repository root.
CODE = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor",
        "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src"]


def build(target_dir):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "anon-radio", "--bin", "anon-radio"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def code_key():
    """A short hash of the paths and contents of every file under CODE."""
    files = []
    for entry in CODE:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(entry)
        for top, dirs, names in os.walk(path):
            dirs.sort()
            files.extend(os.path.relpath(os.path.join(top, n), ROOT) for n in sorted(names))
    digest = hashlib.sha256()
    for rel in files:
        with open(os.path.join(ROOT, rel), "rb") as f:
            content = f.read()
        digest.update(f"{rel}\0{len(content)}\0".encode())
        digest.update(content)
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value == "1"
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *argv,
           "--cli", os.path.join(release, "anon-radio"),
           "--state-dir", os.path.join(target_dir, "perfbench-state", code_key())]
    run = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)

    def stop(*_):
        run.kill()
        run.wait()
        sys.exit("perfbench: run stopped")

    signal.signal(signal.SIGTERM, stop)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
    lines = stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed (exit {run.returncode})")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(trace):
        sys.exit("perfbench: the result's metrics differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
