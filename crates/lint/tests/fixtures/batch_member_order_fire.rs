//! FIXTURE (never compiled): the batch-path failure modes the
//! determinism contract forbids. Linted under the logical path
//! `crates/core/src/campaign.rs` — the campaign's batches are
//! result-affecting code, so member bookkeeping must never ride on
//! hash-map iteration order (batch results are positional) and worker
//! identity must never pick which member runs next.

use std::collections::HashMap;

fn sweep_members(members: &HashMap<usize, u64>) -> Vec<u64> {
    // hash-order sweep: member retirement order would vary run to run
    let mut horizons = Vec::new();
    for (_, &quiet_horizon) in members.iter() {
        horizons.push(quiet_horizon);
    }
    horizons
}

fn pick_next_member(runnable: &[usize]) -> usize {
    // worker identity steering the member order
    let tid = std::thread::current().id();
    let salt = format!("{tid:?}").len();
    runnable[salt % runnable.len()]
}
