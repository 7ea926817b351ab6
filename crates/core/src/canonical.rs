//! The canonical DRIP `D_G` (paper Section 3.3.1) as an executable node.
//!
//! Per phase `j ≤ T`, a node transmits `'1'` exactly once — in the
//! `(σ+1)`-th round of its transmission block — and listens in every other
//! round. Its block for phase 1 is 1 (all nodes); for each later phase it
//! re-derives the block by matching what it observed in the previous phase
//! against the hard-coded `L_j` entries. In the first round after phase `T`
//! every node terminates.
//!
//! ## Streaming match
//!
//! A node never re-reads its history's content: the engine feeds every
//! non-silent observation to it as it lands ([`DripNode::observe`]), and
//! the node folds it into a [`MatchCursor`] over the phase's compiled
//! trie. At a phase boundary the cursor resolves the next block exactly as
//! [`CanonicalSchedule::match_entries`](crate::schedule::CanonicalSchedule::match_entries)
//! would over the stored history (Lemma 3.8); at termination it resolves
//! against the would-be list `L_{T+1}` and compares with the leader class —
//! the decision function `f_G` collapsed into the node, reported through
//! [`DripNode::leader_claim`]. Only history *lengths* are read, which is
//! what lets resident runs store no observation content at all.
//!
//! ## Off-schedule histories
//!
//! On its own configuration the matching is guaranteed to succeed uniquely
//! (Lemma 3.8). When the dedicated algorithm is (ab)used on a *different*
//! configuration — e.g. in the universal-algorithm counterexample — a
//! node's history may match zero or two entries. Such a node downgrades to
//! a silent observer: it listens for the rest of the schedule, terminates
//! on time and never claims leadership. This keeps the DRIP total (every
//! node terminates) without inventing behaviour the paper doesn't define.

use radio_sim::{Action, DripFactory, DripNode, HistoryView, Msg, Obs};

use crate::schedule::{MatchCursor, MatchResult, SharedSchedule};
use radio_classifier::{Multi, Triple};

/// Factory installing the canonical DRIP of one configuration at every
/// node.
pub struct CanonicalFactory {
    schedule: SharedSchedule,
}

impl CanonicalFactory {
    /// Wraps a compiled schedule.
    pub fn new(schedule: SharedSchedule) -> CanonicalFactory {
        CanonicalFactory { schedule }
    }
}

impl DripFactory for CanonicalFactory {
    fn spawn(&self) -> Box<dyn DripNode> {
        Box::new(CanonicalNode {
            cursor: self.schedule.matcher_after_phase(1).start(1),
            schedule: self.schedule.clone(),
            phase: 1,
            transmit_at: self.schedule.transmit_round(1, 1),
            off_schedule: false,
            is_leader: None,
        })
    }

    fn name(&self) -> String {
        format!(
            "canonical(σ={}, T={})",
            self.schedule.sigma,
            self.schedule.phases()
        )
    }
}

struct CanonicalNode {
    schedule: SharedSchedule,
    /// Current phase `j` (1-based).
    phase: usize,
    /// Local round of this phase's transmission.
    transmit_at: u64,
    /// Set when matching failed (foreign configuration): listen-only mode.
    off_schedule: bool,
    /// Trie position within `matcher_after_phase(phase)`, fed by `observe`.
    cursor: MatchCursor,
    /// The leader verdict, resolved once at termination.
    is_leader: Option<bool>,
}

impl DripNode for CanonicalNode {
    fn decide(&mut self, history: HistoryView<'_>) -> Action {
        let i = history.len() as u64; // local round to act in
        let s = &self.schedule;

        if i > s.phase_end(s.phases()) {
            // r_T + 1: all nodes terminate (L_{T+1} = terminate). This is
            // also where the decision function collapses into the node:
            // resolve phase T's cursor against the final would-be list and
            // compare with the leader class.
            if self.is_leader.is_none() {
                let claim = !self.off_schedule
                    && match self.cursor.resolve(s.matcher_after_phase(self.phase)) {
                        MatchResult::Unique(k) => s.lists.leader_class == Some(k),
                        MatchResult::NoMatch | MatchResult::Ambiguous { .. } => false,
                    };
                self.is_leader = Some(claim);
            }
            return Action::Terminate;
        }

        if i > s.phase_end(self.phase) {
            // First round of the next phase: derive the new block from
            // what was observed in the phase that just ended.
            let next = self.phase + 1;
            debug_assert!(next <= s.phases());
            if !self.off_schedule {
                match self.cursor.resolve(s.matcher_after_phase(self.phase)) {
                    MatchResult::Unique(k) => {
                        self.transmit_at = s.transmit_round(next, k);
                        self.cursor = s.matcher_after_phase(next).start(k);
                    }
                    MatchResult::NoMatch | MatchResult::Ambiguous { .. } => {
                        self.off_schedule = true;
                    }
                }
            }
            self.phase = next;
        }

        if !self.off_schedule && i == self.transmit_at {
            Action::Transmit(Msg::ONE)
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, t: u64, obs: Obs) {
        if self.off_schedule || self.is_leader.is_some() {
            return;
        }
        // Project the observation onto phase geometry exactly as
        // `CanonicalSchedule::observed_triples` does: only non-silent
        // rounds inside the current phase's block region become triples
        // (the engine already filters silence; `t` outside the region —
        // the wake round 0 or the trailing σ listening rounds — is
        // ignored).
        let s = &self.schedule;
        let start = s.phase_end(self.phase - 1);
        if t <= start {
            return;
        }
        let off = t - start;
        let width = 2 * s.sigma + 1;
        if off > s.blocks(self.phase) * width {
            return;
        }
        let c = match obs {
            Obs::Silence => return,
            Obs::Heard(_) => Multi::One,
            Obs::Collision | Obs::Noise => Multi::Star,
        };
        let a = ((off - 1) / width + 1) as u32;
        let b = (off - 1) % width + 1;
        self.cursor
            .advance(s.matcher_after_phase(self.phase), Triple::new(a, b, c));
    }

    fn leader_claim(&self) -> Option<bool> {
        self.is_leader
    }

    fn quiet_until(&self, history: HistoryView<'_>) -> Option<u64> {
        let i = history.len() as u64;
        if self.off_schedule {
            // A silent observer listens until the scheduled termination
            // round (its decide short-circuits to Terminate there, before
            // any phase bookkeeping).
            let done = self.schedule.done_local();
            return (done > i).then_some(done);
        }
        // On schedule, the compiled timetable answers exactly.
        self.schedule.quiet_horizon(i, self.phase, self.transmit_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::CanonicalSchedule;
    use radio_graph::{families, generators, Configuration};
    use radio_sim::{ModelKind, RunOpts};
    use std::sync::Arc;

    fn run_canonical(config: &Configuration) -> radio_sim::Execution {
        let (_, schedule) = CanonicalSchedule::build(config);
        let factory = CanonicalFactory::new(Arc::new(schedule));
        ModelKind::default()
            .run(config, &factory, RunOpts::default().traced())
            .unwrap()
    }

    #[test]
    fn all_nodes_terminate_simultaneously_in_local_time() {
        let c = families::h_m(2);
        let (_, schedule) = CanonicalSchedule::build(&c);
        let done = schedule.done_local();
        let ex = run_canonical(&c);
        for v in 0..4u32 {
            assert_eq!(ex.done_local(v), done, "node {v}");
        }
    }

    #[test]
    fn canonical_is_patient_lemma_3_6() {
        // No transmission in global rounds 0..=σ; every wake-up is
        // spontaneous at the node's tag.
        for c in [families::h_m(3), families::g_m(2), families::s_m(2)] {
            let sigma = c.span();
            let ex = run_canonical(&c);
            let trace = ex.trace.as_ref().unwrap();
            for e in &trace.events {
                if !e.transmitters.is_empty() {
                    assert!(
                        e.round > sigma,
                        "{c}: transmission at round {} ≤ σ",
                        e.round
                    );
                }
            }
            for v in 0..c.size() as u32 {
                assert!(ex.woke_spontaneously(v), "{c}: node {v}");
                assert_eq!(ex.wake_round[v as usize], c.tag(v));
            }
        }
    }

    #[test]
    fn every_node_transmits_once_per_phase() {
        let c = families::g_m(2);
        let (out, schedule) = CanonicalSchedule::build(&c);
        let ex = run_canonical(&c);
        let total_tx: u64 = ex.stats.transmissions;
        // every node transmits exactly once per phase
        assert_eq!(total_tx, (c.size() * out.iterations) as u64);
        let _ = schedule;
    }

    #[test]
    fn transmit_blocks_match_classifier_classes() {
        // Lemma 3.8(2): node v transmits in block k of phase j iff its
        // class at the start of phase j is k.
        let c = families::g_m(3);
        let (out, schedule) = CanonicalSchedule::build(&c);
        let ex = run_canonical(&c);
        let trace = ex.trace.as_ref().unwrap();
        let width = 2 * schedule.sigma + 1;

        // expected: class of v at phase j = v_CLASS,j = partition after
        // iteration j-1 (phase 1: class 1 for all).
        for j in 1..=schedule.phases() {
            let class_of = |v: u32| -> u32 {
                if j == 1 {
                    1
                } else {
                    out.records[j - 2].partition.class_of(v)
                }
            };
            for v in 0..c.size() as u32 {
                let k = class_of(v);
                let local = schedule.phase_end(j - 1) + (k as u64 - 1) * width + schedule.sigma + 1;
                let global = c.tag(v) + local; // spontaneous wake at tag
                let ev = trace
                    .round(global)
                    .unwrap_or_else(|| panic!("phase {j} node {v}: no event at round {global}"));
                assert!(
                    ev.transmitters.iter().any(|&(u, _)| u == v),
                    "phase {j}: node {v} must transmit in block {k} (global round {global})"
                );
            }
        }
    }

    #[test]
    fn histories_partition_matches_final_classes() {
        // Lemma 3.9 at the final iteration: equal final histories ⟺ equal
        // final classes.
        for c in [families::h_m(1), families::s_m(2), families::g_m(2)] {
            let (out, _) = CanonicalSchedule::build(&c);
            let ex = run_canonical(&c);
            let p = out.final_partition();
            for v in 0..c.size() as u32 {
                for w in 0..c.size() as u32 {
                    let same_class = p.class_of(v) == p.class_of(w);
                    let same_hist = ex.history(v) == ex.history(w);
                    assert_eq!(same_class, same_hist, "{c}: nodes {v},{w}");
                }
            }
        }
    }

    #[test]
    fn off_schedule_node_goes_silent_but_terminates() {
        // Run H_2's dedicated DRIP on S_2 (same span σ... S_2 has σ=2 but
        // H_2 has σ=3 — geometry differs, matching will fail for some
        // nodes). All nodes must still terminate on schedule.
        let h2 = families::h_m(2);
        let (_, schedule) = CanonicalSchedule::build(&h2);
        let done = schedule.done_local();
        let factory = CanonicalFactory::new(Arc::new(schedule));
        let s2 = families::s_m(2);
        let ex = ModelKind::default()
            .run(&s2, &factory, RunOpts::default())
            .unwrap();
        for v in 0..4u32 {
            assert_eq!(ex.done_local(v), done);
        }
    }

    #[test]
    fn leap_engine_runs_high_span_schedules_in_few_steps() {
        // H_m with m = 2^12: σ = 4097, schedule ≈ 3·(2σ+1)+… rounds of
        // which only a handful are eventful. The leap engine must step a
        // tiny fraction and still match the step engine bit for bit.
        let c = families::h_m(1 << 12);
        let (_, schedule) = CanonicalSchedule::build(&c);
        let factory = CanonicalFactory::new(Arc::new(schedule));
        let leap = ModelKind::default()
            .run(&c, &factory, RunOpts::default())
            .unwrap();
        let step = ModelKind::default()
            .run(&c, &factory, RunOpts::default().no_leap())
            .unwrap();
        assert_eq!(leap.histories, step.histories);
        assert_eq!(leap.done_round, step.done_round);
        assert_eq!(leap.wake_round, step.wake_round);
        assert_eq!(leap.stats, step.stats);
        assert_eq!(leap.rounds, step.rounds);
        assert!(leap.rounds > 8_000, "σ-scale schedule");
        assert!(
            leap.rounds_stepped * 100 < leap.rounds,
            "stepped {} of {} rounds — the schedule is silence-dominated",
            leap.rounds_stepped,
            leap.rounds
        );
    }

    #[test]
    fn resident_claims_match_the_decision_function_on_stored_histories() {
        // The nodes' own verdicts after a length-only resident run must
        // equal `f_G` replayed over the histories a materialized run
        // stores, with the same run shape — under every channel model,
        // with and without leaps, on feasible, infeasible, random and
        // foreign configurations (H_2's schedule run on S_2, where nodes
        // fall off schedule and must go silent, never claim).
        use crate::decision::LeaderDecision;
        use radio_graph::NodeId;
        use radio_sim::SimWorkspace;
        let mut rng = radio_util::rng::rng_from(29);
        let mut cases: Vec<(Configuration, Configuration)> = [
            families::h_m(1),
            families::h_m(3),
            families::g_m(3),
            families::s_m(2),
        ]
        .into_iter()
        .map(|c| (c.clone(), c))
        .collect();
        for _ in 0..6 {
            let g = generators::gnp_connected(9, 0.35, &mut rng);
            let c = radio_graph::tags::random_in_span(g, 5, &mut rng);
            cases.push((c.clone(), c));
        }
        cases.push((families::h_m(2), families::s_m(2)));
        let mut sim = SimWorkspace::new();
        let mut elected = 0;
        for (compiled_for, config) in &cases {
            let (_, schedule) = CanonicalSchedule::build(compiled_for);
            let shared = Arc::new(schedule);
            let factory = CanonicalFactory::new(shared.clone());
            let decision = LeaderDecision::new(shared);
            let nodes = 0..config.size() as NodeId;
            for model in ModelKind::ALL {
                for opts in [RunOpts::default(), RunOpts::default().no_leap()] {
                    let what = format!("{compiled_for} on {config} [{model}] {opts:?}");
                    let ex = sim.run_kind(model, config, &factory, opts).unwrap();
                    let want: Vec<NodeId> = nodes
                        .clone()
                        .filter(|&v| decision.is_leader(ex.history(v)))
                        .collect();
                    let run = sim
                        .run_kind_resident(model, config, &factory, opts)
                        .unwrap();
                    let claims: Vec<Option<bool>> =
                        nodes.clone().map(|v| sim.leader_claim(v)).collect();
                    assert!(claims.iter().all(Option::is_some), "{what}: {claims:?}");
                    let got: Vec<NodeId> = nodes
                        .clone()
                        .filter(|&v| claims[v as usize] == Some(true))
                        .collect();
                    assert_eq!(got, want, "{what}");
                    assert_eq!(run.stats, ex.stats, "{what}");
                    assert_eq!(run.rounds, ex.rounds, "{what}");
                    assert_eq!(run.rounds_stepped, ex.rounds_stepped, "{what}");
                    assert_eq!(run.rounds_leapt, ex.rounds_leapt, "{what}");
                    let completion = ex.done_round.iter().copied().max().unwrap_or(0);
                    assert_eq!(run.completion_round, completion, "{what}");
                    elected += usize::from(want.len() == 1);
                }
            }
        }
        assert!(elected > 0, "the table must contain successful elections");
    }

    #[test]
    fn factory_name_is_descriptive() {
        let c = generators::path(1);
        let c = Configuration::new(c, vec![0]).unwrap();
        let (_, schedule) = CanonicalSchedule::build(&c);
        let f = CanonicalFactory::new(Arc::new(schedule));
        assert_eq!(f.name(), "canonical(σ=0, T=1)");
    }
}
