//! The dedicated leader-election algorithm `(D_G, f_G)` for a
//! configuration (Theorem 3.15), compiled once and run against the
//! configuration it was compiled for.

use std::sync::Arc;

use radio_graph::{Configuration, NodeId};
use radio_sim::{ModelKind, ResidentRun, RunOpts, SimError, SimWorkspace};

use crate::api::{ElectError, ElectionReport, Infeasible};
use crate::canonical::CanonicalFactory;
use crate::decision::LeaderDecision;
use crate::schedule::{CanonicalSchedule, SharedSchedule};
use radio_classifier::{ClassifierWorkspace, ClassifySummary};

/// The configuration-free product of classify + compile: the classifier's
/// lean summary plus the compiled schedule behind its shared [`Arc`].
///
/// Compile with [`CompiledElection::compile_in`] (or
/// [`ScheduleCache::compile_in`](crate::ScheduleCache::compile_in) when
/// cached) and run with [`CompiledElection::run_in`] — the one way every
/// surface (API, CLI, campaign, serve) elects a leader. Cloning a
/// `CompiledElection` copies a `Copy` summary and bumps one `Arc` count,
/// never the canonical lists, and running it borrows the configuration
/// instead of storing a copy.
///
/// A `CompiledElection` exists for infeasible configurations too (the
/// canonical DRIP is well-defined there; only the leader is absent) —
/// check [`CompiledElection::feasible`] before asking for the leader.
#[derive(Debug, Clone)]
pub struct CompiledElection {
    summary: ClassifySummary,
    schedule: SharedSchedule,
}

impl CompiledElection {
    /// Classifies `config` through a caller-provided workspace and
    /// compiles its schedule — the canonical lists stream out of the run
    /// (see [`CanonicalSchedule::build_in`]); nothing is cloned.
    pub fn compile_in(
        workspace: &mut ClassifierWorkspace,
        config: &Configuration,
    ) -> CompiledElection {
        let (summary, schedule) = CanonicalSchedule::build_in(workspace, config);
        CompiledElection {
            summary,
            schedule: Arc::new(schedule),
        }
    }

    /// Rewraps an already-compiled pair (the cache's storage form).
    pub fn from_parts(summary: ClassifySummary, schedule: SharedSchedule) -> CompiledElection {
        CompiledElection { summary, schedule }
    }

    /// The classifier summary (feasibility, iterations, class count,
    /// leader class).
    pub fn summary(&self) -> ClassifySummary {
        self.summary
    }

    /// Whether the configuration admits leader election.
    pub fn feasible(&self) -> bool {
        self.summary.feasible
    }

    /// The compiled schedule (σ, lists, phase geometry).
    pub fn schedule(&self) -> &CanonicalSchedule {
        &self.schedule
    }

    /// The schedule's shared handle (one `Arc` bump, no list copy).
    pub fn shared_schedule(&self) -> SharedSchedule {
        self.schedule.clone()
    }

    /// The DRIP factory (`D_G`) — install at every node.
    pub fn factory(&self) -> CanonicalFactory {
        CanonicalFactory::new(self.schedule.clone())
    }

    /// The decision function (`f_G`).
    pub fn decision(&self) -> LeaderDecision {
        LeaderDecision::new(self.schedule.clone())
    }

    /// The leader `Classifier` predicts: the representative of the
    /// singleton leader class.
    ///
    /// # Panics
    /// Panics when the configuration is infeasible (no leader class).
    pub fn predicted_leader(&self) -> NodeId {
        self.summary.leader.expect("feasible ⇒ leader class rep")
    }

    /// The number of local rounds until every node terminates
    /// (`r_T + 1` — the `O(n²σ)` bound of Lemma 3.10 applies).
    pub fn rounds_bound(&self) -> u64 {
        self.schedule.done_local()
    }

    /// Simulates `(D_G, f_G)` on `config` — which must be the
    /// configuration this algorithm was compiled for — through a
    /// caller-provided [`SimWorkspace`], and returns a validated report.
    ///
    /// An infeasible compilation fails with [`ElectError::Simulation`]
    /// naming the [`Infeasible`] verdict, before anything is simulated.
    ///
    /// The canonical DRIP's correctness proof (Theorem 3.15) only covers
    /// the paper's model — the default [`ModelKind::NoCollisionDetection`].
    /// Under a foreign channel the run is still deterministic and total,
    /// but the exactly-one-leader contract may fail, surfacing as
    /// [`ElectError::Contract`] or [`ElectError::PredictionMismatch`].
    ///
    /// By default the engine time-leaps the schedule's silent stretches,
    /// so high-σ elections run in time proportional to their *events*;
    /// pass `opts.no_leap()` to force round-by-round execution.
    pub fn run_in(
        &self,
        workspace: &mut SimWorkspace,
        config: &Configuration,
        model: ModelKind,
        opts: RunOpts,
    ) -> Result<ElectionReport, ElectError> {
        if !self.feasible() {
            let infeasible = Infeasible {
                iterations: self.summary.iterations,
            };
            return Err(ElectError::Simulation(infeasible.to_string()));
        }
        let (run, leaders) = self
            .elect_resident(workspace, config, model, opts)
            .map_err(|e| match e {
                SimError::RoundLimit {
                    max_rounds,
                    still_running,
                } => ElectError::RoundLimit {
                    max_rounds,
                    still_running,
                },
            })?;
        let [leader] = leaders[..] else {
            return Err(ElectError::Contract { leaders });
        };
        let predicted = self.predicted_leader();
        if leader != predicted {
            return Err(ElectError::PredictionMismatch {
                elected: leader,
                predicted,
            });
        }
        Ok(ElectionReport {
            leader,
            n: config.size(),
            sigma: config.span(),
            phases: self.schedule.phases(),
            rounds_local: self.schedule.done_local(),
            completion_round: run.completion_round,
            transmissions: run.stats.transmissions,
            rounds_stepped: run.rounds_stepped,
            rounds_leapt: run.rounds_leapt,
        })
    }

    /// The one election step behind [`CompiledElection::run_in`] and the
    /// campaign fold: runs `D_G` resident in `workspace` and collects the
    /// nodes that claim leadership, with the run's shape. No contract is
    /// checked here — a foreign channel may elect several nodes or none.
    ///
    /// The run stores history lengths only: each canonical node folds its
    /// observations into a match cursor as they land and resolves `f_G`
    /// itself at termination (see [`crate::canonical`]), so no observation
    /// content is kept. That removes the dominant memory term of
    /// dense-neighbourhood elections (a 10⁶-node bipartite run would
    /// otherwise store ~10⁸ heard events) and keeps peak RSS within a small
    /// multiple of the configuration footprint.
    pub(crate) fn elect_resident(
        &self,
        workspace: &mut SimWorkspace,
        config: &Configuration,
        model: ModelKind,
        opts: RunOpts,
    ) -> Result<(ResidentRun, Vec<NodeId>), SimError> {
        let run = workspace.run_kind_resident(model, config, &self.factory(), opts)?;
        let leaders = (0..config.size() as NodeId)
            .filter(|&v| workspace.leader_claim(v) == Some(true))
            .collect();
        Ok((run, leaders))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::{families, generators, tags, Configuration};

    fn compile(config: &Configuration) -> CompiledElection {
        CompiledElection::compile_in(&mut ClassifierWorkspace::new(), config)
    }

    fn run(compiled: &CompiledElection, config: &Configuration) -> ElectionReport {
        compiled
            .run_in(
                &mut SimWorkspace::new(),
                config,
                ModelKind::default(),
                RunOpts::default(),
            )
            .unwrap()
    }

    #[test]
    fn h_m_elects_node_a() {
        for m in [1u64, 3, 10] {
            let config = families::h_m(m);
            let d = compile(&config);
            assert_eq!(d.predicted_leader(), 0);
            let report = run(&d, &config);
            assert_eq!(report.leader, 0, "H_{m}");
            assert_eq!(report.n, 4);
            assert_eq!(report.phases, 1);
        }
    }

    #[test]
    fn g_m_elects_some_unique_node() {
        for m in [2usize, 3] {
            let config = families::g_m(m);
            let d = compile(&config);
            let report = run(&d, &config);
            // Classifier's singleton class contains the centre... the
            // smallest singleton may be another separated node; what the
            // contract guarantees is *uniqueness* and prediction agreement.
            assert_eq!(report.leader, d.predicted_leader());
            assert_eq!(report.phases, m);
        }
    }

    #[test]
    fn rounds_respect_the_n2_sigma_bound() {
        let mut rng = radio_util::rng::rng_from(5);
        for _ in 0..10 {
            let g = generators::gnp_connected(8, 0.3, &mut rng);
            let c = tags::distinct_shuffled(g, &mut rng);
            let d = compile(&c);
            assert!(d.feasible(), "distinct tags are feasible");
            let report = run(&d, &c);
            let n = report.n as u64;
            let sigma = report.sigma.max(1);
            // Lemma 3.10: ⌈n/2⌉ phases × (n blocks × (2σ+1) + σ) rounds.
            let bound = n.div_ceil(2) * (n * (2 * sigma + 1) + sigma) + 1;
            assert!(
                report.rounds_local <= bound,
                "rounds {} exceed bound {bound}",
                report.rounds_local
            );
        }
    }

    #[test]
    fn compile_in_matches_a_fresh_compile_across_reuse() {
        let mut ws = radio_classifier::ClassifierWorkspace::new();
        let mut sim = SimWorkspace::new();
        for config in [families::h_m(3), families::g_m(3), families::h_m(1)] {
            let fresh = compile(&config);
            let reused = CompiledElection::compile_in(&mut ws, &config);
            assert_eq!(reused.summary(), fresh.summary());
            assert_eq!(reused.predicted_leader(), fresh.predicted_leader());
            assert_eq!(reused.schedule().lists, fresh.schedule().lists);
            assert_eq!(reused.schedule().phase_end, fresh.schedule().phase_end);
            let a = reused
                .run_in(&mut sim, &config, ModelKind::default(), RunOpts::default())
                .unwrap();
            assert_eq!(a, run(&fresh, &config), "{config}");
        }
        // infeasible through the workspace too
        let infeasible = CompiledElection::compile_in(&mut ws, &families::s_m(2));
        assert!(!infeasible.feasible());
        assert_eq!(infeasible.summary().iterations, 2);
    }

    #[test]
    fn compiled_election_exists_for_infeasible_configurations() {
        let mut ws = radio_classifier::ClassifierWorkspace::new();
        let compiled = CompiledElection::compile_in(&mut ws, &families::s_m(2));
        assert!(!compiled.feasible());
        assert_eq!(compiled.summary().iterations, 2);
        // the schedule is well-defined; only the leader class is absent
        assert!(compiled.schedule().lists.leader_class.is_none());
        assert!(compiled.rounds_bound() >= 1);
    }

    #[test]
    fn shared_schedule_is_shared_not_copied() {
        let mut ws = radio_classifier::ClassifierWorkspace::new();
        let compiled = CompiledElection::compile_in(&mut ws, &families::h_m(2));
        let a = compiled.shared_schedule();
        let clone = compiled.clone();
        let b = clone.shared_schedule();
        assert!(Arc::ptr_eq(&a, &b), "clones share one schedule allocation");
    }

    #[test]
    fn singleton_graph_elects_its_node() {
        let c = Configuration::new(generators::path(1), vec![0]).unwrap();
        let report = run(&compile(&c), &c);
        assert_eq!(report.leader, 0);
        assert_eq!(report.n, 1);
    }
}
