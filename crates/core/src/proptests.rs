//! Property-based tests of the canonical schedule, the decision function,
//! and off-schedule robustness (failure injection).

use proptest::prelude::*;

use radio_graph::{generators, Configuration};
use radio_sim::{ModelKind, RunOpts};

use crate::canonical::CanonicalFactory;
use crate::decision::LeaderDecision;
use crate::schedule::CanonicalSchedule;

fn build_config(n: usize, extra: usize, span: u64, seed: u64) -> Configuration {
    let mut rng = radio_util::rng::rng_from(seed);
    let max_extra = n * (n - 1) / 2 - n.saturating_sub(1);
    let g = generators::random_connected(n, extra.min(max_extra), &mut rng);
    radio_graph::tags::random_in_span(g, span, &mut rng)
}

fn config_strategy() -> impl Strategy<Value = Configuration> {
    (1usize..10, 0usize..6, 0u64..5, any::<u64>())
        .prop_map(|(n, extra, span, seed)| build_config(n, extra, span, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_geometry_invariants(config in config_strategy()) {
        let (outcome, schedule) = CanonicalSchedule::build(&config);
        let sigma = config.span();
        prop_assert_eq!(schedule.sigma, sigma);
        prop_assert_eq!(schedule.phases(), outcome.iterations);
        prop_assert_eq!(schedule.phase_end(0), 0);
        for j in 1..=schedule.phases() {
            // phase j spans blocks_j·(2σ+1)+σ rounds
            let width = schedule.blocks(j) * (2 * sigma + 1) + sigma;
            prop_assert_eq!(schedule.phase_end(j), schedule.phase_end(j - 1) + width);
            // transmit rounds lie strictly inside the block region
            for k in 1..=schedule.blocks(j) as u32 {
                let t = schedule.transmit_round(j, k);
                prop_assert!(t > schedule.phase_end(j - 1));
                prop_assert!(t <= schedule.phase_end(j - 1) + schedule.blocks(j) * (2 * sigma + 1));
            }
        }
        prop_assert_eq!(schedule.done_local(), schedule.phase_end(schedule.phases()) + 1);
    }

    #[test]
    fn decision_replay_matches_classifier_classes(config in config_strategy()) {
        let (outcome, schedule) = CanonicalSchedule::build(&config);
        let shared = std::sync::Arc::new(schedule);
        let factory = CanonicalFactory::new(shared.clone());
        let ex = ModelKind::default().run(&config, &factory, RunOpts::default()).unwrap();
        let decision = LeaderDecision::new(shared);
        let partition = outcome.final_partition();
        for v in 0..config.size() as u32 {
            prop_assert_eq!(
                decision.final_class(ex.history(v)),
                Some(partition.class_of(v)),
                "node {} of {}", v, config
            );
        }
    }

    #[test]
    fn foreign_schedules_never_panic_and_terminate(
        config_a in config_strategy(),
        config_b in config_strategy(),
    ) {
        // Failure injection: install A's dedicated DRIP on configuration B.
        // Nodes may go off-schedule (silent-observer mode) but every node
        // must terminate at A's done_local, and the decision function must
        // mark at most... anything — but never panic.
        let (_, schedule) = CanonicalSchedule::build(&config_a);
        let done = schedule.done_local();
        let shared = std::sync::Arc::new(schedule);
        let factory = CanonicalFactory::new(shared.clone());
        let ex = ModelKind::default().run(&config_b, &factory, RunOpts::default()).unwrap();
        let decision = LeaderDecision::new(shared);
        for v in 0..config_b.size() as u32 {
            prop_assert_eq!(ex.done_local(v), done);
            let _ = decision.is_leader(ex.history(v)); // must not panic
        }
    }

    #[test]
    fn canonical_transmission_budget_is_phases_times_n(config in config_strategy()) {
        // Every node transmits exactly once per phase on its own
        // configuration (Lemma 3.7 consequence).
        let (outcome, schedule) = CanonicalSchedule::build(&config);
        let factory = CanonicalFactory::new(std::sync::Arc::new(schedule));
        let ex = ModelKind::default().run(&config, &factory, RunOpts::default()).unwrap();
        prop_assert_eq!(
            ex.stats.transmissions,
            (config.size() * outcome.iterations) as u64
        );
    }
}
