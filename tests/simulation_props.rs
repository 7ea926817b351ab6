//! Property-based tests of the simulator semantics themselves, run through
//! the public API with simple DRIPs over random configurations.

use proptest::prelude::*;

use radio_graph::{generators, Configuration};
use radio_sim::drip::{BeaconFactory, SilentFactory, WaitThenTransmitFactory};
use radio_sim::{ModelKind, Msg, Obs, RunOpts};
use radio_util::rng::rng_from;

fn build_config(n: usize, extra: usize, span: u64, seed: u64) -> Configuration {
    let mut rng = rng_from(seed);
    let max_extra = n * (n - 1) / 2 - n.saturating_sub(1);
    let g = generators::random_connected(n, extra.min(max_extra), &mut rng);
    radio_graph::tags::random_in_span(g, span, &mut rng)
}

fn config_strategy() -> impl Strategy<Value = Configuration> {
    (1usize..14, 0usize..10, 0u64..8, any::<u64>())
        .prop_map(|(n, extra, span, seed)| build_config(n, extra, span, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn silent_runs_have_no_traffic(config in config_strategy(), life in 1u64..12) {
        let ex = ModelKind::default().run(&config, &SilentFactory { lifetime: life }, RunOpts::default())
            .unwrap();
        prop_assert_eq!(ex.stats.transmissions, 0);
        prop_assert_eq!(ex.stats.messages_received, 0);
        prop_assert_eq!(ex.stats.collisions_observed, 0);
        prop_assert_eq!(ex.stats.forced_wakeups, 0);
        // every node wakes at its tag and terminates `life` rounds later
        for v in 0..config.size() as u32 {
            prop_assert_eq!(ex.wake_round[v as usize], config.tag(v));
            prop_assert_eq!(ex.done_local(v), life);
            prop_assert_eq!(ex.history(v).len() as u64, life);
            prop_assert!(ex.history(v).all_silent());
        }
    }

    #[test]
    fn history_length_equals_done_local(
        config in config_strategy(),
        wait in 0u64..6,
    ) {
        let drip = WaitThenTransmitFactory { wait, msg: Msg(3), lifetime: wait + 10 };
        let ex = ModelKind::default().run(&config, &drip, RunOpts::default()).unwrap();
        for v in 0..config.size() as u32 {
            prop_assert_eq!(ex.history(v).len() as u64, ex.done_local(v));
        }
    }

    #[test]
    fn conservation_of_observations(config in config_strategy(), wait in 0u64..6) {
        // Every received message and every observed collision corresponds
        // to ≥1 transmission in the same round; globally:
        // messages_received ≤ Σ (receivers per transmission) and
        // transmissions ≥ 1 whenever anything was heard.
        let drip = WaitThenTransmitFactory { wait, msg: Msg(1), lifetime: wait + 10 };
        let ex = ModelKind::default().run(&config, &drip, RunOpts::default()).unwrap();
        if ex.stats.messages_received > 0 || ex.stats.collisions_observed > 0 {
            prop_assert!(ex.stats.transmissions > 0);
        }
        // each node transmits exactly once → transmissions == n
        prop_assert_eq!(ex.stats.transmissions, config.size() as u64);
        // a node can receive at most one message observation per round it
        // listens; crude upper bound: rounds × n
        prop_assert!(ex.stats.messages_received <= ex.rounds * config.size() as u64);
    }

    #[test]
    fn forced_wakeups_only_with_early_transmissions(
        config in config_strategy(),
        start in 1u64..4,
    ) {
        let ex = ModelKind::default().run(
            &config,
            &BeaconFactory { start, lifetime: start + 6, msg: Msg(2) },
            RunOpts::default(),
        )
        .unwrap();
        // nobody can be woken before the first possible transmission round
        // (min tag + start)
        let min_tag = config.min_tag();
        for v in 0..config.size() as u32 {
            prop_assert!(ex.wake_round[v as usize] + 1 > min_tag);
            prop_assert!(ex.wake_round[v as usize] <= config.tag(v));
            if ex.wake_round[v as usize] < config.tag(v) {
                prop_assert!(ex.history(v)[0].is_message(), "early wake must be forced");
            }
        }
    }

    #[test]
    fn trace_transmitter_count_matches_stats(
        config in config_strategy(),
        wait in 0u64..5,
    ) {
        let drip = WaitThenTransmitFactory { wait, msg: Msg(1), lifetime: wait + 8 };
        let ex = ModelKind::default().run(&config, &drip, RunOpts::default().traced()).unwrap();
        let traced: u64 = ex
            .trace
            .as_ref()
            .unwrap()
            .events
            .iter()
            .map(|e| e.transmitters.len() as u64)
            .sum();
        prop_assert_eq!(traced, ex.stats.transmissions);
    }

    #[test]
    fn heard_entries_carry_the_right_message(
        config in config_strategy(),
        payload in 1u64..1000,
    ) {
        let drip = WaitThenTransmitFactory { wait: 0, msg: Msg(payload), lifetime: 8 };
        let ex = ModelKind::default().run(&config, &drip, RunOpts::default()).unwrap();
        for v in 0..config.size() as u32 {
            for (_, obs) in ex.history(v).iter() {
                if let Obs::Heard(m) = obs {
                    prop_assert_eq!(m, Msg(payload));
                }
            }
        }
    }
}
