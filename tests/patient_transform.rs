//! Lemma 3.12 end-to-end: wrapping a working leader-election algorithm in
//! the patient transform preserves election — with the decision function
//! `f_pat(H) = f(H[s_w ..])` built exactly as the paper prescribes.

use radio_graph::{generators, Configuration};
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::{
    run_election, History, LeaderAlgorithm, ModelKind, Msg, Obs, PatientFactory, RunOpts,
};

/// The paper's `f_pat`: recover `s_w = min(σ, rcv_w)` from the history and
/// apply `f` to the suffix (with the boundary-collision sanitation
/// documented in `radio-sim::patient`).
fn patient_decision<'a>(
    sigma: u64,
    inner: &'a (dyn Fn(&History) -> bool + Sync),
) -> impl Fn(&History) -> bool + Sync + 'a {
    move |h: &History| {
        let rcv = h.first_message().map(|r| r as u64);
        let s = rcv.unwrap_or(u64::MAX).min(sigma) as usize;
        if h.len() <= s {
            return false; // never reached the simulation stage
        }
        let mut suffix = h.window(s, h.len() - s);
        if suffix[0].is_collision() {
            // boundary sanitation: the inner DRIP saw (∅) here
            let mut entries = suffix.as_slice().to_vec();
            entries[0] = Obs::Silence;
            suffix = History::from_entries(entries);
        }
        inner(&suffix)
    }
}

/// A small election algorithm (wait-then-transmit + "leader iff my history
/// is pure silence through my transmission round") and the configurations
/// it wins on.
fn inner_algorithm(wait: u64) -> (WaitThenTransmitFactory, impl Fn(&History) -> bool + Sync) {
    let factory = WaitThenTransmitFactory {
        wait,
        msg: Msg::ONE,
        lifetime: wait + 12,
    };
    let decide = move |h: &History| {
        h.as_slice()
            .iter()
            .take(wait as usize + 2)
            .all(|o| o.is_silence())
    };
    (factory, decide)
}

fn working_configs() -> Vec<Configuration> {
    vec![
        // strongly staggered path: the head transmits first and wins
        Configuration::new(generators::path(2), vec![0, 9]).unwrap(),
        Configuration::new(generators::path(3), vec![0, 9, 9]).unwrap(),
        Configuration::new(generators::star(4), vec![0, 9, 9, 9]).unwrap(),
        Configuration::new(generators::path(4), vec![0, 9, 9, 9]).unwrap(),
    ]
}

#[test]
fn plain_algorithm_wins_on_the_test_configs() {
    for config in working_configs() {
        let (factory, decide) = inner_algorithm(1);
        let algo = LeaderAlgorithm {
            drip: &factory,
            decide: &decide,
        };
        let out = run_election(ModelKind::default(), &config, &algo, RunOpts::default()).unwrap();
        assert_eq!(out.elected(), Some(0), "{config}");
    }
}

#[test]
fn patient_wrapping_preserves_the_winner() {
    for config in working_configs() {
        let sigma = config.span();
        let (factory, decide) = inner_algorithm(1);
        let patient = PatientFactory::new(factory, sigma);
        let pat_decide = patient_decision(sigma, &decide);
        let algo = LeaderAlgorithm {
            drip: &patient,
            decide: &pat_decide,
        };
        let out = run_election(ModelKind::default(), &config, &algo, RunOpts::default()).unwrap();
        assert_eq!(out.elected(), Some(0), "{config} (patient)");
    }
}

#[test]
fn patient_wrapping_preserves_failure_too() {
    // On a symmetric configuration the inner algorithm elects 2 leaders;
    // so must the patient version (the transform changes timing, not
    // symmetry).
    let config = Configuration::new(generators::path(2), vec![0, 0]).unwrap();
    let (factory, decide) = inner_algorithm(1);
    let algo = LeaderAlgorithm {
        drip: &factory,
        decide: &decide,
    };
    let plain = run_election(ModelKind::default(), &config, &algo, RunOpts::default()).unwrap();

    let sigma = config.span();
    let (factory, decide) = inner_algorithm(1);
    let patient = PatientFactory::new(factory, sigma);
    let pat_decide = patient_decision(sigma, &decide);
    let algo = LeaderAlgorithm {
        drip: &patient,
        decide: &pat_decide,
    };
    let wrapped = run_election(ModelKind::default(), &config, &algo, RunOpts::default()).unwrap();

    assert_eq!(plain.leaders.len(), wrapped.leaders.len());
    assert_ne!(plain.leaders.len(), 1);
}

#[test]
fn patient_runs_are_never_early() {
    // Claim 1 of Lemma 3.12 on a batch of configurations: no transmission
    // at global rounds ≤ σ.
    let mut rng = radio_util::rng::rng_from(42);
    for _ in 0..10 {
        let g = radio_graph::generators::gnp_connected(8, 0.3, &mut rng);
        let config = radio_graph::tags::random_in_span(g, 6, &mut rng);
        let sigma = config.span();
        let (factory, _) = inner_algorithm(0);
        let patient = PatientFactory::new(factory, sigma);
        let ex = radio_sim::ModelKind::default()
            .run(&config, &patient, RunOpts::default().traced())
            .unwrap();
        for event in &ex.trace.unwrap().events {
            if !event.transmitters.is_empty() {
                assert!(
                    event.round > sigma,
                    "transmission at {} ≤ σ={sigma}",
                    event.round
                );
            }
        }
    }
}

#[test]
fn patient_suffix_equality_claim_2_3() {
    // For every node: patient history from s_w onwards equals the plain
    // history (modulo the documented boundary sanitation).
    let mut rng = radio_util::rng::rng_from(7);
    for _ in 0..10 {
        let g = radio_graph::generators::random_tree(7, &mut rng);
        let config = radio_graph::tags::random_in_span(g, 4, &mut rng);
        let sigma = config.span();

        let (factory, _) = inner_algorithm(1);
        let plain = radio_sim::ModelKind::default()
            .run(&config, &factory, RunOpts::default())
            .unwrap();

        let (factory, _) = inner_algorithm(1);
        let patient = PatientFactory::new(factory, sigma);
        let wrapped = radio_sim::ModelKind::default()
            .run(&config, &patient, RunOpts::default())
            .unwrap();

        for v in 0..config.size() as u32 {
            let s = (plain.wake_round[v as usize] + sigma - config.tag(v)) as usize;
            let plain_h = plain.history(v).as_slice();
            let wrapped_h = wrapped.history(v).as_slice();
            assert!(wrapped_h.len() >= s + plain_h.len(), "{config} node {v}");
            let mut suffix = wrapped_h[s..s + plain_h.len()].to_vec();
            if suffix[0].is_collision() {
                suffix[0] = Obs::Silence;
            }
            assert_eq!(&suffix, plain_h, "{config} node {v}");
        }
    }
}
