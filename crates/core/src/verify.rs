//! Executable validators for the paper's structural lemmas.
//!
//! These functions take an actual (traced) execution of the canonical DRIP
//! and check the paper's claims on it, returning a descriptive error on the
//! first violation. The integration suite runs them across configuration
//! corpora; experiment E2/E3 summarize them over sweeps.

use radio_classifier::Outcome;
use radio_graph::{Configuration, NodeId};
use radio_sim::Execution;

use crate::schedule::CanonicalSchedule;

/// Lemma 3.6: the canonical DRIP is patient — nobody transmits in global
/// rounds `0..=σ`, hence every node wakes spontaneously at its tag.
pub fn check_patient(config: &Configuration, execution: &Execution) -> Result<(), String> {
    let sigma = config.span();
    let trace = execution
        .trace
        .as_ref()
        .ok_or_else(|| "check_patient requires a traced execution".to_string())?;
    for event in &trace.events {
        if !event.transmitters.is_empty() && event.round <= sigma {
            return Err(format!(
                "Lemma 3.6 violated: transmission at global round {} ≤ σ = {sigma}",
                event.round
            ));
        }
    }
    for v in 0..config.size() as NodeId {
        if !execution.woke_spontaneously(v) {
            return Err(format!(
                "Lemma 3.6 violated: node {v} was woken by a message"
            ));
        }
        if execution.wake_round[v as usize] != config.tag(v) {
            return Err(format!(
                "Lemma 3.6 violated: node {v} woke at {} instead of its tag {}",
                execution.wake_round[v as usize],
                config.tag(v)
            ));
        }
    }
    Ok(())
}

/// Lemma 3.8(2): node `v` transmits in block `k` of phase `j` iff
/// `v`'s class at the start of phase `j` is `k`. Checked as exact equality
/// between the traced transmitter sets and the classifier-predicted
/// schedule, round by round.
pub fn check_block_structure(
    config: &Configuration,
    outcome: &Outcome,
    schedule: &CanonicalSchedule,
    execution: &Execution,
) -> Result<(), String> {
    let trace = execution
        .trace
        .as_ref()
        .ok_or_else(|| "check_block_structure requires a traced execution".to_string())?;
    let n = config.size() as NodeId;

    // Predicted transmission rounds: per phase j and node v, global round
    // tag(v) + r_{j-1} + (class_j(v) − 1)(2σ+1) + σ + 1.
    let mut predicted: std::collections::BTreeMap<u64, Vec<NodeId>> = Default::default();
    for j in 1..=schedule.phases() {
        for v in 0..n {
            let class = if j == 1 {
                1
            } else {
                outcome.records[j - 2].partition.class_of(v)
            };
            let local = schedule.transmit_round(j, class);
            predicted.entry(config.tag(v) + local).or_default().push(v);
        }
    }

    // Observed transmission rounds from the trace.
    let mut observed: std::collections::BTreeMap<u64, Vec<NodeId>> = Default::default();
    for event in &trace.events {
        for &(v, _) in &event.transmitters {
            observed.entry(event.round).or_default().push(v);
        }
    }
    for txs in observed.values_mut() {
        txs.sort_unstable();
    }
    for txs in predicted.values_mut() {
        txs.sort_unstable();
    }

    if predicted != observed {
        for (round, pred) in &predicted {
            let obs = observed.get(round).cloned().unwrap_or_default();
            if *pred != obs {
                return Err(format!(
                    "Lemma 3.8(2) violated at global round {round}: predicted transmitters \
                     {pred:?}, observed {obs:?}"
                ));
            }
        }
        let extra: Vec<&u64> = observed
            .keys()
            .filter(|r| !predicted.contains_key(*r))
            .collect();
        return Err(format!(
            "Lemma 3.8(2) violated: unpredicted transmission rounds {extra:?}"
        ));
    }
    Ok(())
}

/// Lemma 3.9: after every iteration `j`, two nodes share a class iff their
/// histories agree through local round `r_j`.
pub fn check_history_partition(
    config: &Configuration,
    outcome: &Outcome,
    schedule: &CanonicalSchedule,
    execution: &Execution,
) -> Result<(), String> {
    let n = config.size() as NodeId;
    for j in 1..=schedule.phases() {
        let r_j = schedule.phase_end(j) as usize;
        let partition = &outcome.records[j - 1].partition;
        for v in 0..n {
            for w in (v + 1)..n {
                let same_class = partition.class_of(v) == partition.class_of(w);
                let hv = &execution.history(v).as_slice()[..=r_j];
                let hw = &execution.history(w).as_slice()[..=r_j];
                let same_hist = hv == hw;
                if same_class != same_hist {
                    return Err(format!(
                        "Lemma 3.9 violated at iteration {j} for nodes {v},{w}: same_class = \
                         {same_class}, same_history = {same_hist}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs all canonical-DRIP validators on one configuration. Returns the
/// classifier outcome for further inspection.
pub fn verify_canonical_execution(config: &Configuration) -> Result<Outcome, String> {
    let (outcome, schedule) = CanonicalSchedule::build(config);
    let factory = crate::canonical::CanonicalFactory::new(std::sync::Arc::new(schedule.clone()));
    let execution = radio_sim::ModelKind::default()
        .run(config, &factory, radio_sim::RunOpts::default().traced())
        .map_err(|e| e.to_string())?;
    check_patient(config, &execution)?;
    check_block_structure(config, &outcome, &schedule, &execution)?;
    check_history_partition(config, &outcome, &schedule, &execution)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::{families, generators, tags};

    #[test]
    fn paper_families_pass_all_validators() {
        for c in [
            families::h_m(1),
            families::h_m(4),
            families::s_m(2),
            families::g_m(2),
            families::g_m(3),
        ] {
            verify_canonical_execution(&c).unwrap_or_else(|e| panic!("{c}: {e}"));
        }
    }

    #[test]
    fn random_configs_pass_all_validators() {
        let mut rng = radio_util::rng::rng_from(99);
        for _ in 0..15 {
            let g = generators::gnp_connected(9, 0.3, &mut rng);
            let c = tags::random_in_span(g, 3, &mut rng);
            verify_canonical_execution(&c).unwrap_or_else(|e| panic!("{c}: {e}"));
        }
    }

    #[test]
    fn validators_require_traces() {
        let c = families::h_m(1);
        let (outcome, schedule) = CanonicalSchedule::build(&c);
        let factory =
            crate::canonical::CanonicalFactory::new(std::sync::Arc::new(schedule.clone()));
        let ex = radio_sim::ModelKind::default()
            .run(&c, &factory, radio_sim::RunOpts::default())
            .unwrap();
        assert!(check_patient(&c, &ex).is_err());
        assert!(check_block_structure(&c, &outcome, &schedule, &ex).is_err());
    }
}
