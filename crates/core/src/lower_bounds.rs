//! Measurement helpers for the lower-bound experiments
//! (Propositions 4.1 and 4.3).
//!
//! The negative results say: certain symmetric pairs of nodes keep
//! identical histories for provably many rounds, under *any* algorithm.
//! For the canonical DRIP (and any other concrete DRIP) we can observe
//! exactly when a pair's histories first diverge — the **symmetry
//! horizon** — and check it obeys the proofs' inequalities, as well as how
//! long the dedicated algorithm actually takes, for the `Ω(n)`/`Ω(σ)`
//! tables of E4/E5.

use radio_graph::{Configuration, NodeId};
use radio_sim::{Execution, ModelKind, RunOpts};

/// First *global* round at which the histories of `v` and `w` diverge, or
/// `None` if they remain equal to the end of the execution. Histories are
/// aligned on global time (entry `i` of a node's history happened in
/// global round `wake + i`), so the comparison is meaningful for any pair.
pub fn divergence_round(execution: &Execution, v: NodeId, w: NodeId) -> Option<u64> {
    let wv = execution.wake_round[v as usize];
    let ww = execution.wake_round[w as usize];
    if wv != ww {
        // One woke while the other slept: they diverge at the earlier wake
        // (the paper compares awake histories; a sleeping node has none).
        return Some(wv.min(ww));
    }
    let hv = execution.history(v).as_slice();
    let hw = execution.history(w).as_slice();
    for (i, (a, b)) in hv.iter().zip(hw.iter()).enumerate() {
        if a != b {
            return Some(wv + i as u64);
        }
    }
    if hv.len() != hw.len() {
        return Some(wv + hv.len().min(hw.len()) as u64);
    }
    None
}

/// Runs the dedicated canonical DRIP of `config` and reports, for the node
/// pairs in `pairs`, the global rounds at which their histories diverge.
pub fn canonical_divergences(
    config: &Configuration,
    pairs: &[(NodeId, NodeId)],
) -> (Execution, Vec<Option<u64>>) {
    let (_, schedule) = crate::schedule::CanonicalSchedule::build(config);
    let factory = crate::canonical::CanonicalFactory::new(std::sync::Arc::new(schedule));
    let execution = ModelKind::default()
        .run(config, &factory, RunOpts::default())
        .expect("canonical DRIP terminates");
    let divs = pairs
        .iter()
        .map(|&(v, w)| divergence_round(&execution, v, w))
        .collect();
    (execution, divs)
}

/// The three central `b`-nodes of `G_m` whose histories Proposition 4.1
/// proves equal through round `m − 2`: `(b_m, b_{m+1})` and
/// `(b_{m+1}, b_{m+2})` as node indices.
pub fn g_m_central_pairs(m: usize) -> [(NodeId, NodeId); 2] {
    let center = radio_graph::families::g_m_center(m);
    [(center - 1, center), (center, center + 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::families;

    #[test]
    fn g_m_centre_stays_symmetric_for_m_minus_2_rounds() {
        // Prop 4.1: histories of b_m, b_{m+1}, b_{m+2} coincide in all
        // rounds t < m−1, so divergence can happen at global round ≥ m−1.
        for m in [2usize, 3, 4, 6] {
            let c = families::g_m(m);
            let pairs = g_m_central_pairs(m);
            let (_, divs) = canonical_divergences(&c, &pairs);
            for (pair, div) in pairs.iter().zip(&divs) {
                let d = div.expect("feasible: histories must eventually diverge");
                assert!(
                    d >= (m as u64) - 1,
                    "G_{m}: pair {pair:?} diverged at {d} < m−1 = {}",
                    m - 1
                );
            }
        }
    }

    #[test]
    fn h_m_first_divergence_respects_sigma_bound() {
        // Lemma 4.2: any algorithm needs ≥ m rounds; under the canonical
        // DRIP, b and c diverge only after hearing from a or d, which
        // cannot happen before round m (nothing transmits before σ+1 > m).
        for m in [1u64, 3, 8] {
            let c = families::h_m(m);
            let (_, divs) = canonical_divergences(&c, &[(1, 2)]);
            let d = divs[0].expect("H_m is feasible");
            assert!(d >= m, "H_{m}: b,c diverged at {d} < m");
        }
    }

    #[test]
    fn s_m_pairs_never_diverge() {
        let c = families::s_m(3);
        let (_, divs) = canonical_divergences(&c, &[(0, 3), (1, 2)]);
        assert_eq!(
            divs,
            vec![None, None],
            "S_m's mirror pairs stay symmetric forever"
        );
    }

    #[test]
    fn divergence_detects_wake_offsets() {
        // On H_2, node a (tag 2... woken at global... canonical is patient
        // so a wakes at its tag 2) and node b (tag 0) have different wake
        // rounds → diverge at round 0.
        let c = families::h_m(2);
        let (ex, divs) = canonical_divergences(&c, &[(0, 1)]);
        assert_eq!(ex.wake_round[0], 2);
        assert_eq!(ex.wake_round[1], 0);
        assert_eq!(divs[0], Some(0));
    }
}
