//! The `Classifier` outcome types and the classic eager entry points.
//!
//! `Classifier` alternates label computation ([`crate::partitioner`]) and
//! partition refinement ([`crate::reference`] / [`crate::fast`]) until a
//! singleton class appears (**feasible**) or an iteration leaves the
//! partition unchanged (**infeasible**). Per Lemma 3.4 this happens within
//! `⌈n/2⌉` iterations; the loop enforces that bound and treats overrun as
//! a broken invariant.
//!
//! The loop itself lives in [`crate::workspace`] — one implementation
//! drives both engines and streams each iteration to a
//! [`RecordSink`](crate::workspace::RecordSink). The functions here are
//! the eager wrappers: a fresh
//! [`ClassifierWorkspace`](crate::workspace::ClassifierWorkspace) with a
//! [`FullRecords`](crate::workspace::FullRecords) sink, packaged as the
//! classic [`Outcome`]. Batch callers hold a workspace and use
//! [`ClassifierWorkspace::classify_in`](crate::workspace::ClassifierWorkspace::classify_in)
//! / [`summarize_in`](crate::workspace::ClassifierWorkspace::summarize_in)
//! instead.

use radio_graph::Configuration;

use crate::partition::Partition;
use crate::triple::Label;
use crate::workspace::ClassifierWorkspace;

/// Which refinement engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Paper-literal `O(n³Δ)` engine with step counting.
    Reference,
    /// Hash-refinement engine, `O(nΔ)` expected per iteration.
    Fast,
}

/// Elementary-step counters (populated by the [`Engine::Reference`] engine
/// only; the fast engine reports zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Steps spent computing labels (Partitioner lines 1–22).
    pub label_steps: u64,
    /// Steps spent refining the partition (Refine).
    pub refine_steps: u64,
}

impl Cost {
    /// Total elementary steps.
    pub fn total(&self) -> u64 {
        self.label_steps + self.refine_steps
    }
}

/// What one `Classifier` iteration produced.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Label assigned to each node during this iteration (the paper's
    /// `v_LBL,i+1`).
    pub labels: Vec<Label>,
    /// The partition after this iteration (the paper's `v_CLASS,i+1`,
    /// `reps_{i+1}`, `numClasses_{G,i+1}`).
    pub partition: Partition,
}

/// The full result of running `Classifier` on a configuration.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `true` = "Yes" (leader election feasible), `false` = "No".
    pub feasible: bool,
    /// Number of iterations executed (the exit iteration `T`).
    pub iterations: usize,
    /// Per-iteration records, `records[i-1]` for iteration `i`.
    pub records: Vec<IterationRecord>,
    /// Step counters (reference engine only).
    pub cost: Cost,
    /// The engine that produced this outcome.
    pub engine: Engine,
}

impl Outcome {
    /// The partition after the final iteration.
    pub fn final_partition(&self) -> &Partition {
        &self.records[self.iterations - 1].partition
    }

    /// The leader class `m̂` (smallest singleton class of the final
    /// partition), when feasible.
    pub fn leader_class(&self) -> Option<u32> {
        if self.feasible {
            self.final_partition().smallest_singleton()
        } else {
            None
        }
    }

    /// Class counts per iteration — strictly increasing until the exit
    /// (Corollary 3.3).
    pub fn class_counts(&self) -> Vec<u32> {
        self.records
            .iter()
            .map(|r| r.partition.num_classes())
            .collect()
    }
}

/// Runs `Classifier` with the default (fast) engine.
pub fn classify(config: &Configuration) -> Outcome {
    classify_with(config, Engine::Fast)
}

/// Runs `Classifier` with the chosen engine (a fresh workspace per call —
/// hold a [`ClassifierWorkspace`] for repeated classification).
pub fn classify_with(config: &Configuration, engine: Engine) -> Outcome {
    ClassifierWorkspace::new().classify_in(config, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::{families, generators, tags, Configuration};

    fn both(config: &Configuration) -> (Outcome, Outcome) {
        (
            classify_with(config, Engine::Reference),
            classify_with(config, Engine::Fast),
        )
    }

    #[test]
    fn singleton_node_is_feasible() {
        let c = Configuration::new(generators::path(1), vec![0]).unwrap();
        let (r, f) = both(&c);
        assert!(r.feasible && f.feasible);
        assert_eq!(r.iterations, 1);
        assert_eq!(r.leader_class(), Some(1));
    }

    #[test]
    fn uniform_tags_are_infeasible_beyond_one_node() {
        for g in [
            generators::path(4),
            generators::cycle(5),
            generators::complete(3),
        ] {
            let c = Configuration::with_uniform_tags(g, 0).unwrap();
            let (r, f) = both(&c);
            assert!(!r.feasible, "{c}");
            assert!(!f.feasible, "{c}");
            assert_eq!(r.iterations, 1, "no refinement possible at all");
        }
    }

    #[test]
    fn h_m_is_feasible_after_one_iteration() {
        // Lemma 4.2: each of the four nodes lands in its own class after
        // iteration 1.
        for m in [1u64, 2, 5, 30] {
            let c = families::h_m(m);
            let (r, f) = both(&c);
            assert!(r.feasible && f.feasible, "H_{m}");
            assert_eq!(r.iterations, 1);
            assert_eq!(r.final_partition().num_classes(), 4);
            assert_eq!(r.leader_class(), Some(1));
        }
    }

    #[test]
    fn s_m_is_infeasible_with_two_pair_classes() {
        // Prop 4.5: partition stabilizes at {a,d}, {b,c} after iteration 2.
        for m in [1u64, 2, 7] {
            let c = families::s_m(m);
            let (r, f) = both(&c);
            assert!(!r.feasible, "S_{m}");
            assert!(!f.feasible, "S_{m}");
            let p = r.final_partition();
            assert_eq!(p.num_classes(), 2);
            assert_eq!(p.class_of(0), p.class_of(3), "a ~ d");
            assert_eq!(p.class_of(1), p.class_of(2), "b ~ c");
        }
    }

    #[test]
    fn g_m_is_feasible_after_m_iterations() {
        // Prop 4.1: the centre b_{m+1} separates after m iterations.
        for m in [2usize, 3, 4, 6] {
            let c = families::g_m(m);
            let (r, f) = both(&c);
            assert!(r.feasible && f.feasible, "G_{m}");
            assert_eq!(r.iterations, m, "G_{m} needs exactly m iterations");
            // the centre is in a singleton class
            let p = r.final_partition();
            let center = families::g_m_center(m);
            let center_class = p.class_of(center);
            assert_eq!(p.members(center_class), vec![center]);
        }
    }

    #[test]
    fn engines_agree_exactly() {
        use radio_util::rng::rng_from;
        let mut rng = rng_from(2024);
        for trial in 0..40 {
            let n = 2 + (trial % 12);
            let g = generators::gnp_connected(n, 0.35, &mut rng);
            let c = tags::random_in_span(g, 5, &mut rng);
            let (r, f) = both(&c);
            assert_eq!(r.feasible, f.feasible, "{c}");
            assert_eq!(r.iterations, f.iterations);
            for (a, b) in r.records.iter().zip(&f.records) {
                assert_eq!(a.partition, b.partition);
                assert_eq!(a.labels, b.labels);
            }
        }
    }

    #[test]
    fn class_counts_strictly_increase_until_exit() {
        let c = families::g_m(5);
        let out = classify(&c);
        let counts = out.class_counts();
        for w in counts.windows(2) {
            assert!(w[0] < w[1], "counts must strictly grow: {counts:?}");
        }
    }

    #[test]
    fn refinement_chain_is_monotone() {
        let c = families::g_m(4);
        let out = classify(&c);
        let mut prev = Partition::initial(c.size());
        for rec in &out.records {
            assert!(rec.partition.refines(&prev));
            prev = rec.partition.clone();
        }
    }

    #[test]
    fn reference_cost_is_positive_and_bounded() {
        let c = families::g_m(4); // n=17, Δ=2
        let out = classify_with(&c, Engine::Reference);
        let n = c.size() as u64;
        let delta = c.max_degree() as u64;
        assert!(out.cost.total() > 0);
        // Lemma 3.5: O(n³Δ) with a small constant; use 8 as slack.
        assert!(
            out.cost.total() <= 8 * n * n * n * delta,
            "cost {} exceeds bound",
            out.cost.total()
        );
    }

    #[test]
    fn distinct_tags_on_path_feasible() {
        let c = Configuration::new(generators::path(6), vec![0, 1, 2, 3, 4, 5]).unwrap();
        assert!(classify(&c).feasible);
    }

    #[test]
    fn two_node_distinct_tags_feasible() {
        let c = Configuration::new(generators::path(2), vec![0, 1]).unwrap();
        let out = classify(&c);
        assert!(out.feasible);
        assert_eq!(out.final_partition().num_classes(), 2);
    }

    #[test]
    fn two_node_same_tags_infeasible() {
        let c = Configuration::new(generators::path(2), vec![3, 3]).unwrap();
        assert!(!classify(&c).feasible);
    }
}
