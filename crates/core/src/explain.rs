//! Infeasibility explanation: *why* can no leader be elected?
//!
//! `Classifier` answers "No" by reaching a stable partition with no
//! singleton class. This module turns that verdict into evidence a human
//! can check:
//!
//! * the **stable partition** itself — every class of ≥ 2 nodes is a set
//!   of mutual "history twins" that no algorithm can split;
//! * a **witness pair** per class — two concrete nodes whose canonical
//!   histories are verified equal by simulation;
//! * when one exists (search is exhaustive, so small `n` only), an
//!   **automorphism certificate**: a non-trivial symmetry of the tagged
//!   configuration mapping one witness to the other, which proves the
//!   twins indistinguishable under *every* algorithm, not just the
//!   canonical one. Not every infeasible configuration has such a
//!   certificate — history equivalence is coarser than orbit equivalence —
//!   so the certificate is optional by design.

use radio_classifier::{
    ClassifierWorkspace, Engine, FinalOnly, IterationView, ListsSink, RecordSink,
};
use radio_graph::{Configuration, NodeId};
use radio_sim::{ModelKind, RunOpts};

use crate::schedule::CanonicalSchedule;

/// The explainer's composite sink: streams the canonical-list entries
/// (for the verifying simulation's schedule) *and* keeps the final stable
/// partition (the twin classes) — one classifier run, no per-node
/// iteration records.
#[derive(Default)]
struct ListsAndFinal {
    lists: ListsSink,
    finale: FinalOnly,
}

impl RecordSink for ListsAndFinal {
    fn record(&mut self, iteration: usize, view: IterationView<'_>) {
        self.lists.record(iteration, view);
        self.finale.record(iteration, view);
    }
}

/// Evidence for one non-singleton class of the stable partition.
#[derive(Debug, Clone)]
pub struct TwinClass {
    /// Class id in the stable partition.
    pub class: u32,
    /// All members.
    pub members: Vec<NodeId>,
    /// A verified witness pair (first two members).
    pub witness: (NodeId, NodeId),
    /// Whether the canonical execution confirms equal histories for the
    /// witness pair (always true; kept explicit for reporting).
    pub histories_equal: bool,
    /// A non-trivial configuration automorphism mapping `witness.0` to
    /// `witness.1`, when one exists and the search was attempted (n ≤ 8).
    pub automorphism: Option<Vec<NodeId>>,
}

/// The full infeasibility report.
#[derive(Debug, Clone)]
pub struct InfeasibilityReport {
    /// Iterations until the partition stabilized.
    pub iterations: usize,
    /// Number of classes in the stable partition.
    pub classes: u32,
    /// One entry per non-singleton class.
    pub twins: Vec<TwinClass>,
}

impl InfeasibilityReport {
    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "INFEASIBLE: partition stabilized after {} iteration(s) into {} class(es), \
             none a singleton",
            self.iterations, self.classes
        );
        for twin in &self.twins {
            let _ = writeln!(
                out,
                "  class {}: nodes {:?} are mutual history twins (witness v{} ≡ v{})",
                twin.class, twin.members, twin.witness.0, twin.witness.1
            );
            match &twin.automorphism {
                Some(perm) => {
                    let _ = writeln!(
                        out,
                        "    certificate: automorphism {:?} maps v{} ↦ v{} — \
                         indistinguishable under every algorithm",
                        perm, twin.witness.0, perm[twin.witness.0 as usize]
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "    no automorphism certificate (twins by execution dynamics, \
                         not graph symmetry)"
                    );
                }
            }
        }
        out
    }
}

/// Errors from [`explain_infeasibility`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// The configuration is feasible — nothing to explain.
    Feasible {
        /// The node that would be elected.
        leader: NodeId,
    },
}

impl std::fmt::Display for ExplainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExplainError::Feasible { leader } => {
                write!(
                    f,
                    "configuration is feasible (leader v{leader}); nothing to explain"
                )
            }
        }
    }
}

impl std::error::Error for ExplainError {}

/// Builds the infeasibility report for `config`.
///
/// Automorphism certificates are searched exhaustively when `n ≤ 8`
/// (skipped above, where the factorial search would not terminate in
/// reasonable time).
pub fn explain_infeasibility(config: &Configuration) -> Result<InfeasibilityReport, ExplainError> {
    let mut workspace = ClassifierWorkspace::new();
    let mut sink = ListsAndFinal::default();
    let summary = workspace.classify_with_sink(config, Engine::Fast, &mut sink);
    if summary.feasible {
        return Err(ExplainError::Feasible {
            leader: summary.leader.expect("feasible ⇒ leader"),
        });
    }
    let schedule =
        CanonicalSchedule::from_lists(sink.lists.into_lists(config.span(), summary.leader_class));
    let partition = sink
        .finale
        .into_partition()
        .expect("at least one iteration ran");

    // Verify witness histories by actually running the canonical DRIP.
    let factory = crate::canonical::CanonicalFactory::new(std::sync::Arc::new(schedule));
    let execution = ModelKind::default()
        .run(config, &factory, RunOpts::default())
        .expect("canonical DRIP terminates");

    let mut twins = Vec::new();
    for class in 1..=partition.num_classes() {
        let members = partition.members(class);
        if members.len() < 2 {
            continue;
        }
        let witness = (members[0], members[1]);
        let histories_equal = execution.history(witness.0) == execution.history(witness.1);
        debug_assert!(
            histories_equal,
            "stable same-class nodes must be history twins"
        );
        let automorphism = if config.size() <= 8 {
            find_mapping_automorphism(config, witness.0, witness.1)
        } else {
            None
        };
        twins.push(TwinClass {
            class,
            members,
            witness,
            histories_equal,
            automorphism,
        });
    }

    Ok(InfeasibilityReport {
        iterations: summary.iterations,
        classes: partition.num_classes(),
        twins,
    })
}

/// Exhaustive DFS for an automorphism with `perm[from] == to`, with
/// tag/adjacency pruning at every placement. Returns the permutation found.
fn find_mapping_automorphism(
    config: &Configuration,
    from: NodeId,
    to: NodeId,
) -> Option<Vec<NodeId>> {
    fn search(
        config: &Configuration,
        perm: &mut Vec<NodeId>,
        k: usize,
        from: NodeId,
        to: NodeId,
        out: &mut Option<Vec<NodeId>>,
    ) -> bool {
        let n = config.size();
        if k == n {
            if perm[from as usize] == to && config.is_automorphism(perm) {
                *out = Some(perm.clone());
                return true;
            }
            return false;
        }
        for i in k..n {
            perm.swap(k, i);
            let tags = config.tags();
            let ok_tag = tags[k] == tags[perm[k] as usize];
            let ok_pin = k != from as usize || perm[k] == to;
            let ok_adj = (0..k).all(|u| {
                config.csr().has_edge(u as NodeId, k as NodeId)
                    == config.csr().has_edge(perm[u], perm[k])
            });
            if ok_tag && ok_pin && ok_adj && search(config, perm, k + 1, from, to, out) {
                perm.swap(k, i);
                return true;
            }
            perm.swap(k, i);
        }
        false
    }

    let mut perm: Vec<NodeId> = (0..config.size() as NodeId).collect();
    let mut out = None;
    search(config, &mut perm, 0, from, to, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::{families, generators};

    #[test]
    fn s_m_explained_with_mirror_certificates() {
        let config = families::s_m(2);
        let report = explain_infeasibility(&config).unwrap();
        assert_eq!(report.classes, 2);
        assert_eq!(report.twins.len(), 2);
        for twin in &report.twins {
            assert!(twin.histories_equal);
            let perm = twin.automorphism.as_ref().expect("mirror symmetry exists");
            assert!(config.is_automorphism(perm));
            assert_eq!(perm[twin.witness.0 as usize], twin.witness.1);
        }
        let text = report.render();
        assert!(text.contains("INFEASIBLE"));
        assert!(text.contains("certificate"));
    }

    #[test]
    fn feasible_configs_are_rejected() {
        let err = explain_infeasibility(&families::h_m(2)).unwrap_err();
        assert_eq!(err, ExplainError::Feasible { leader: 0 });
        assert!(err.to_string().contains("v0"));
    }

    #[test]
    fn uniform_cycle_certificate() {
        let config = Configuration::with_uniform_tags(generators::cycle(5), 0).unwrap();
        let report = explain_infeasibility(&config).unwrap();
        assert_eq!(report.classes, 1);
        assert_eq!(report.twins.len(), 1);
        assert_eq!(report.twins[0].members.len(), 5);
        assert!(
            report.twins[0].automorphism.is_some(),
            "rotations certify the cycle"
        );
    }

    #[test]
    fn uniform_path_center_class_is_singleton_but_still_infeasible() {
        // P_5 uniform: classes {ends}, {2nd ring}, {centre}. The centre is
        // a WL/structural singleton, yet the configuration is infeasible —
        // the *stable partition* has no singleton because Classifier's
        // refinement stalls instantly (nothing is ever heard).
        let config = Configuration::with_uniform_tags(generators::path(5), 0).unwrap();
        let report = explain_infeasibility(&config).unwrap();
        assert_eq!(report.classes, 1, "no refinement is possible at all");
        assert_eq!(report.twins[0].members.len(), 5);
        // witness pair (0, 1): an end and an interior node — no
        // automorphism maps them (degrees differ), so no certificate.
        assert!(report.twins[0].automorphism.is_none());
    }

    #[test]
    fn large_configs_skip_certificate_search() {
        let config = Configuration::with_uniform_tags(generators::cycle(12), 0).unwrap();
        let report = explain_infeasibility(&config).unwrap();
        assert!(
            report.twins[0].automorphism.is_none(),
            "n > 8: search skipped"
        );
        assert!(report.render().contains("no automorphism certificate"));
    }
}
