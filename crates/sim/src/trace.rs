//! Optional round-by-round event recording.
//!
//! Tracing is off by default (the hot loop stays allocation-free); when
//! [`crate::RunOpts::record_trace`] is set, the engine captures a
//! [`RoundEvent`] for every *eventful* round (any transmission, wake-up, or
//! termination) so examples and debugging sessions can print a faithful
//! narrative of an execution.

use radio_graph::NodeId;

use crate::msg::{Msg, Obs};

/// Everything that happened in one global round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundEvent {
    /// Global round number.
    pub round: u64,
    /// Nodes that transmitted, with their messages.
    pub transmitters: Vec<(NodeId, Msg)>,
    /// Nodes that woke up this round, with their `H[0]` observation
    /// (`Heard`/`Noise` = forced wake-up, `Silence` = spontaneous).
    pub woke: Vec<(NodeId, Obs)>,
    /// Listeners that perceived a collision (or, under carrier-sensing
    /// models, noise).
    pub collisions: Vec<NodeId>,
    /// Listeners that received a message, with the message.
    pub received: Vec<(NodeId, Msg)>,
    /// Nodes that decided to terminate this round.
    pub terminated: Vec<NodeId>,
}

impl RoundEvent {
    /// True when nothing happened (such rounds are not recorded).
    pub fn is_quiet(&self) -> bool {
        self.transmitters.is_empty()
            && self.woke.is_empty()
            && self.collisions.is_empty()
            && self.received.is_empty()
            && self.terminated.is_empty()
    }

    /// One-line rendering, e.g.
    /// `r=    5 | tx: v1'1' v2'1' | woke: v0(forced) | rx: - | coll: v3 | done: -`.
    pub fn render(&self) -> String {
        fn list<T: std::fmt::Display>(xs: &[T]) -> String {
            if xs.is_empty() {
                "-".to_string()
            } else {
                xs.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        }
        let tx: Vec<String> = self
            .transmitters
            .iter()
            .map(|(v, m)| format!("v{v}{m}"))
            .collect();
        let woke: Vec<String> = self
            .woke
            .iter()
            .map(|(v, o)| match o {
                Obs::Heard(_) | Obs::Noise => format!("v{v}(forced)"),
                _ => format!("v{v}(spont)"),
            })
            .collect();
        let rx: Vec<String> = self
            .received
            .iter()
            .map(|(v, m)| format!("v{v}←{m}"))
            .collect();
        let coll: Vec<String> = self.collisions.iter().map(|v| format!("v{v}")).collect();
        let done: Vec<String> = self.terminated.iter().map(|v| format!("v{v}")).collect();
        format!(
            "r={:>5} | tx: {} | woke: {} | rx: {} | coll: {} | done: {}",
            self.round,
            list(&tx),
            list(&woke),
            list(&rx),
            list(&coll),
            list(&done)
        )
    }
}

/// The recorded eventful rounds of an execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events, in round order; quiet rounds are omitted.
    pub events: Vec<RoundEvent>,
}

impl Trace {
    /// Multi-line rendering of the whole trace.
    pub fn render(&self) -> String {
        self.events
            .iter()
            .map(RoundEvent::render)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The event for a specific round, if that round was eventful.
    ///
    /// Events are stored in strictly increasing round order (at most one
    /// per round), so the lookup is a binary search — which matters under
    /// the time-leap scheduler, where recorded round numbers are sparse
    /// (a trace may span millions of global rounds in a handful of
    /// events).
    pub fn round(&self, r: u64) -> Option<&RoundEvent> {
        self.events
            .binary_search_by_key(&r, |e| e.round)
            .ok()
            .map(|i| &self.events[i])
    }
}

/// Renders all node histories as a global-time matrix: one row per node,
/// one column per global round, `·` before wake-up / after termination,
/// `∅`/digit/`∗` for silence/message/collision. The go-to view for seeing
/// symmetric histories stay symmetric.
///
/// ```text
/// v0 t=2  · · ∅ ∅ 1 ∅ …
/// v1 t=0  ∅ ∅ ∅ 1 ∅ ∅ …
/// ```
pub fn render_history_matrix(execution: &crate::engine::Execution, tags: &[u64]) -> String {
    use std::fmt::Write as _;
    let n = execution.node_count();
    let rounds = execution.rounds;
    let mut out = String::new();
    for (v, &tag) in tags.iter().enumerate().take(n) {
        let wake = execution.wake_round[v];
        let _ = write!(out, "v{v:<3} t={tag:<4} ");
        for r in 0..rounds {
            if r < wake {
                out.push_str("· ");
                continue;
            }
            match execution.histories[v].get((r - wake) as usize) {
                None => out.push_str("· "),
                Some(crate::msg::Obs::Silence) => out.push_str("∅ "),
                Some(crate::msg::Obs::Heard(m)) => {
                    let _ = write!(out, "{} ", m.0 % 10);
                }
                Some(crate::msg::Obs::Collision) => out.push_str("∗ "),
                Some(crate::msg::Obs::Noise) => out.push_str("~ "),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_matrix_renders_rows_and_phases() {
        use crate::drip::WaitThenTransmitFactory;
        use crate::engine::RunOpts;
        use crate::model::ModelKind;
        let config =
            radio_graph::Configuration::new(radio_graph::generators::path(3), vec![0, 2, 2])
                .unwrap();
        let ex = ModelKind::default()
            .run(
                &config,
                &WaitThenTransmitFactory {
                    wait: 0,
                    msg: Msg(1),
                    lifetime: 5,
                },
                RunOpts::default(),
            )
            .unwrap();
        let matrix = render_history_matrix(&ex, config.tags());
        let lines: Vec<&str> = matrix.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("v0"));
        // node 1 woken by node 0's round-1 transmission: shows a `1` digit
        assert!(lines[1].contains('1'));
        // pre-wake rounds render as dots for late wakers
        assert!(lines[1].contains('·'));
    }

    #[test]
    fn quiet_detection() {
        let mut e = RoundEvent {
            round: 3,
            ..Default::default()
        };
        assert!(e.is_quiet());
        e.transmitters.push((1, Msg::ONE));
        assert!(!e.is_quiet());
    }

    #[test]
    fn render_contains_all_sections() {
        let e = RoundEvent {
            round: 5,
            transmitters: vec![(1, Msg::ONE)],
            woke: vec![(0, Obs::Heard(Msg::ONE)), (2, Obs::Silence)],
            collisions: vec![3],
            received: vec![(4, Msg::ONE)],
            terminated: vec![5],
        };
        let s = e.render();
        assert!(s.contains("v1'1'"));
        assert!(s.contains("v0(forced)"));
        assert!(s.contains("v2(spont)"));
        assert!(s.contains("v3"));
        assert!(s.contains("v4←'1'"));
        assert!(s.contains("done: v5"));
    }

    #[test]
    fn trace_lookup_by_round() {
        let t = Trace {
            events: vec![
                RoundEvent {
                    round: 1,
                    terminated: vec![0],
                    ..Default::default()
                },
                RoundEvent {
                    round: 4,
                    terminated: vec![1],
                    ..Default::default()
                },
            ],
        };
        assert!(t.round(1).is_some());
        assert!(t.round(2).is_none());
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn round_lookup_handles_sparse_round_numbers() {
        // Time-leap traces skip huge quiet stretches: lookups must work
        // before, between, at, and past the recorded rounds.
        let t = Trace {
            events: [0u64, 7, 1_000_000]
                .iter()
                .map(|&round| RoundEvent {
                    round,
                    terminated: vec![0],
                    ..Default::default()
                })
                .collect(),
        };
        assert_eq!(t.round(0).map(|e| e.round), Some(0));
        assert_eq!(t.round(7).map(|e| e.round), Some(7));
        assert_eq!(t.round(1_000_000).map(|e| e.round), Some(1_000_000));
        assert!(t.round(6).is_none());
        assert!(t.round(999_999).is_none());
        assert!(t.round(1_000_001).is_none());
    }
}
