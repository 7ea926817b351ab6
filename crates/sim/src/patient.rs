//! The patient-DRIP transform (paper Lemma 3.12).
//!
//! A **patient** DRIP is one under which no node transmits in global rounds
//! `0..=σ`; since all tags lie in that window, every node then wakes
//! spontaneously, which makes local→global clock conversion reliable
//! (Proposition 2.1). Lemma 3.12 shows feasibility never depends on
//! impatience: given any DRIP `D` that solves leader election on `G`, the
//! transform below yields a patient DRIP `D_pat` that also solves it.
//!
//! The construction, from the paper: each node listens for
//! `s_w = min(σ, rcv_w)` local rounds (`rcv_w` = first local round in which
//! a *message* is received — collisions don't count), then runs `D` on the
//! history suffix starting at `s_w`, so that `D` sees `H[s_w]` as its
//! wake-up entry: a `(M)` entry replays a forced wake-up, a `(∅)` entry a
//! spontaneous one.
//!
//! # Erratum: the boundary entry
//!
//! The paper feeds `H[s_w]` to `D` verbatim. There is one corner case where
//! that entry is not a legal wake-up observation: if, in the original
//! execution, **two or more neighbours of `w` transmit exactly in `w`'s
//! spontaneous wake-up round**, then `w` (asleep — noise does not wake a
//! node) records `H_D[0] = (∅)`, while in the patient execution `w` is
//! already awake and *listening* at the corresponding round `s_w = σ` and
//! records `(∗)`. Feeding `(∗)` as a wake-up entry would let `D` diverge
//! from its original behaviour, breaking Claim 2(3) of the lemma. We
//! therefore sanitize a collision at the boundary to `(∅)` — exactly the
//! observation `w` had in the original execution. (A boundary collision can
//! only occur with `s_w = σ`, i.e. for spontaneously-woken nodes, so the
//! substitution is always faithful; see `boundary_collision_is_sanitized`.)

use crate::drip::{DripFactory, DripNode};
use crate::history::{History, HistoryView};
use crate::msg::Action;

/// Factory wrapping an inner DRIP into its patient version for span `σ`.
///
/// The span is per-configuration knowledge, which is exactly what the
/// paper's dedicated-algorithm setting grants.
pub struct PatientFactory<F> {
    inner: F,
    sigma: u64,
}

impl<F: DripFactory> PatientFactory<F> {
    /// Wraps `inner` for a configuration of span `sigma`.
    pub fn new(inner: F, sigma: u64) -> PatientFactory<F> {
        PatientFactory { inner, sigma }
    }
}

impl<F: DripFactory> DripFactory for PatientFactory<F> {
    fn spawn(&self) -> Box<dyn DripNode> {
        Box::new(PatientNode {
            inner: self.inner.spawn(),
            sigma: self.sigma,
            inner_hist: History::new(),
            started: false,
            s: 0,
            scanned: 0,
        })
    }

    fn name(&self) -> String {
        format!("patient(σ={}, {})", self.sigma, self.inner.name())
    }
}

struct PatientNode {
    inner: Box<dyn DripNode>,
    sigma: u64,
    /// The history replayed into the inner DRIP: `H[s ..]`.
    inner_hist: History,
    started: bool,
    /// `s_w` once determined.
    s: usize,
    /// Message-free prefix already scanned for `rcv`: entries
    /// `H[..scanned]` are known to hold no message, so each round only
    /// the new suffix is searched (keeps σ-long listening windows O(σ)
    /// total instead of O(σ²)).
    scanned: usize,
}

impl PatientNode {
    /// `rcv` restricted to the unscanned suffix (see `scanned`).
    fn first_message_from_cursor(&self, history: HistoryView<'_>) -> Option<usize> {
        history.as_slice()[self.scanned..]
            .iter()
            .position(|o| o.is_message())
            .map(|p| p + self.scanned)
    }
}

impl DripNode for PatientNode {
    fn decide(&mut self, history: HistoryView<'_>) -> Action {
        let i = history.len(); // current local round
        if !self.started {
            // `s = min(σ, rcv)` with `rcv` the first local round holding a
            // message. While neither bound is reached we are still inside
            // the listening window.
            let rcv = self.first_message_from_cursor(history);
            if rcv.is_none() {
                self.scanned = i;
            }
            match rcv {
                Some(rcv) if (rcv as u64) < self.sigma => self.s = rcv,
                _ if (i as u64) > self.sigma => self.s = self.sigma as usize,
                _ => return Action::Listen, // window end still unknown
            }
            self.started = true;
        }
        if i <= self.s {
            return Action::Listen;
        }
        // Replay the suffix H[s..i-1] into the inner DRIP incrementally;
        // the inner node then decides its local round i - s.
        while self.s + self.inner_hist.len() < i {
            let idx = self.s + self.inner_hist.len();
            let mut obs = history[idx];
            if idx == self.s && (obs.is_collision() || obs.is_noise()) {
                // Boundary sanitation (see module docs): in the original
                // execution the node was asleep under this collision and
                // woke spontaneously, observing (∅). Noise is sanitized the
                // same way so the inner DRIP's wake-up entry is always a
                // legal paper-model observation — (∅) or (M) — whatever
                // channel model the outer execution ran under (Lemma 3.12's
                // faithfulness guarantee itself is proved for the paper
                // model only).
                obs = crate::msg::Obs::Silence;
            }
            self.inner_hist.push(obs);
        }
        self.inner.decide(self.inner_hist.view())
    }

    fn quiet_until(&self, history: HistoryView<'_>) -> Option<u64> {
        let i = history.len() as u64;
        if !self.started {
            // A message may already sit in the un-processed suffix (the
            // window end is then about to be resolved): no claim. With
            // continued silence `rcv` never fires, so the node listens
            // through local round σ and hands σ+1 to the inner DRIP.
            if self.first_message_from_cursor(history).is_some() {
                return None;
            }
            return (i <= self.sigma).then_some(self.sigma + 1);
        }
        // The inner DRIP took over at `s`. Its view lags the outer history
        // by the entries `decide` has not replayed yet; the claim is only
        // valid if that backlog is pure silence (anything else could
        // change the inner node's mind before the horizon).
        let replayed = self.s + self.inner_hist.len();
        if history.as_slice()[replayed..]
            .iter()
            .any(|o| !o.is_silence())
        {
            return None;
        }
        // Inner local round = outer local round − s.
        self.inner
            .quiet_until(self.inner_hist.view())
            .map(|q| q.saturating_add(self.s as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drip::{PureFactory, WaitThenTransmitFactory};
    use crate::engine::RunOpts;
    use crate::model::ModelKind;
    use crate::msg::{Msg, Obs};
    use radio_graph::{generators, Configuration};

    #[test]
    fn no_transmission_before_sigma() {
        // Inner DRIP transmits immediately; the patient wrapper must hold
        // every node silent through global round σ (Claim 1 of Lemma 3.12).
        let tags = vec![0, 3, 7, 2, 7];
        let sigma = 7;
        let c = Configuration::new(generators::path(5), tags).unwrap();
        let inner = WaitThenTransmitFactory {
            wait: 0,
            msg: Msg(1),
            lifetime: 30,
        };
        let ex = ModelKind::default()
            .run(
                &c,
                &PatientFactory::new(inner, sigma),
                RunOpts::default().traced(),
            )
            .unwrap();
        let trace = ex.trace.as_ref().unwrap();
        for e in &trace.events {
            if !e.transmitters.is_empty() {
                assert!(e.round > sigma, "transmission at round {} ≤ σ", e.round);
            }
        }
        // and every node woke spontaneously, at its own tag
        for v in 0..5u32 {
            assert!(ex.woke_spontaneously(v));
            assert_eq!(ex.wake_round[v as usize], c.tag(v));
        }
    }

    #[test]
    fn suffix_matches_inner_execution_when_tags_already_patient() {
        // With all tags equal to 0 and σ = 0, the wrapper is the identity:
        // the executions of D and patient(D) coincide exactly.
        let c = Configuration::new(generators::cycle(4), vec![0; 4]).unwrap();
        let inner = || WaitThenTransmitFactory {
            wait: 2,
            msg: Msg(5),
            lifetime: 9,
        };
        let plain = ModelKind::default()
            .run(&c, &inner(), RunOpts::default())
            .unwrap();
        let wrapped = ModelKind::default()
            .run(&c, &PatientFactory::new(inner(), 0), RunOpts::default())
            .unwrap();
        assert_eq!(plain.histories, wrapped.histories);
        assert_eq!(plain.done_round, wrapped.done_round);
    }

    #[test]
    fn shifted_execution_reproduces_inner_histories() {
        // Lemma 3.12 Claim 2(3): for every node w, the suffix of w's
        // patient history starting at s_w equals w's history under D.
        // Use a path with distinct tags so the inner run has real traffic.
        let tags = vec![1, 0, 2, 0];
        let sigma = 2u64;
        let c = Configuration::new(generators::path(4), tags).unwrap();
        let inner = || WaitThenTransmitFactory {
            wait: 1,
            msg: Msg(3),
            lifetime: 12,
        };

        let plain = ModelKind::default()
            .run(&c, &inner(), RunOpts::default())
            .unwrap();
        let wrapped = ModelKind::default()
            .run(&c, &PatientFactory::new(inner(), sigma), RunOpts::default())
            .unwrap();

        for v in 0..4u32 {
            let vh = wrapped.history(v);
            // s_w = wake-round difference: in the patient run node v woke at
            // tag(v); in the plain run at plain.wake_round[v]. Claim 2(2):
            // s_w = wake_plain - tag + σ.
            let s = (plain.wake_round[v as usize] + sigma - c.tag(v)) as usize;
            let inner_len = plain.history(v).len();
            assert!(vh.len() >= s + inner_len, "node {v}: suffix too short");
            // Compare modulo the boundary sanitation: a collision recorded
            // at H[s] corresponds to (∅) in the plain run (the node was
            // asleep under it) — exactly the erratum in the module docs.
            let mut suffix: Vec<Obs> = vh.as_slice()[s..s + inner_len].to_vec();
            if suffix[0].is_collision() {
                suffix[0] = Obs::Silence;
            }
            assert_eq!(
                &suffix,
                plain.history(v).as_slice(),
                "node {v}: suffix mismatch"
            );
        }
        // This particular workload exercises the boundary case: node 2's
        // neighbours both transmit exactly in node 2's tag round of the
        // plain run, so the patient history really records (∗) at s.
        let s2 = (plain.wake_round[2] + sigma - c.tag(2)) as usize;
        assert!(
            wrapped.history(2)[s2].is_collision(),
            "expected the erratum case to trigger"
        );
        assert!(plain.history(2)[0].is_silence());
    }

    #[test]
    fn boundary_collision_is_sanitized() {
        // Feed a PatientNode a history with a collision exactly at s = σ:
        // the inner DRIP must see (∅) as its wake-up entry, not (∗).
        let f = PatientFactory::new(
            PureFactory::new("probe", |h: HistoryView| {
                assert!(
                    !h[0].is_collision(),
                    "inner DRIP must never see a collision wake-up entry"
                );
                if h[0].is_silence() {
                    Action::Transmit(Msg(42))
                } else {
                    Action::Listen
                }
            }),
            2,
        );
        let mut node = f.spawn();
        let mut h = History::from_entries(vec![Obs::Silence]);
        assert_eq!(node.decide(h.view()), Action::Listen); // i=1 ≤ σ
        h.push(Obs::Silence);
        assert_eq!(node.decide(h.view()), Action::Listen); // i=2 = σ
        h.push(Obs::Collision); // H[2] = (∗) at the boundary s=σ=2
                                // i=3 > σ → s=2; inner round 1 sees sanitized (∅) → transmits
        assert_eq!(node.decide(h.view()), Action::Transmit(Msg(42)));
    }

    #[test]
    fn collision_before_first_message_is_skipped() {
        // A PatientNode that observes a collision before any message keeps
        // listening: collisions do not set rcv. Drive the node directly.
        let f = PatientFactory::new(
            PureFactory::new("immediate", |_h: HistoryView| Action::Transmit(Msg(9))),
            5,
        );
        let mut node = f.spawn();
        // rounds 1..: silence, collision, silence … no message
        let mut h = History::from_entries(vec![Obs::Silence]);
        assert_eq!(node.decide(h.view()), Action::Listen); // i=1 ≤ σ
        h.push(Obs::Collision);
        assert_eq!(node.decide(h.view()), Action::Listen); // i=2, collision ignored
        h.push(Obs::Silence);
        h.push(Obs::Silence);
        h.push(Obs::Silence);
        assert_eq!(node.decide(h.view()), Action::Listen); // i=5 = σ
        h.push(Obs::Silence);
        // i=6 > σ → s=5, inner round 1 → inner transmits immediately
        assert_eq!(node.decide(h.view()), Action::Transmit(Msg(9)));
    }

    #[test]
    fn early_message_starts_inner_at_rcv() {
        // message at local round 2 < σ=9 → s=2; inner sees H[2] = (M) as
        // its wake-up entry.
        let f = PatientFactory::new(
            PureFactory::new("probe", |h: HistoryView| {
                // inner: transmit iff its wake-up entry is a message
                if h[0].is_message() {
                    Action::Transmit(Msg(7))
                } else {
                    Action::Listen
                }
            }),
            9,
        );
        let mut node = f.spawn();
        let mut h = History::from_entries(vec![Obs::Silence]);
        assert_eq!(node.decide(h.view()), Action::Listen);
        h.push(Obs::Silence);
        assert_eq!(node.decide(h.view()), Action::Listen);
        h.push(Obs::Heard(Msg(1))); // local round 2 = rcv
                                    // i = 3 > s = 2 → inner round 1 with H'[0] = (M) → transmit
        assert_eq!(node.decide(h.view()), Action::Transmit(Msg(7)));
    }

    #[test]
    fn quiet_claim_covers_the_listening_window_then_delegates() {
        let f = PatientFactory::new(
            WaitThenTransmitFactory {
                wait: 2,
                msg: Msg(1),
                lifetime: 10,
            },
            6,
        );
        let mut node = f.spawn();
        // pre-window: committed through σ, handing round σ+1 to the inner
        let h = History::from_entries(vec![Obs::Silence]);
        assert_eq!(node.quiet_until(h.view()), Some(7));
        // an un-processed message voids the claim until decide runs
        let hm = History::from_entries(vec![Obs::Silence, Obs::Heard(Msg(3))]);
        assert_eq!(node.quiet_until(hm.view()), None);
        // drive the window to completion with silence: inner starts at
        // s = σ = 6; its wait=2 pins the transmit at inner round 3 = outer 9
        let mut h = History::from_entries(vec![Obs::Silence; 7]);
        assert_eq!(node.decide(h.view()), Action::Listen); // i=7 > σ: inner round 1
        h.push(Obs::Silence);
        assert_eq!(node.quiet_until(h.view()), Some(9), "inner 3 + s 6");
        assert_eq!(node.decide(h.view()), Action::Listen); // inner round 2
        h.push(Obs::Silence);
        assert_eq!(node.decide(h.view()), Action::Transmit(Msg(1))); // outer 9
        h.push(Obs::Silence);
        // right after the transmission the inner view still lags: no claim
        assert_eq!(node.quiet_until(h.view()), None);
        assert_eq!(node.decide(h.view()), Action::Listen); // inner round 4
        h.push(Obs::Silence);
        // post-transmission: quiet until inner termination (10 + s)
        assert_eq!(node.quiet_until(h.view()), Some(16));
    }

    #[test]
    fn factory_name_mentions_sigma_and_inner() {
        let f = PatientFactory::new(
            WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(1),
                lifetime: 2,
            },
            4,
        );
        assert!(f.name().contains("σ=4"));
        assert!(f.name().contains("wait-then-transmit"));
    }
}
