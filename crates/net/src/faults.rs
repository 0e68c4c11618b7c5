//! The Byzantine network adversary.
//!
//! Recipe's fault model places the entire network (and the untrusted host around the
//! enclave) under adversarial control (paper §3.1, fault and threat model): messages
//! may be delayed, dropped, reordered, duplicated, corrupted or replayed. The
//! [`NetworkFaultInjector`] realizes that adversary for the discrete-event
//! simulator; integration tests use it to show that Recipe's
//! authentication and non-equivocation layers neutralize every injected attack.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::types::{NodeId, WireMessage};

/// Probabilities (0.0–1.0) for each adversarial action, evaluated per message.
///
/// Actions are mutually exclusive per message and evaluated in the order
/// drop → tamper → duplicate → replay; anything left over is delivered untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability the message is silently dropped.
    pub drop_probability: f64,
    /// Probability the payload is corrupted before delivery.
    pub tamper_probability: f64,
    /// Probability the message is delivered twice.
    pub duplicate_probability: f64,
    /// Probability a previously observed message on the same channel is replayed
    /// alongside this one.
    pub replay_probability: f64,
    /// Extra delivery delay (nanoseconds) applied uniformly at random up to this
    /// bound; only meaningful to transports that model time (the simulator).
    pub max_extra_delay_ns: u64,
    /// How many past messages the injector keeps as replay material. Larger
    /// buffers let the adversary replay older traffic (stressing the
    /// non-equivocation window); replay-heavy scenarios tune this up.
    pub capture_limit: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_probability: 0.0,
            tamper_probability: 0.0,
            duplicate_probability: 0.0,
            replay_probability: 0.0,
            max_extra_delay_ns: 0,
            capture_limit: 256,
        }
    }
}

impl FaultPlan {
    /// A benign network: no faults at all.
    pub fn benign() -> Self {
        FaultPlan::default()
    }

    /// A mildly lossy but honest network (partial synchrony with message loss).
    pub fn lossy(drop_probability: f64) -> Self {
        FaultPlan {
            drop_probability,
            ..FaultPlan::default()
        }
    }

    /// An actively Byzantine network that tampers, replays and duplicates traffic.
    pub fn byzantine() -> Self {
        FaultPlan {
            drop_probability: 0.02,
            tamper_probability: 0.05,
            duplicate_probability: 0.05,
            replay_probability: 0.05,
            max_extra_delay_ns: 200_000,
            ..FaultPlan::default()
        }
    }

    /// True if any per-message adversarial action (drop/tamper/duplicate/
    /// replay) has non-zero probability. A delay-only plan has no message
    /// faults, yet it still perturbs timing.
    pub(crate) fn has_message_faults(&self) -> bool {
        self.drop_probability > 0.0
            || self.tamper_probability > 0.0
            || self.duplicate_probability > 0.0
            || self.replay_probability > 0.0
    }
}

/// One scheduled crash (and optional restart) of a node, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEntry {
    /// The node that fails.
    pub node: NodeId,
    /// Virtual-clock instant of the crash.
    pub crash_at_ns: u64,
    /// Virtual-clock instant of the restart, or `None` for crash-stop (the
    /// node never returns). Restarts are rollback-protected: the recovering
    /// replica rehydrates only from sealed, counter-verified state.
    pub recover_at_ns: Option<u64>,
}

/// A deterministic, virtual-clock crash schedule: which nodes fail when, and
/// when (if ever) they restart.
///
/// Unlike the probabilistic [`FaultPlan`], the crash schedule is exact — the
/// same plan under the same seed produces a bit-identical run, which is what
/// lets failover experiments live under the replay/regression gates. An empty
/// plan injects nothing and leaves the event stream untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// The scheduled crash/recover pairs.
    pub entries: Vec<CrashEntry>,
}

impl CrashPlan {
    /// A plan with no crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// Adds a crash-stop entry: `node` fails at `crash_at_ns` and never
    /// returns.
    pub fn crash(mut self, node: NodeId, crash_at_ns: u64) -> Self {
        self.entries.push(CrashEntry {
            node,
            crash_at_ns,
            recover_at_ns: None,
        });
        self
    }

    /// Adds a crash-recovery entry: `node` fails at `crash_at_ns` and
    /// restarts (rollback-protected) at `recover_at_ns`.
    ///
    /// # Panics
    /// Panics if `recover_at_ns <= crash_at_ns` — a node cannot restart
    /// before it failed.
    pub fn crash_recover(mut self, node: NodeId, crash_at_ns: u64, recover_at_ns: u64) -> Self {
        assert!(
            recover_at_ns > crash_at_ns,
            "recovery must come after the crash"
        );
        self.entries.push(CrashEntry {
            node,
            crash_at_ns,
            recover_at_ns: Some(recover_at_ns),
        });
        self
    }
}

/// What the adversary decided to do with one frame
/// ([`NetworkFaultInjector::decide_frame`]): it hands back only what it made
/// or kept — the corrupted payload, the captured older message — and the
/// caller goes on holding the frame itself.
#[derive(Debug, PartialEq)]
pub enum FrameFault {
    /// Deliver unchanged.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver this corrupted copy of the payload instead of the original.
    Tamper(Vec<u8>),
    /// Deliver the original twice.
    Duplicate,
    /// Deliver the original and additionally replay this older captured
    /// message.
    Replay(WireMessage),
}

/// Stateful fault injector: samples the [`FaultPlan`] with a deterministic RNG and,
/// under a plan that replays, keeps a bounded capture buffer of past traffic to
/// source replays from.
#[derive(Debug)]
pub struct NetworkFaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    captured: VecDeque<WireMessage>,
}

impl NetworkFaultInjector {
    /// Creates an injector with the given plan and RNG seed.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        NetworkFaultInjector {
            plan,
            rng: StdRng::seed_from_u64(seed),
            captured: VecDeque::new(),
        }
    }

    /// Samples an extra delivery delay in nanoseconds.
    pub fn sample_extra_delay_ns(&mut self) -> u64 {
        if self.plan.max_extra_delay_ns == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.plan.max_extra_delay_ns)
        }
    }

    /// Decides the fate of the frame `payload` on its way from `src` to
    /// `dst`, the network's `wire_id`-th. The frame is copied only when the
    /// adversary keeps it — as replay material, or to corrupt it.
    pub fn decide_frame(
        &mut self,
        wire_id: u64,
        src: NodeId,
        dst: NodeId,
        payload: &[u8],
    ) -> FrameFault {
        // Capture honest traffic so later replays have material to work with —
        // only under a plan that can replay: nothing else reads the buffer,
        // and a copy of every frame is not free. Capturing draws nothing from
        // the RNG, so skipping it moves no decision. The buffer bound is a
        // plan knob: replay-heavy scenarios widen it to reach further into
        // the past.
        if self.plan.replay_probability > 0.0 {
            self.captured.push_back(WireMessage {
                wire_id,
                src,
                dst,
                payload: payload.to_vec(),
            });
            while self.captured.len() > self.plan.capture_limit.max(1) {
                self.captured.pop_front();
            }
        }

        // Fast path keyed on the per-message probabilities specifically (not
        // on delay too): a delay-only plan must not
        // consume a decision roll here, or its delay samples would diverge
        // from the pre-crash-plane RNG sequence.
        if !self.plan.has_message_faults() {
            return FrameFault::Deliver;
        }
        let roll: f64 = self.rng.gen();
        let mut threshold = self.plan.drop_probability;
        if roll < threshold {
            return FrameFault::Drop;
        }
        threshold += self.plan.tamper_probability;
        if roll < threshold {
            return FrameFault::Tamper(self.corrupt(payload));
        }
        threshold += self.plan.duplicate_probability;
        if roll < threshold {
            return FrameFault::Duplicate;
        }
        threshold += self.plan.replay_probability;
        if roll < threshold {
            if let Some(older) = self.pick_replay(wire_id, src, dst) {
                return FrameFault::Replay(older);
            }
        }
        FrameFault::Deliver
    }

    fn corrupt(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut corrupted = payload.to_vec();
        if corrupted.is_empty() {
            corrupted.push(0xFF);
        } else {
            let idx = self.rng.gen_range(0..corrupted.len());
            corrupted[idx] ^= 0xFF;
        }
        corrupted
    }

    fn pick_replay(&mut self, wire_id: u64, src: NodeId, dst: NodeId) -> Option<WireMessage> {
        // Prefer an older message on the same channel; a replay on a different
        // channel would be trivially rejected by addressing alone.
        let same_channel = |m: &&WireMessage| m.src == src && m.dst == dst && m.wire_id != wire_id;
        let candidates = self.captured.iter().filter(same_channel).count();
        if candidates == 0 {
            return None;
        }
        let idx = self.rng.gen_range(0..candidates);
        self.captured.iter().filter(same_channel).nth(idx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The injector's decision on frame `id`, `body`, of the channel 1 → 2.
    fn fate(injector: &mut NetworkFaultInjector, id: u64, body: &[u8]) -> FrameFault {
        injector.decide_frame(id, NodeId(1), NodeId(2), body)
    }

    #[test]
    fn benign_plan_always_delivers() {
        let mut injector = NetworkFaultInjector::new(FaultPlan::benign(), 1);
        for i in 0..100 {
            assert_eq!(fate(&mut injector, i, b"x"), FrameFault::Deliver);
        }
        assert_eq!(injector.sample_extra_delay_ns(), 0);
    }

    #[test]
    fn full_drop_plan_always_drops() {
        let mut injector = NetworkFaultInjector::new(FaultPlan::lossy(1.0), 1);
        assert_eq!(fate(&mut injector, 1, b"x"), FrameFault::Drop);
    }

    #[test]
    fn tamper_changes_payload() {
        let plan = FaultPlan {
            tamper_probability: 1.0,
            ..FaultPlan::default()
        };
        let mut injector = NetworkFaultInjector::new(plan, 2);
        match fate(&mut injector, 1, b"payload") {
            FrameFault::Tamper(corrupted) => assert_ne!(corrupted, b"payload"),
            other => panic!("expected Tamper, got {other:?}"),
        }
        // Tampering an empty payload still produces a non-empty corruption.
        match fate(&mut injector, 2, b"") {
            FrameFault::Tamper(corrupted) => assert!(!corrupted.is_empty()),
            other => panic!("expected Tamper, got {other:?}"),
        }
    }

    #[test]
    fn replay_requires_prior_traffic_on_channel() {
        let plan = FaultPlan {
            replay_probability: 1.0,
            ..FaultPlan::default()
        };
        let mut injector = NetworkFaultInjector::new(plan, 2);
        // First message: nothing to replay yet → falls through to Deliver.
        assert_eq!(fate(&mut injector, 1, b"a"), FrameFault::Deliver);
        // Second message: the first can now be replayed.
        match fate(&mut injector, 2, b"b") {
            FrameFault::Replay(older) => assert_eq!(older.payload, b"a"),
            other => panic!("expected Replay, got {other:?}"),
        }
    }

    /// Two frames of one channel that share a wire id are one frame to the
    /// replay picker: neither is replayed as the other, and a later frame
    /// with an id of its own replays one of them.
    #[test]
    fn frames_sharing_a_wire_id_are_never_replayed_as_each_other() {
        let plan = FaultPlan {
            replay_probability: 1.0,
            ..FaultPlan::default()
        };
        let mut injector = NetworkFaultInjector::new(plan, 4);
        assert_eq!(fate(&mut injector, 7, b"first"), FrameFault::Deliver);
        assert_eq!(fate(&mut injector, 7, b"second"), FrameFault::Deliver);
        match fate(&mut injector, 8, b"third") {
            FrameFault::Replay(older) => {
                assert_eq!(older.wire_id, 7);
                assert!(older.payload == b"first" || older.payload == b"second");
            }
            other => panic!("expected Replay, got {other:?}"),
        }
    }

    #[test]
    fn byzantine_plan_mixes_decisions_deterministically() {
        let mut a = NetworkFaultInjector::new(FaultPlan::byzantine(), 42);
        let mut b = NetworkFaultInjector::new(FaultPlan::byzantine(), 42);
        for i in 0..200 {
            assert_eq!(fate(&mut a, i, b"x"), fate(&mut b, i, b"x"));
        }
    }

    #[test]
    fn delay_sampling_is_bounded() {
        let plan = FaultPlan {
            max_extra_delay_ns: 1_000,
            ..FaultPlan::default()
        };
        let mut injector = NetworkFaultInjector::new(plan, 5);
        for _ in 0..100 {
            assert!(injector.sample_extra_delay_ns() <= 1_000);
        }
    }

    #[test]
    fn delay_only_plan_has_no_message_faults() {
        let plan = FaultPlan {
            max_extra_delay_ns: 1_000,
            ..FaultPlan::default()
        };
        assert!(!plan.has_message_faults());
        assert!(!FaultPlan::benign().has_message_faults());
        assert!(FaultPlan::byzantine().has_message_faults());
    }

    #[test]
    fn capture_limit_bounds_replay_material() {
        // With a capture window of 1 the only replay candidate on the channel
        // is the previous message (the current one is excluded by wire_id).
        let plan = FaultPlan {
            replay_probability: 1.0,
            capture_limit: 1,
            ..FaultPlan::default()
        };
        let mut injector = NetworkFaultInjector::new(plan, 9);
        assert_eq!(fate(&mut injector, 1, b"a"), FrameFault::Deliver);
        for i in 2..20u64 {
            match fate(&mut injector, i, format!("m{i}").as_bytes()) {
                // The window held only the immediately preceding message.
                FrameFault::Replay(older) => assert_eq!(older.wire_id, i - 1),
                FrameFault::Deliver => {}
                other => panic!("expected Replay or Deliver, got {other:?}"),
            }
        }
    }

    fn byzantine_without_replay() -> FaultPlan {
        FaultPlan {
            replay_probability: 0.0,
            ..FaultPlan::byzantine()
        }
    }

    /// Folds a run of decisions — which action, which older frame a replay
    /// picked, what a tamper left — into one number.
    fn fingerprint(plan: FaultPlan, seed: u64) -> u64 {
        let mut injector = NetworkFaultInjector::new(plan, seed);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for byte in bytes {
                hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..2_000u64 {
            // Three channels, so a replay has same-channel and foreign frames
            // to tell apart.
            let dst = NodeId(2 + i % 3);
            match injector.decide_frame(i, NodeId(1), dst, &i.to_le_bytes()) {
                FrameFault::Deliver => fold(&[0]),
                FrameFault::Drop => fold(&[1]),
                FrameFault::Tamper(corrupted) => {
                    fold(&[2]);
                    fold(&corrupted);
                }
                FrameFault::Duplicate => fold(&[3]),
                FrameFault::Replay(older) => {
                    fold(&[4]);
                    fold(&older.wire_id.to_le_bytes());
                }
            }
            fold(&injector.sample_extra_delay_ns().to_le_bytes());
        }
        hash
    }

    /// Capturing is skipped when nothing can be replayed, and it never drew
    /// from the RNG: the recorded numbers are those of the injector that
    /// captured every frame under every plan.
    #[test]
    fn decisions_per_seed_are_those_of_the_always_capturing_injector() {
        let narrow_replay = FaultPlan {
            replay_probability: 0.5,
            capture_limit: 4,
            ..FaultPlan::default()
        };
        assert_eq!(
            fingerprint(FaultPlan::byzantine(), 42),
            0xd88b_f0d7_c7d2_3b16
        );
        assert_eq!(
            fingerprint(FaultPlan::byzantine(), 43),
            0xe24f_1254_94b7_63fd
        );
        assert_eq!(fingerprint(narrow_replay, 7), 0xcf4d_6c49_f27e_136e);
        assert_eq!(
            fingerprint(byzantine_without_replay(), 42),
            0xa091_d67c_d0fd_e4df
        );
    }

    #[test]
    fn a_plan_without_replay_holds_no_captured_payloads() {
        for plan in [
            FaultPlan::benign(),
            FaultPlan::lossy(0.1),
            byzantine_without_replay(),
        ] {
            let mut injector = NetworkFaultInjector::new(plan, 3);
            for i in 0..100 {
                fate(&mut injector, i, b"payload");
            }
            assert!(injector.captured.is_empty());
        }
        let mut injector = NetworkFaultInjector::new(FaultPlan::byzantine(), 3);
        for i in 0..1_000 {
            fate(&mut injector, i, b"payload");
        }
        assert_eq!(injector.captured.len(), FaultPlan::default().capture_limit);
    }

    #[test]
    fn crash_plan_builders_and_ordering() {
        let plan = CrashPlan::none()
            .crash_recover(NodeId(0), 1_000, 5_000)
            .crash(NodeId(2), 3_000);
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.entries[0].recover_at_ns, Some(5_000));
        assert_eq!(plan.entries[1].recover_at_ns, None);
        assert!(CrashPlan::none().entries.is_empty());
        // Round-trips through serde, which the deployment spec that carries
        // it derives.
        let json = serde_json::to_vec(&plan).unwrap();
        let back: CrashPlan = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    #[should_panic(expected = "recovery must come after the crash")]
    fn crash_plan_rejects_recovery_before_crash() {
        let _ = CrashPlan::none().crash_recover(NodeId(0), 5_000, 5_000);
    }

    proptest! {
        #[test]
        fn decisions_cover_only_known_variants(seed in any::<u64>(), n in 1usize..100) {
            let mut injector = NetworkFaultInjector::new(FaultPlan::byzantine(), seed);
            let mut delivered = 0usize;
            for i in 0..n {
                match fate(&mut injector, i as u64, b"payload") {
                    FrameFault::Deliver | FrameFault::Duplicate => delivered += 1,
                    FrameFault::Drop => {}
                    FrameFault::Tamper(corrupted) => prop_assert_ne!(corrupted, b"payload"),
                    FrameFault::Replay(older) => prop_assert!(older.wire_id < i as u64),
                }
            }
            // Sanity: the adversary cannot create messages out of thin air.
            prop_assert!(delivered <= n);
        }
    }
}
