//! The Byzantine network adversary.
//!
//! Recipe's fault model places the entire network (and the untrusted host around the
//! enclave) under adversarial control (paper §3.1, fault and threat model): messages
//! may be delayed, dropped, reordered, duplicated, corrupted or replayed. A
//! [`Link`] realizes that adversary for every frame the simulator moves between
//! enclaves; integration tests use it to show that Recipe's authentication and
//! non-equivocation layers neutralize every injected attack.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::types::{ChannelId, NodeId};

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
    /// How many past messages the link keeps as replay material. Larger
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
    fn has_message_faults(&self) -> bool {
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

/// What one frame sent over a [`Link`] becomes ([`Link::send`]).
#[derive(Debug)]
pub struct Landing {
    /// When the frame was due: sent, plus the latency and the delay drawn.
    pub due: u64,
    /// When the authentic frame lands; `None` if dropped or tampered with.
    pub frame_at: Option<u64>,
    /// The adversary's copy and when it lands, on the frame's own channel.
    pub copy: Option<(u64, Forged)>,
}

impl Landing {
    /// Delivers `wire`, the frame this landing is for, to the end `end`:
    /// `open` opens the authentic frame if it lands (where it lies, so a
    /// duplicate's bytes are taken first), then `refuses` says whether the
    /// end refused the adversary's copy, if any. Returns the opened frame
    /// and when it landed (`None`: lost or refused), and whether a copy was
    /// refused.
    pub fn open<W: AsRef<[u8]>, E, T>(
        self,
        wire: W,
        end: &mut E,
        open: impl FnOnce(&mut E, W) -> Option<T>,
        refuses: impl FnOnce(&mut E, &mut [u8]) -> bool,
    ) -> (Option<(T, u64)>, bool) {
        let mut copy = self.copy.map(|(_, forged)| match forged {
            Forged::Duplicate => wire.as_ref().to_vec(),
            Forged::Tampered(bytes) | Forged::Replayed(bytes) => bytes,
        });
        let landed = self.frame_at.and_then(|at| Some((open(end, wire)?, at)));
        let refused = copy.as_mut().is_some_and(|copy| refuses(end, copy));
        (landed, refused)
    }
}

/// A copy the adversary put on a link ([`Landing::copy`]).
#[derive(Debug, PartialEq)]
pub enum Forged {
    /// A corrupted copy of the frame, landing in its place.
    Tampered(Vec<u8>),
    /// The frame's own bytes once more, landing 1 ns before the frame.
    Duplicate,
    /// An older frame of the channel, landing 1 ns after the frame.
    Replayed(Vec<u8>),
}

/// The network every frame between enclaves crosses, in a group and between
/// groups: a fault plan's adversary on a deterministic RNG, with a bounded
/// capture of past frames (wire id, channel, bytes) to replay from.
#[derive(Debug)]
pub struct Link {
    plan: FaultPlan,
    rng: StdRng,
    captured: VecDeque<(u64, ChannelId, Vec<u8>)>,
    latency_ns: u64,
}

/// The adversary's decision on one frame ([`Link::decide_frame`]): how long
/// after it was due the authentic frame lands (`None`: it never does), and
/// the copy it made with its own lag.
type Fate = (Option<u64>, Option<(u64, Forged)>);

impl Link {
    /// A link of `latency_ns` under `plan`, its adversary seeded with `seed`.
    pub fn new(plan: FaultPlan, seed: u64, latency_ns: u64) -> Self {
        Link {
            plan,
            rng: StdRng::seed_from_u64(seed),
            captured: VecDeque::new(),
            latency_ns,
        }
    }

    /// Sends `bytes`, the link's `wire_id`-th frame, from `src` to `dst` at
    /// `sent_at`. The adversary's decision is drawn, then the extra delay,
    /// for every frame, dropped ones too.
    pub fn send(
        &mut self,
        wire_id: u64,
        src: NodeId,
        dst: NodeId,
        sent_at: u64,
        bytes: &[u8],
    ) -> Landing {
        let (frame_lag, copy) = self.decide_frame(wire_id, ChannelId::new(src, dst), bytes);
        let due = sent_at + self.latency_ns + self.sample_extra_delay_ns();
        Landing {
            due,
            frame_at: frame_lag.map(|lag| due + lag),
            copy: copy.map(|(lag, forged)| (due + lag, forged)),
        }
    }

    /// Samples an extra delivery delay in nanoseconds; draws nothing at a
    /// zero bound.
    fn sample_extra_delay_ns(&mut self) -> u64 {
        if self.plan.max_extra_delay_ns == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.plan.max_extra_delay_ns)
        }
    }

    /// Decides the fate of the frame `payload` on `channel`, the link's
    /// `wire_id`-th. The frame is copied only when the adversary keeps it —
    /// as replay material, or to corrupt it.
    fn decide_frame(&mut self, wire_id: u64, channel: ChannelId, payload: &[u8]) -> Fate {
        // Capture honest traffic so later replays have material to work with —
        // only under a plan that can replay: nothing else reads the buffer,
        // and a copy of every frame is not free. Capturing draws nothing from
        // the RNG, so skipping it moves no decision. The buffer bound is a
        // plan knob: replay-heavy scenarios widen it to reach further into
        // the past.
        if self.plan.replay_probability > 0.0 {
            self.captured
                .push_back((wire_id, channel, payload.to_vec()));
            while self.captured.len() > self.plan.capture_limit.max(1) {
                self.captured.pop_front();
            }
        }

        // A plan without message faults rolls nothing, so a delay-only
        // plan's RNG draws its delays alone.
        if !self.plan.has_message_faults() {
            return (Some(0), None);
        }
        let roll: f64 = self.rng.gen();
        let mut threshold = self.plan.drop_probability;
        if roll < threshold {
            return (None, None);
        }
        threshold += self.plan.tamper_probability;
        if roll < threshold {
            return (None, Some((0, Forged::Tampered(self.corrupt(payload)))));
        }
        threshold += self.plan.duplicate_probability;
        if roll < threshold {
            return (Some(1), Some((0, Forged::Duplicate)));
        }
        threshold += self.plan.replay_probability;
        if roll < threshold {
            if let Some(older) = self.pick_replay(wire_id, channel) {
                return (Some(0), Some((1, Forged::Replayed(older))));
            }
        }
        (Some(0), None)
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

    fn pick_replay(&mut self, wire_id: u64, channel: ChannelId) -> Option<Vec<u8>> {
        // Only an older frame of the same channel; a replay on a different
        // channel would be trivially rejected by addressing alone.
        let older = |&&(id, on, _): &&(u64, ChannelId, Vec<u8>)| on == channel && id != wire_id;
        let candidates = self.captured.iter().filter(older).count();
        if candidates == 0 {
            return None;
        }
        let idx = self.rng.gen_range(0..candidates);
        let (_, _, payload) = self.captured.iter().filter(older).nth(idx)?;
        Some(payload.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DELIVER: Fate = (Some(0), None);
    const DROP: Fate = (None, None);

    /// The adversary's decision on frame `id`, `body`, of the channel 1 → 2.
    fn fate(link: &mut Link, id: u64, body: &[u8]) -> Fate {
        link.decide_frame(id, ChannelId::new(NodeId(1), NodeId(2)), body)
    }

    #[test]
    fn benign_plan_always_delivers() {
        let mut link = Link::new(FaultPlan::benign(), 1, 0);
        for i in 0..100 {
            assert_eq!(fate(&mut link, i, b"x"), DELIVER);
        }
        assert_eq!(link.sample_extra_delay_ns(), 0);
    }

    #[test]
    fn full_drop_plan_always_drops() {
        let mut link = Link::new(FaultPlan::lossy(1.0), 1, 0);
        assert_eq!(fate(&mut link, 1, b"x"), DROP);
    }

    #[test]
    fn tamper_changes_payload() {
        let plan = FaultPlan {
            tamper_probability: 1.0,
            ..FaultPlan::default()
        };
        let mut link = Link::new(plan, 2, 0);
        match fate(&mut link, 1, b"payload") {
            (None, Some((0, Forged::Tampered(corrupted)))) => assert_ne!(corrupted, b"payload"),
            other => panic!("expected Tamper, got {other:?}"),
        }
        // Tampering an empty payload still produces a non-empty corruption.
        match fate(&mut link, 2, b"") {
            (None, Some((0, Forged::Tampered(corrupted)))) => assert!(!corrupted.is_empty()),
            other => panic!("expected Tamper, got {other:?}"),
        }
    }

    #[test]
    fn replay_requires_prior_traffic_on_channel() {
        let plan = FaultPlan {
            replay_probability: 1.0,
            ..FaultPlan::default()
        };
        let mut link = Link::new(plan, 2, 0);
        // First message: nothing to replay yet → falls through to Deliver.
        assert_eq!(fate(&mut link, 1, b"a"), DELIVER);
        // Second message: the first can now be replayed.
        match fate(&mut link, 2, b"b") {
            (Some(0), Some((1, Forged::Replayed(older)))) => assert_eq!(older, b"a"),
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
        let mut link = Link::new(plan, 4, 0);
        assert_eq!(fate(&mut link, 7, b"first"), DELIVER);
        assert_eq!(fate(&mut link, 7, b"second"), DELIVER);
        match fate(&mut link, 8, b"third") {
            (Some(0), Some((1, Forged::Replayed(older)))) => {
                assert!(older == b"first" || older == b"second")
            }
            other => panic!("expected Replay, got {other:?}"),
        }
    }

    #[test]
    fn byzantine_plan_mixes_decisions_deterministically() {
        let mut a = Link::new(FaultPlan::byzantine(), 42, 0);
        let mut b = Link::new(FaultPlan::byzantine(), 42, 0);
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
        let mut link = Link::new(plan, 5, 0);
        for _ in 0..100 {
            assert!(link.sample_extra_delay_ns() <= 1_000);
        }
    }

    /// Every frame is due within the plan's delay window after one latency,
    /// and whatever lands, lands at most 1 ns after it was due; a delay-only
    /// plan delivers every frame, alone, when it is due.
    #[test]
    fn every_landing_lies_within_the_delay_window() {
        const LATENCY: u64 = 5_000;
        let delay_only = FaultPlan {
            max_extra_delay_ns: 1_000,
            ..FaultPlan::default()
        };
        for plan in [FaultPlan::byzantine(), delay_only] {
            let mut link = Link::new(plan, 11, LATENCY);
            for i in 0..1_000u64 {
                let sent_at = 7 * i;
                let landing = link.send(i, NodeId(1), NodeId(2 + i % 2), sent_at, b"frame");
                let earliest = sent_at + LATENCY;
                assert!((earliest..=earliest + plan.max_extra_delay_ns).contains(&landing.due));
                let copy_at = landing.copy.as_ref().map(|(at, _)| *at);
                for at in landing.frame_at.into_iter().chain(copy_at) {
                    assert!((landing.due..=landing.due + 1).contains(&at));
                }
                if plan == delay_only {
                    assert_eq!((landing.frame_at, landing.copy), (Some(landing.due), None));
                }
            }
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
        let mut link = Link::new(plan, 9, 0);
        assert_eq!(fate(&mut link, 1, b"a"), DELIVER);
        for i in 2..20u64 {
            match fate(&mut link, i, format!("m{i}").as_bytes()) {
                // The window held only the immediately preceding message.
                (Some(0), Some((1, Forged::Replayed(older)))) => {
                    assert_eq!(older, format!("m{}", i - 1).as_bytes())
                }
                DELIVER => {}
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

    /// Folds a run of frames sent over a link — which action, which older
    /// frame a replay picked, what a tamper left, the delay drawn — into one
    /// number.
    fn fingerprint(plan: FaultPlan, seed: u64) -> u64 {
        const LATENCY: u64 = 1_000;
        let mut link = Link::new(plan, seed, LATENCY);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for byte in bytes {
                hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..2_000u64 {
            // Three channels, so a replay has same-channel and foreign frames
            // to tell apart. A frame's bytes are its wire id, so a replay's
            // bytes name the frame it picked.
            let dst = NodeId(2 + i % 3);
            let sent_at = 10 * i;
            let landing = link.send(i, NodeId(1), dst, sent_at, &i.to_le_bytes());
            match landing.copy {
                None => fold(&[u8::from(landing.frame_at.is_none())]),
                Some((_, Forged::Tampered(corrupted))) => {
                    fold(&[2]);
                    fold(&corrupted);
                }
                Some((_, Forged::Duplicate)) => fold(&[3]),
                Some((_, Forged::Replayed(older))) => {
                    fold(&[4]);
                    fold(&older);
                }
            }
            fold(&(landing.due - sent_at - LATENCY).to_le_bytes());
        }
        hash
    }

    /// Capturing is skipped when nothing can be replayed, and it never drew
    /// from the RNG: the recorded numbers are those of the link that
    /// captured every frame under every plan, and of the group's send path
    /// before every frame went through a [`Link`].
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
            let mut link = Link::new(plan, 3, 0);
            for i in 0..100 {
                fate(&mut link, i, b"payload");
            }
            assert!(link.captured.is_empty());
        }
        let mut link = Link::new(FaultPlan::byzantine(), 3, 0);
        for i in 0..1_000 {
            fate(&mut link, i, b"payload");
        }
        assert_eq!(link.captured.len(), FaultPlan::default().capture_limit);
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
            let mut link = Link::new(FaultPlan::byzantine(), seed, 0);
            let mut delivered = 0usize;
            for i in 0..n {
                let body = (i as u64).to_le_bytes();
                match fate(&mut link, i as u64, &body) {
                    (Some(0), None) | (Some(1), Some((0, Forged::Duplicate))) => delivered += 1,
                    (None, None) => {}
                    (None, Some((0, Forged::Tampered(corrupted)))) => prop_assert_ne!(corrupted, body),
                    (Some(0), Some((1, Forged::Replayed(older)))) => {
                        let id = u64::from_le_bytes(older.try_into().unwrap());
                        prop_assert!(id < i as u64);
                    }
                    other => prop_assert!(false, "no such fate: {other:?}"),
                }
            }
            // Sanity: the adversary cannot create messages out of thin air.
            prop_assert!(delivered <= n);
        }
    }
}
