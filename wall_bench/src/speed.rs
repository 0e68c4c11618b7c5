//! The machine-speed probe: how fast this host is *while* something is being
//! measured, so that host-clock results can be stated at a reference speed.
//!
//! Why: on the 2-core sandbox this benchmark is gated on, the same rep of the
//! same binary reads anywhere from 125 to 300 µs per op depending on what the
//! neighbours on the physical host are doing — cache contention that comes
//! and goes within seconds, and phases of about a minute where everything
//! runs 1.5× slower. More reps inside a 15-second run do not average that
//! away (the raw quartile spread of ten runs was 13–52 % of their median), so
//! a raw host time cannot be held to any bound a benchmark may declare.
//!
//! What: a fixed, tiny piece of work that owes nothing to the program under
//! test — copying 64 KiB inside a private 128 KiB buffer, four times, about
//! 6 µs — is timed once every [`SAMPLE_EVERY_ALLOCS`] allocation requests,
//! from inside the counting allocator. The samples therefore fall *inside*
//! the interval being measured, about one per millisecond, and their mean
//! says how slow the machine was during exactly that interval. In three
//! series of 40 consecutive reps on each of three workloads the mean probe
//! time correlated 0.74–0.98 with the rep's host time, with a log-log slope of
//! 0.7–1.1, and dividing by it cut the quartile spread from 9–27 % to
//! 2.3–7.0 %; over ten runs of the whole benchmark, from 13–52 % to 1–6.5 %.
//! Probes that were tried and track the noise worse: an ALU-only loop
//! (0.7–0.9), the same copy on a buffer kept warm (0.7–0.8), and copies from
//! a buffer too large to stay cached (0.1–0.55). The buffer is meant to fall
//! out of the inner caches between samples: it is the contention for the
//! shared cache levels that slows both the probe and the program.
//!
//! Caveat: because the probe starts cold, its time depends a little on how
//! much memory the code around it touches (on a quiet machine the slowdown
//! reads 0.92–1.25 depending on the workload). Corrected times are therefore
//! comparable between commits on one workload, not between workloads or
//! between a replay and a run, and a change that greatly alters the
//! program's memory traffic can shift them by several percent on its own.
//! The readings as taken are always reported beside the corrected ones.

use std::cell::Cell;
use std::time::Instant;

/// The probe is timed on every this-many-th allocation request (a power of
/// two): about once per millisecond of the program's run.
pub const SAMPLE_EVERY_ALLOCS: u64 = 1 << 14;

/// Probe time on the quiet 2-core reference box, nanoseconds. Normalised
/// results are what the measurement would have read had the probe taken
/// this long throughout; on another machine the factor settles elsewhere,
/// the same for every commit measured there.
pub const REFERENCE_PROBE_NS: f64 = 6_000.0;

const HALF: usize = 64 << 10;
const PASSES: usize = 4;

thread_local! {
    // The buffer is leaked once by `enable` and then lent to each sample:
    // `take` leaves `None` behind, so a sample that interrupts `enable`'s own
    // allocation finds nothing to work on and returns.
    static SCRATCH: Cell<Option<&'static mut [u8]>> = const { Cell::new(None) };
    static PROBE_NS: Cell<u64> = const { Cell::new(0) };
    static PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Turns sampling on for this thread. Until then [`sample`] does nothing.
pub fn enable() {
    let buffer: &'static mut [u8] = Box::leak(vec![1u8; 2 * HALF].into_boxed_slice());
    SCRATCH.set(Some(buffer));
}

/// Times the probe once. Called by the allocator; allocates nothing.
pub fn sample() {
    let Some(buffer) = SCRATCH.take() else {
        return;
    };
    let start = Instant::now();
    for _ in 0..PASSES {
        buffer.copy_within(..HALF, HALF);
        // Carry a byte back so that no pass is dead code.
        buffer[0] = buffer[0].wrapping_add(buffer[2 * HALF - 1]);
    }
    let ns = start.elapsed().as_nanos() as u64;
    PROBE_NS.set(PROBE_NS.get() + ns);
    PROBES.set(PROBES.get() + 1);
    SCRATCH.set(Some(buffer));
}

/// The probe totals at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    ns: u64,
    probes: u64,
}

pub fn mark() -> Mark {
    Mark {
        ns: PROBE_NS.get(),
        probes: PROBES.get(),
    }
}

/// What the probe saw between a [`Mark`] and now.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Speed {
    /// Host time spent in the probe itself, to be taken off the measurement.
    pub probe_total_ns: u64,
    pub samples: u64,
}

impl Speed {
    /// How much slower than the reference the machine ran: mean probe time
    /// over [`REFERENCE_PROBE_NS`]. `1.0` when the interval was too short to
    /// hold a sample, which leaves the measurement as it was read.
    pub fn slowdown(&self) -> f64 {
        if self.samples == 0 {
            1.0
        } else {
            self.probe_total_ns as f64 / self.samples as f64 / REFERENCE_PROBE_NS
        }
    }

    /// A host time read over this interval, without the probe's own time and
    /// restated at the reference speed.
    pub fn normalise(&self, wall_ns: u64) -> f64 {
        wall_ns.saturating_sub(self.probe_total_ns) as f64 / self.slowdown()
    }
}

pub fn since(mark: Mark) -> Speed {
    Speed {
        probe_total_ns: PROBE_NS.get() - mark.ns,
        samples: PROBES.get() - mark.probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_off_until_enabled_and_then_accumulates() {
        let start = mark();
        sample();
        assert_eq!(since(start).samples, 0, "no buffer, no sample");
        assert_eq!(since(start).slowdown(), 1.0);
        assert_eq!(since(start).normalise(1_000), 1_000.0);

        enable();
        sample();
        sample();
        let seen = since(start);
        assert_eq!(seen.samples, 2);
        assert!(seen.probe_total_ns > 0);
        // Twice as slow as the reference halves the reading, after the
        // probe's own time has come off it.
        let slow = Speed {
            probe_total_ns: 2 * REFERENCE_PROBE_NS as u64 * 10,
            samples: 10,
        };
        assert_eq!(slow.slowdown(), 2.0);
        assert_eq!(slow.normalise(1_000_000 + slow.probe_total_ns), 500_000.0);
    }
}
