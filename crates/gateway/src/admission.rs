//! Deterministic admission control: per-tenant token buckets on the
//! virtual clock.
//!
//! Quotas are integers end to end — buckets hold *nanotokens* (one op =
//! 10⁹ nanotokens) and refill at `quota_ops_per_sec` nanotokens per
//! virtual nanosecond — so refill, spend and retry-time arithmetic are
//! exact and a seed replays to bit-identical throttle decisions. No
//! wall clock, no floats: this crate sits on `recipe-lint`'s determinism
//! core paths.

/// Nanotokens per operation: quotas count ops per virtual *second*, the
/// clock counts nanoseconds.
const NANOTOKENS_PER_OP: u64 = 1_000_000_000;

/// A deterministic token bucket driven by virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    /// Refill rate: ops per virtual second (= nanotokens per ns); `0`
    /// disables the bucket (unlimited).
    rate_ops_per_sec: u64,
    /// Bucket capacity in nanotokens.
    capacity: u64,
    /// Current fill in nanotokens.
    tokens: u64,
    /// Virtual time of the last refill.
    last_refill_ns: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_ops_per_sec` with room for `burst_ops`
    /// operations, starting full at virtual time zero. A request costs as
    /// many tokens as it carries operations (a fan-out-4 transaction is four
    /// ops of quota), capped at the capacity — so with `burst_ops == 0`
    /// every request is free and the bucket meters nothing, which is why
    /// `TenantSpec::validate` refuses a quota with a zero burst.
    pub fn new(rate_ops_per_sec: u64, burst_ops: u64) -> Self {
        let capacity = burst_ops.saturating_mul(NANOTOKENS_PER_OP);
        TokenBucket {
            rate_ops_per_sec,
            capacity,
            tokens: capacity,
            last_refill_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        let elapsed = now_ns.saturating_sub(self.last_refill_ns);
        self.last_refill_ns = self.last_refill_ns.max(now_ns);
        // u128 product: 120 s of virtual time times a large quota overflows
        // u64; the clamp back to capacity keeps the state small.
        let refilled = u128::from(elapsed) * u128::from(self.rate_ops_per_sec);
        let total = u128::from(self.tokens) + refilled;
        self.tokens = total.min(u128::from(self.capacity)) as u64;
    }

    /// Attempts to take `ops` tokens at virtual time `now_ns`. On success
    /// the tokens are spent; on refusal returns the earliest virtual time
    /// at which the bucket will hold enough — the deterministic retry
    /// schedule.
    pub fn try_take(&mut self, now_ns: u64, ops: u64) -> Result<(), u64> {
        if self.rate_ops_per_sec == 0 {
            return Ok(());
        }
        self.refill(now_ns);
        let cost = ops.saturating_mul(NANOTOKENS_PER_OP).min(self.capacity);
        if self.tokens >= cost {
            self.tokens -= cost;
            return Ok(());
        }
        let missing = u128::from(cost - self.tokens);
        let rate = u128::from(self.rate_ops_per_sec);
        let wait_ns = missing.div_ceil(rate).min(u128::from(u64::MAX)) as u64;
        Err(now_ns.saturating_add(wait_ns.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_spends_burst_then_defers_to_refill_time() {
        let mut b = TokenBucket::new(1_000, 2); // 1k ops/s, burst 2
        assert_eq!(b.try_take(0, 1), Ok(()));
        assert_eq!(b.try_take(0, 1), Ok(()));
        // Empty: one op = 1e9 nanotokens at 1e3/ns = 1e6 ns away.
        assert_eq!(b.try_take(0, 1), Err(1_000_000));
        // At the promised time the take succeeds.
        assert_eq!(b.try_take(1_000_000, 1), Ok(()));
    }

    #[test]
    fn unlimited_bucket_never_defers() {
        let mut b = TokenBucket::new(0, 1);
        for now in 0..100 {
            assert_eq!(b.try_take(now, 7), Ok(()));
        }
    }

    #[test]
    fn same_schedule_same_decisions() {
        let run = || {
            let mut b = TokenBucket::new(500, 1);
            (0..200u64)
                .map(|i| b.try_take(i * 300_000, 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oversized_request_is_clamped_to_capacity() {
        // A txn wider than the burst would otherwise never admit; clamping
        // to capacity lets it through at full-bucket price.
        let mut b = TokenBucket::new(1_000, 2);
        assert_eq!(b.try_take(0, 10), Ok(()));
        assert!(b.try_take(0, 1).is_err());
    }

    #[test]
    fn zero_capacity_bucket_prices_every_request_at_nothing() {
        // The same clamp at capacity 0: nothing is ever spent, so a quota
        // with a zero burst would not meter. Validation refuses that
        // configuration; the bucket itself never refuses a request.
        let mut b = TokenBucket::new(1_000, 0);
        for i in 0..1_000 {
            assert_eq!(b.try_take(0, 1 + i % 7), Ok(()));
        }
    }
}
