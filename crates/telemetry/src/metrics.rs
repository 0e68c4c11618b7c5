//! The metrics registry: named counters and log-bucketed latency histograms
//! with label support.
//!
//! Metric identity is `name` plus an ordered `(key, value)` label list — the
//! usual `latency{shard="2"}` shape, with the label order fixed by the caller
//! so identity (and therefore export order) is deterministic. Hot paths hold a
//! [`MetricId`] handle and update by index; the string lookup happens once at
//! registration.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution of the log-bucketed histogram: 2^3 = 8 linear
/// sub-buckets per power of two, bounding the relative quantile error at
/// 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// A log-bucketed histogram over `u64` samples (virtual nanoseconds in
/// practice): 8 linear sub-buckets per power of two, exact below 8. Quantiles
/// report the lower bound of the bucket holding the requested rank, so they
/// never overstate a latency.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    ((exp - SUB_BITS + 1) as usize) * SUB + sub
}

fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let exp = (idx / SUB) as u32 + SUB_BITS - 1;
    let sub = (idx % SUB) as u64;
    (1u64 << exp) + (sub << (exp - SUB_BITS))
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub(crate) fn observe(&mut self, value: u64) {
        let idx = bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value as u128;
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, `0.0` when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): the lower bound of the bucket that
    /// contains the sample of rank `ceil(q * count)`. `0` when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lower(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// `(p50, p90, p99, p999)` in one pass-friendly call.
    pub(crate) fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }

    /// Folds `other`'s samples into `self` (bucket-wise; min/max/sum exact).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (idx, &n) in other.buckets.iter().enumerate() {
            self.buckets[idx] += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// What a registry entry holds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Log-bucketed sample distribution.
    Histogram(Histogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A handle to a registered metric; updates through it are an index away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetricId(usize);

/// A point-in-time view of one metric, flattened for export: counters carry
/// `value`, histograms carry `count`, `value` (= mean) and the four
/// percentile fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Ordered labels.
    pub labels: Vec<(String, String)>,
    /// `"counter"` or `"histogram"`.
    pub kind: String,
    /// Counter value; histogram mean.
    pub value: f64,
    /// Histogram sample count (`0` for counters).
    pub count: u64,
    /// Histogram p50 (`0` for counters).
    pub(crate) p50: f64,
    /// Histogram p90.
    pub(crate) p90: f64,
    /// Histogram p99.
    pub p99: f64,
    /// Histogram p999.
    pub(crate) p999: f64,
}

/// The registry: deterministic name → metric map plus dense storage.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    index: std::collections::BTreeMap<String, usize>,
    names: Vec<(String, Vec<(String, String)>)>,
    values: Vec<MetricValue>,
}

fn metric_key(name: &str, labels: &[(&str, String)]) -> String {
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    for (k, v) in labels {
        key.push('|');
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key
}

impl MetricsRegistry {
    fn register(&mut self, name: &str, labels: &[(&str, String)], value: MetricValue) -> MetricId {
        let key = metric_key(name, labels);
        if let Some(&idx) = self.index.get(&key) {
            return MetricId(idx);
        }
        let idx = self.values.len();
        self.index.insert(key, idx);
        self.names.push((
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        ));
        self.values.push(value);
        MetricId(idx)
    }

    /// Gets or creates a counter.
    pub(crate) fn counter(&mut self, name: &str, labels: &[(&str, String)]) -> MetricId {
        self.register(name, labels, MetricValue::Counter(0))
    }

    /// Gets or creates a histogram.
    pub(crate) fn histogram(&mut self, name: &str, labels: &[(&str, String)]) -> MetricId {
        self.register(name, labels, MetricValue::Histogram(Histogram::new()))
    }

    /// Adds `n` to a counter (no-op with a debug assert on kind mismatch).
    pub(crate) fn inc(&mut self, id: MetricId, n: u64) {
        if let MetricValue::Counter(c) = &mut self.values[id.0] {
            *c += n;
        } else {
            debug_assert!(false, "inc on a non-counter metric");
        }
    }

    /// One-shot convenience: get-or-create + `inc`.
    pub fn add_counter(&mut self, name: &str, labels: &[(&str, String)], n: u64) {
        let id = self.counter(name, labels);
        self.inc(id, n);
    }

    /// Borrow a histogram mutably (e.g. to merge a shard's samples in).
    pub(crate) fn histogram_value_mut(&mut self, id: MetricId) -> Option<&mut Histogram> {
        match &mut self.values[id.0] {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Flattens every metric into samples, ordered by the deterministic
    /// registry key (name, then labels).
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.index
            .values()
            .map(|&idx| {
                let (name, labels) = &self.names[idx];
                let value = &self.values[idx];
                let (v, count, p50, p90, p99, p999) = match value {
                    MetricValue::Counter(c) => (*c as f64, 0, 0.0, 0.0, 0.0, 0.0),
                    MetricValue::Histogram(h) => {
                        let (p50, p90, p99, p999) = h.percentiles();
                        (
                            h.mean(),
                            h.count(),
                            p50 as f64,
                            p90 as f64,
                            p99 as f64,
                            p999 as f64,
                        )
                    }
                };
                MetricSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    kind: value.kind().to_string(),
                    value: v,
                    count,
                    p50,
                    p90,
                    p99,
                    p999,
                }
            })
            .collect()
    }
}

/// Renders a `shard` label list (the registry's most common label shape).
pub(crate) fn shard_labels(shard: u32) -> [(&'static str, String); 1] {
    [("shard", shard.to_string())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_lower_bound_tight() {
        let mut last = 0usize;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease at {v}");
            last = idx;
            assert!(bucket_lower(idx) <= v, "lower bound exceeds sample at {v}");
            // The next bucket's lower bound is above the sample.
            assert!(bucket_lower(idx + 1) > v, "bucket too wide at {v}");
        }
        // Large values stay in range and keep ≤ 12.5% relative error.
        for v in [1u64 << 20, 1 << 40, u64::MAX / 3, u64::MAX] {
            let lo = bucket_lower(bucket_index(v));
            assert!(lo <= v);
            assert!((v - lo) as f64 <= v as f64 / 8.0 + 1.0);
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v * 100);
        }
        let (p50, p90, p99, p999) = h.percentiles();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        assert!(p999 <= h.max);
        assert!(p50 >= h.min);
        // p50 of a uniform 100..100_000 sample sits near 50_000 (within a bucket).
        assert!((40_000..=56_000).contains(&p50), "p50 was {p50}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_merge_matches_combined_observations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in [3u64, 900, 17, 0, 65_536, 12] {
            a.observe(v);
            combined.observe(v);
        }
        for v in [5u64, 1_000_000, 8] {
            b.observe(v);
            combined.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn registry_is_deterministic_and_handle_updates_work() {
        let mut reg = MetricsRegistry::default();
        let c = reg.counter("commits", &shard_labels(1));
        reg.inc(c, 5);
        reg.inc(c, 2);
        let h = reg.histogram("latency_ns", &shard_labels(1));
        let histogram = reg.histogram_value_mut(h).unwrap();
        histogram.observe(1_000);
        histogram.observe(2_000);
        // Re-registration returns the same handle.
        assert_eq!(reg.counter("commits", &shard_labels(1)), c);

        let samples = reg.snapshot();
        assert_eq!(samples.len(), 2);
        // BTreeMap key order: commits < latency_ns.
        assert_eq!(samples[0].name, "commits");
        assert_eq!(samples[0].value, 7.0);
        assert_eq!(samples[1].kind, "histogram");
        assert_eq!(samples[1].count, 2);
        assert!(samples[1].p50 > 0.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentiles(), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }
}
