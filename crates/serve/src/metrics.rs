//! Live metrics: counters, gauges and log-linear latency histograms
//! with a plain-text snapshot renderer.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//! `Arc`-shared atomics — hot paths update them lock-free; the
//! registry's only lock guards name registration and rendering.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power of two, as a bit count: 2^5 = 32.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every power of two
/// from `SUB` up to 2^64 gets `SUB` equal-width sub-buckets.
const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-linear histogram of non-negative integer samples (typically
/// nanoseconds), HdrHistogram-style.
///
/// Values below 32 are counted exactly. Each power-of-two range
/// `[2^e, 2^(e+1))` above that is split into 32 equal sub-buckets, so
/// a bucket is never wider than 1/32 of its lower bound. A quantile is
/// interpolated inside its bucket and therefore lies within 3.2 %
/// (1/32 = 3.125 %) of the true sample at that rank, at any scale.
/// Memory is fixed (1,920 buckets) and recording is lock-free and
/// allocation-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        // `value` lies in [2^e, 2^(e+1)) with e >= SUB_BITS; its top
        // SUB_BITS + 1 bits pick the sub-bucket.
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        let sub = (value >> shift) as usize - SUB;
        SUB + shift as usize * SUB + sub
    }

    /// The smallest and largest value bucket `i` holds.
    fn bucket_range(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, i as u64);
        }
        let shift = (i - SUB) / SUB;
        let lo = ((SUB + (i - SUB) % SUB) as u64) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        // lint:allow(index, reason = "bucket_of maps every u64 to 0..N_BUCKETS, so the index is always in range")
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate instead of wrapping: a long run of large samples
        // (or one stuck clock) must pin the mean high, never roll the
        // running sum over into a plausible-looking small number.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0 < q <= 1`), linearly interpolated
    /// inside the matched bucket: within 3.2 % of the sample at that
    /// rank.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if cumulative + in_bucket >= rank {
                let (lo, hi) = Self::bucket_range(i);
                let frac = (rank - cumulative) as f64 / in_bucket as f64;
                let interpolated = lo as f64 + frac * (hi - lo) as f64;
                return (interpolated as u64).min(self.max());
            }
            cumulative += in_bucket;
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile — the tail-latency figure the serving runtime
    /// reports.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Default)]
struct Families {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named metric handles plus a text renderer.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<Families>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        // lint:allow(panic, reason = "poison propagation: a panic mid-registration means torn family maps; fail loud like queue.rs")
        let mut f = self.families.lock().expect("metrics poisoned");
        Arc::clone(f.counters.entry(name.to_string()).or_default())
    }

    /// Returns (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        // lint:allow(panic, reason = "poison propagation: a panic mid-registration means torn family maps; fail loud like queue.rs")
        let mut f = self.families.lock().expect("metrics poisoned");
        Arc::clone(f.gauges.entry(name.to_string()).or_default())
    }

    /// Returns (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        // lint:allow(panic, reason = "poison propagation: a panic mid-registration means torn family maps; fail loud like queue.rs")
        let mut f = self.families.lock().expect("metrics poisoned");
        Arc::clone(f.histograms.entry(name.to_string()).or_default())
    }

    /// Renders every metric as one aligned text line per metric,
    /// sorted by kind then name — the runtime's `/metrics` equivalent.
    pub fn render(&self) -> String {
        // lint:allow(panic, reason = "poison propagation: a panic mid-registration means torn family maps; fail loud like queue.rs")
        let f = self.families.lock().expect("metrics poisoned");
        let mut out = String::new();
        for (name, c) in &f.counters {
            out.push_str(&format!("counter   {name:<40} {}\n", c.get()));
        }
        for (name, g) in &f.gauges {
            out.push_str(&format!("gauge     {name:<40} {}\n", g.get()));
        }
        for (name, h) in &f.histograms {
            out.push_str(&format!(
                "histogram {name:<40} count={} mean={:.0} p50={} p95={} p99={} max={}\n",
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ingest.records");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("ingest.records").get(), 5);
        let g = reg.gauge("queue.depth");
        g.set(-3);
        assert_eq!(reg.gauge("queue.depth").get(), -3);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(31), 31);
        assert_eq!(Histogram::bucket_of(32), 32);
        assert_eq!(Histogram::bucket_of(63), 63);
        // From 64 on, sub-buckets widen with the power of two.
        assert_eq!(Histogram::bucket_of(64), 64);
        assert_eq!(Histogram::bucket_of(65), 64);
        assert_eq!(Histogram::bucket_of(66), 65);
        assert_eq!(Histogram::bucket_of(u64::MAX), N_BUCKETS - 1);
        // Buckets tile the whole u64 range with no gap or overlap, and
        // none is wider than 1/32 of its lower bound.
        let mut next = 0u64;
        for i in 0..N_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(lo, next, "gap before bucket {i}");
            assert_eq!(Histogram::bucket_of(lo), i);
            assert_eq!(Histogram::bucket_of(hi), i);
            assert!(hi - lo <= lo / 32, "bucket {i} too wide");
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket must end at u64::MAX");
    }

    /// The documented bound: every quantile within 3.2 % of the sample
    /// at its rank.
    fn assert_within_bound(estimate: u64, truth: u64) {
        let err = (estimate as f64 - truth as f64).abs();
        assert!(
            err <= 0.032 * truth as f64,
            "estimate {estimate} vs true {truth}: {:.2} % off",
            100.0 * err / truth as f64
        );
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1.0);
        assert_eq!(h.max(), 1000);
        for (q, truth) in [
            (0.01, 10),
            (0.25, 250),
            (0.5, 500),
            (0.95, 950),
            (0.99, 990),
        ] {
            assert_within_bound(h.quantile(q), truth);
        }
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_error_is_bounded_at_every_scale() {
        for truth in [
            1,
            31,
            32,
            33,
            95,
            1_000,
            20_000,
            123_457,
            1 << 40,
            u64::MAX / 3,
        ] {
            // Below a far larger sample, so the max clamp cannot help:
            // the median is read straight off `truth`'s bucket.
            let h = Histogram::default();
            h.record(truth);
            h.record(u64::MAX);
            assert_within_bound(h.quantile(0.5), truth);
        }
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1);
        // A wrapping sum would be ~1 here and the mean near zero; the
        // saturated sum pins the mean at the top of the range instead.
        assert!(h.mean() >= (u64::MAX / 3) as f64);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn render_lists_all_kinds_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").inc();
        reg.counter("a.count").add(2);
        reg.gauge("depth").set(7);
        reg.histogram("lat").record(100);
        let text = reg.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("counter   a.count"));
        assert!(lines[1].starts_with("counter   b.count"));
        assert!(lines[2].starts_with("gauge     depth"));
        assert!(lines[3].starts_with("histogram lat"));
        assert!(lines[3].contains("count=1"));
    }
}
