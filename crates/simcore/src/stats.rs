//! Streaming statistics primitives.
//!
//! The paper's analyses are built from a handful of observables: averages and
//! distributions of response times, time-weighted utilizations sampled at one
//! second granularity, and per-interval counters. This module provides the
//! corresponding accumulators, all O(1) per observation and allocation-free on
//! the hot path.

use crate::time::SimTime;

// ---------------------------------------------------------------------------
// Welford / summary statistics
// ---------------------------------------------------------------------------

/// Streaming count/mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// New empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// Log-scale histogram with quantiles
// ---------------------------------------------------------------------------

/// Logarithmic histogram for positive values (response times), supporting
/// approximate quantiles with bounded relative error.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Smallest representable value; anything below lands in bucket 0.
    floor: f64,
    /// Per-bucket growth factor.
    growth: f64,
    log_growth: f64,
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// `floor` = resolution floor (e.g. 1 µs = 1e-6 s); `growth` = per-bucket
    /// factor (1.02 ⇒ ≤ 2% relative quantile error); `buckets` = bucket count.
    pub fn new(floor: f64, growth: f64, buckets: usize) -> Self {
        assert!(floor > 0.0 && growth > 1.0 && buckets >= 2);
        LogHistogram {
            floor,
            growth,
            log_growth: growth.ln(),
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// A sensible default for response times in seconds: 10 µs floor, 2%
    /// buckets, covering up to ~10⁵ s.
    pub fn response_times() -> Self {
        LogHistogram::new(1e-5, 1.02, 1200)
    }

    /// Record a value (non-positive values count into the lowest bucket).
    #[inline]
    pub fn add(&mut self, x: f64) {
        let idx = if x <= self.floor {
            0
        } else {
            (((x / self.floor).ln() / self.log_growth) as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile `q ∈ [0,1]` (`None` if empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Geometric midpoint of the bucket.
                let lo = self.floor * self.growth.powi(i as i32);
                return Some(lo * self.growth.sqrt());
            }
        }
        Some(self.floor * self.growth.powi(self.counts.len() as i32))
    }
}

// ---------------------------------------------------------------------------
// Time-weighted value (utilization integrals)
// ---------------------------------------------------------------------------

/// Integrates a piecewise-constant signal over simulated time — the primitive
/// behind CPU-utilization and pool-occupancy averages.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: SimTime,
    value: f64,
    integral: f64,
    peak: f64,
    started: SimTime,
}

impl TimeWeighted {
    /// Start integrating at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_t: t0,
            value: v0,
            integral: 0.0,
            peak: v0,
            started: t0,
        }
    }

    /// Set the signal to `v` at time `t` (accumulating the previous segment).
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t, "time went backwards in TimeWeighted");
        self.integral += self.value * t.saturating_sub(self.last_t).as_secs_f64();
        self.last_t = t;
        self.value = v;
        if v > self.peak {
            self.peak = v;
        }
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Largest value observed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average over `[start, t]`, closing the running segment at `t`.
    pub fn average_until(&self, t: SimTime) -> f64 {
        let span = t.saturating_sub(self.started).as_secs_f64();
        if span <= 0.0 {
            return self.value;
        }
        (self.integral + self.value * t.saturating_sub(self.last_t).as_secs_f64()) / span
    }

    /// Reset the integration window to start at `t` (value is retained).
    pub fn reset_window(&mut self, t: SimTime) {
        self.integral = 0.0;
        self.last_t = t;
        self.started = t;
        self.peak = self.value;
    }

    /// Raw integral so far (value·seconds), not closing the running segment.
    pub fn integral(&self) -> f64 {
        self.integral
    }
}

// ---------------------------------------------------------------------------
// Per-interval series (the "SysStat" sampler)
// ---------------------------------------------------------------------------

/// Accumulates values into fixed-width time buckets — e.g. requests processed
/// per second (paper Fig. 7(a)) or per-second CPU utilization samples.
#[derive(Debug, Clone)]
pub struct IntervalSeries {
    interval: SimTime,
    origin: SimTime,
    buckets: Vec<f64>,
}

impl IntervalSeries {
    /// New series with buckets of width `interval`, starting at `origin`.
    pub fn new(origin: SimTime, interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO);
        IntervalSeries {
            interval,
            origin,
            buckets: Vec::new(),
        }
    }

    /// Add `amount` to the bucket containing time `t` (events before the
    /// origin are ignored — they belong to ramp-up).
    pub fn add(&mut self, t: SimTime, amount: f64) {
        if t < self.origin {
            return;
        }
        let idx = ((t - self.origin).as_micros() / self.interval.as_micros()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Count one occurrence at time `t`.
    pub fn incr(&mut self, t: SimTime) {
        self.add(t, 1.0);
    }

    /// The per-bucket totals.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }

    /// Bucket width.
    pub fn interval(&self) -> SimTime {
        self.interval
    }

    /// Mean across buckets `[from, to)` (clamped to available data).
    pub fn mean_over(&self, from: usize, to: usize) -> f64 {
        let hi = to.min(self.buckets.len());
        let lo = from.min(hi);
        if hi == lo {
            return 0.0;
        }
        self.buckets[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }
}

// ---------------------------------------------------------------------------
// Windowed piecewise-constant signal integrator
// ---------------------------------------------------------------------------

/// Integrates a piecewise-constant signal into fixed-width time buckets: the
/// fine-grained cousin of [`TimeWeighted`] (which keeps one running window)
/// and [`IntervalSeries`] (which counts events rather than levels).
///
/// Two mutually exclusive feeding styles:
/// * [`set`](Self::set) — the signal holds its last value between calls
///   (pool occupancy, queue lengths);
/// * [`add_segment`](Self::add_segment) — the caller hands over explicit
///   `(start, dt, value)` segments (the CPU's virtual-time walk, which knows
///   its own busy level per segment).
///
/// Writes are *observation only*: nothing here feeds back into the caller,
/// so attaching one to a live resource cannot perturb a simulation.
#[derive(Debug, Clone)]
pub struct WindowedSignal {
    origin_secs: f64,
    width_secs: f64,
    /// Integral of the signal (value·seconds) per bucket.
    buckets: Vec<f64>,
    /// Current level and the time it was set (for the `set` style).
    value: f64,
    last_secs: f64,
}

impl WindowedSignal {
    /// New signal with buckets of `width` starting at `origin`. Contributions
    /// before `origin` are dropped (they belong to ramp-up).
    pub fn new(origin: SimTime, width: SimTime) -> Self {
        assert!(width > SimTime::ZERO, "window width must be positive");
        WindowedSignal {
            origin_secs: origin.as_secs_f64(),
            width_secs: width.as_secs_f64(),
            buckets: Vec::new(),
            value: 0.0,
            last_secs: origin.as_secs_f64(),
        }
    }

    /// Bucket width in seconds.
    pub fn width_secs(&self) -> f64 {
        self.width_secs
    }

    /// Grid origin in seconds (shared by signals created together, which
    /// lets fused writers do one overlap walk for several signals).
    pub fn origin_secs(&self) -> f64 {
        self.origin_secs
    }

    /// Walk the buckets a segment `[start, start + dt)` overlaps on the
    /// grid `(origin, width)`, calling `f(bucket, overlap_seconds)` once per
    /// bucket. Pre-origin time is clipped (it belongs to ramp-up). This is
    /// the single splitting routine: [`add_segment`](Self::add_segment) is a
    /// thin wrapper, and hot paths that feed several same-grid signals from
    /// one segment (the CPU's busy/frozen/run-queue triple) call it directly
    /// to pay for the walk once.
    #[inline]
    pub fn for_each_overlap(
        origin_secs: f64,
        width_secs: f64,
        start_secs: f64,
        dt: f64,
        mut f: impl FnMut(usize, f64),
    ) {
        let mut lo = start_secs.max(origin_secs);
        let hi = start_secs + dt;
        if hi <= lo {
            return;
        }
        while lo < hi {
            let mut idx = ((lo - origin_secs) / width_secs) as usize;
            let mut edge = origin_secs + (idx as f64 + 1.0) * width_secs;
            // `lo` can land a rounding error below a bucket edge, making the
            // division floor to the previous bucket whose edge is not beyond
            // `lo`; step to the next bucket so the loop always progresses.
            if edge <= lo {
                idx += 1;
                edge = origin_secs + (idx as f64 + 1.0) * width_secs;
            }
            let seg_hi = hi.min(edge);
            f(idx, seg_hi - lo);
            lo = seg_hi;
        }
    }

    /// Add `value · seconds` into bucket `idx` directly, growing the store.
    /// For fused writers driving [`for_each_overlap`](Self::for_each_overlap)
    /// themselves; everyone else wants [`add_segment`](Self::add_segment).
    #[inline]
    pub fn add_at(&mut self, idx: usize, value_seconds: f64) {
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += value_seconds;
    }

    /// Distribute `value` over the segment `[start, start + dt)`, split
    /// across bucket boundaries.
    pub fn add_segment(&mut self, start_secs: f64, dt: f64, value: f64) {
        if dt <= 0.0 || value == 0.0 {
            return;
        }
        Self::for_each_overlap(
            self.origin_secs,
            self.width_secs,
            start_secs,
            dt,
            |idx, secs| {
                if idx >= self.buckets.len() {
                    self.buckets.resize(idx + 1, 0.0);
                }
                self.buckets[idx] += value * secs;
            },
        );
    }

    /// Record that the signal changes to `v` at time `t`; the previous level
    /// is integrated over `[last_change, t)` first.
    pub fn set(&mut self, t: SimTime, v: f64) {
        let t_secs = t.as_secs_f64();
        self.add_segment(self.last_secs, t_secs - self.last_secs, self.value);
        self.last_secs = self.last_secs.max(t_secs);
        self.value = v;
    }

    /// Integrate the held level up to `t` without changing it (used before a
    /// final read in the `set` style).
    pub fn flush(&mut self, t: SimTime) {
        let v = self.value;
        self.set(t, v);
    }

    /// Per-bucket time-averages (integral / width) for the first `n` buckets;
    /// buckets never touched read as 0.
    pub fn means(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.buckets.get(i).copied().unwrap_or(0.0) / self.width_secs)
            .collect()
    }

    /// Raw per-bucket integrals (value·seconds).
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_basic() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
        assert!((w.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_is_sane() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_quantiles() {
        let mut h = LogHistogram::response_times();
        for i in 1..=1000 {
            h.add(i as f64 / 1000.0); // 1ms..1s uniform
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 0.5).abs() / 0.5 < 0.05, "p50={p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 0.99).abs() / 0.99 < 0.05, "p99={p99}");
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 1.0); // 0 for 10s
        tw.set(SimTime::from_secs(30), 0.5); // 1 for 20s
        let avg = tw.average_until(SimTime::from_secs(40)); // 0.5 for 10s
                                                            // (0*10 + 1*20 + 0.5*10) / 40 = 25/40
        assert!((avg - 0.625).abs() < 1e-12);
        assert_eq!(tw.peak(), 1.0);
        assert_eq!(tw.current(), 0.5);
    }

    #[test]
    fn time_weighted_window_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(5), 0.0);
        tw.reset_window(SimTime::from_secs(5));
        let avg = tw.average_until(SimTime::from_secs(10));
        assert_eq!(avg, 0.0);
    }

    #[test]
    fn interval_series_buckets() {
        let mut s = IntervalSeries::new(SimTime::from_secs(10), SimTime::from_secs(1));
        s.incr(SimTime::from_secs(9)); // before origin: ignored
        s.incr(SimTime::from_millis(10_100));
        s.incr(SimTime::from_millis(10_900));
        s.incr(SimTime::from_millis(12_000));
        assert_eq!(s.buckets(), &[2.0, 0.0, 1.0]);
        assert!((s.mean_over(0, 3) - 1.0).abs() < 1e-12);
        assert_eq!(s.mean_over(5, 9), 0.0);
    }

    #[test]
    fn windowed_signal_set_style() {
        let mut w = WindowedSignal::new(SimTime::from_secs(10), SimTime::from_millis(100));
        w.set(SimTime::from_secs(10), 2.0); // level 2 from t=10
        w.set(SimTime::from_millis(10_050), 4.0); // level 4 from t=10.05
        w.flush(SimTime::from_millis(10_200));
        let m = w.means(3);
        // Window 0: 2*0.05 + 4*0.05 = 0.3 → mean 3.0; window 1: 4.0.
        assert!((m[0] - 3.0).abs() < 1e-9, "{m:?}");
        assert!((m[1] - 4.0).abs() < 1e-9, "{m:?}");
        assert_eq!(m[2], 0.0);
    }

    #[test]
    fn windowed_signal_segments_split_across_buckets() {
        let mut w = WindowedSignal::new(SimTime::ZERO, SimTime::from_millis(100));
        // One segment spanning 3 windows at level 1.
        w.add_segment(0.05, 0.20, 1.0);
        let m = w.means(3);
        assert!((m[0] - 0.5).abs() < 1e-9, "{m:?}");
        assert!((m[1] - 1.0).abs() < 1e-9, "{m:?}");
        assert!((m[2] - 0.5).abs() < 1e-9, "{m:?}");
    }

    #[test]
    fn windowed_signal_drops_pre_origin() {
        let mut w = WindowedSignal::new(SimTime::from_secs(1), SimTime::from_millis(100));
        w.add_segment(0.0, 1.05, 1.0); // only [1.0, 1.05) lands in window 0
        let m = w.means(1);
        assert!((m[0] - 0.5).abs() < 1e-9, "{m:?}");
    }

    #[test]
    fn windowed_signal_untouched_buckets_read_zero() {
        let w = WindowedSignal::new(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(w.means(4), vec![0.0; 4]);
    }
}
