//! The paper's response-time distribution bins (Fig. 3(c)).

/// Fixed-bin response-time distribution:
/// `[0,.2] [.2,.4] [.4,.6] [.6,.8] [.8,1] [1,1.5] [1.5,2] >2` (seconds).
/// Bins are left-closed: an observation on an edge counts in the bin above it.
#[derive(Debug, Clone)]
pub struct RtDistribution {
    counts: [u64; 8],
}

/// Human-readable labels for the eight paper bins.
pub const BIN_LABELS: [&str; 8] = [
    "[0,.2]", "[.2,.4]", "[.4,.6]", "[.6,.8]", "[.8,1]", "[1,1.5]", "[1.5,2]", ">2",
];

/// Lower edges of the eight bins, in seconds.
const LOWER_EDGES: [f64; 8] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0];

impl RtDistribution {
    /// New empty distribution with the paper's bins.
    pub fn new() -> Self {
        RtDistribution { counts: [0; 8] }
    }

    /// Record a response time in seconds (negative values count as 0).
    pub fn record(&mut self, rt_secs: f64) {
        let rt = rt_secs.max(0.0);
        let bin = LOWER_EDGES.partition_point(|&edge| edge <= rt) - 1;
        self.counts[bin] += 1;
    }

    /// Counts for the eight bins (the last one is the `>2` overflow).
    pub fn counts(&self) -> [u64; 8] {
        self.counts
    }

    /// Fractions of all recorded requests per bin.
    pub fn fractions(&self) -> [f64; 8] {
        let total = self.total().max(1) as f64;
        std::array::from_fn(|i| self.counts[i] as f64 / total)
    }

    /// Total recorded requests.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Default for RtDistribution {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_match_paper() {
        let mut d = RtDistribution::new();
        for rt in [0.1, 0.3, 0.5, 0.7, 0.9, 1.2, 1.7, 5.0] {
            d.record(rt);
        }
        assert_eq!(d.counts(), [1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(d.total(), 8);
    }

    #[test]
    fn edges_count_in_the_bin_above() {
        let mut d = RtDistribution::new();
        for rt in [0.0, 0.2, 1.0, 1.5, 2.0, f64::INFINITY] {
            d.record(rt);
        }
        assert_eq!(d.counts(), [1, 1, 0, 0, 0, 1, 1, 2]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut d = RtDistribution::new();
        for i in 0..100 {
            d.record(i as f64 * 0.03);
        }
        let sum: f64 = d.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_clamped_to_first_bin() {
        let mut d = RtDistribution::new();
        d.record(-0.5);
        assert_eq!(d.counts()[0], 1);
    }

    #[test]
    fn empty_distribution_is_all_zero() {
        let d = RtDistribution::new();
        assert_eq!(d.total(), 0);
        assert!(d.fractions().iter().all(|&f| f == 0.0));
    }
}
