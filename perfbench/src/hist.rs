//! Fixed-size log-linear latency histogram: 256 linear sub-buckets per
//! power of two (≤ 0.4% relative bucket width) up to 2^40 ns, so a run of
//! any length keeps the same memory. The buckets are allocated on the
//! first sample; a histogram that never records costs nothing.

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const HALF: u64 = SUB / 2;
/// Samples at or above 2^MAX_BITS ns (about 18 minutes) share the top bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (SUB + (MAX_BITS - SUB_BITS) as u64 * HALF) as usize;

/// Latency samples in nanoseconds.
pub struct LatHist {
    /// Empty until the first sample, then `BUCKETS` long.
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist::new()
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - (SUB_BITS - 1);
    (SUB + (u64::from(shift) - 1) * HALF + ((v >> shift) - HALF)) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, (i + 1) as f64);
    }
    let shift = (i - SUB) / HALF + 1;
    let m = (i - SUB) % HALF + HALF;
    ((m << shift) as f64, ((m + 1) << shift) as f64)
}

impl LatHist {
    /// An empty histogram.
    pub fn new() -> LatHist {
        LatHist {
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[index(ns).min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LatHist) {
        if self.counts.is_empty() {
            self.counts = other.counts.clone();
            self.total = other.total;
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds, interpolated by rank inside its
    /// bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0.0;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n as f64 >= rank {
                let (lo, hi) = bounds(i);
                return lo + (hi - lo) * ((rank - seen) / n as f64);
            }
            seen += n as f64;
        }
        bounds(BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_in_order() {
        let mut last = 0;
        for v in [
            0,
            1,
            255,
            256,
            257,
            511,
            512,
            1_000,
            123_456,
            (1 << MAX_BITS) - 1,
        ] {
            let i = index(v);
            assert!(i >= last && i < BUCKETS, "{v} -> {i}");
            let (lo, hi) = bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < hi.max(lo + 1.0),
                "{v} not in [{lo}, {hi})"
            );
            last = i;
        }
    }

    #[test]
    fn quantiles_are_within_bucket_width() {
        let mut h = LatHist::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.01, "{p50}");
        let p90 = h.quantile(0.9);
        assert!((p90 - 900_000.0).abs() / 900_000.0 < 0.01, "{p90}");
    }

    #[test]
    fn empty_histograms_merge_and_read_zero() {
        let mut a = LatHist::new();
        assert_eq!(a.quantile(0.5), 0.0);
        let mut b = LatHist::new();
        b.record(1_000);
        a.merge(&LatHist::new());
        a.merge(&b);
        b.merge(&LatHist::new());
        assert_eq!((a.count(), b.count()), (1, 1));
        assert!((a.quantile(0.5) - 1_000.0).abs() < 10.0);
    }
}
