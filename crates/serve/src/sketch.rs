//! Fixed-budget deterministic latency sketches.
//!
//! A [`LatencySketch`] summarizes an arbitrarily large multiset of `u64`
//! cycle latencies in constant memory, with a *documented, provable*
//! relative error bound on every quantile — the piece that lets a
//! million-stream serve run report percentiles without materializing (let
//! alone sorting) a million-entry vector.
//!
//! # Design: log-linear histogram, not centroids
//!
//! The sketch is an HDR-histogram-style log-linear bucket array: values
//! below 2^[`SUB_BUCKET_BITS`] get one bucket each (exact), and every
//! octave above that is split into 2^[`SUB_BUCKET_BITS`] equal-width
//! sub-buckets. Quantiles walk the cumulative counts with the same
//! nearest-rank rule as the exact path and report the bucket's *upper*
//! bound, clamped to the exact running maximum.
//!
//! A t-digest reaches a similar budget/accuracy point with mergeable
//! centroids, but centroid positions depend on insertion and merge order —
//! poison for this repo's bit-determinism invariant (a report must not
//! depend on the order latencies are recorded or merged in). Bucket
//! counters are plain integer sums: insertion order, merge order, and
//! merge tree shape are all invisible by construction, which is the
//! determinism argument in one sentence. The budget is fixed at [`LatencySketch::BUCKETS`] `u64`
//! counters (~114 KiB), independent of the stream count.
//!
//! # Error bound
//!
//! A bucket in octave `e ≥ SUB_BUCKET_BITS` spans `width = 2^(e - SUB_BUCKET_BITS)`
//! values starting at `low ≥ 2^e`, so reporting the bucket's upper bound
//! overstates a quantile `q` by at most `width - 1 < low / 2^SUB_BUCKET_BITS ≤
//! q / 2^SUB_BUCKET_BITS`. With 8 sub-bucket bits the relative error is
//! strictly below 2^-8 ≈ 0.39% — reported conservatively as
//! [`LatencySketch::ERROR_PERMILLE`] (4‰). Values below 2^8 are exact, and
//! the maximum is tracked exactly on the side.

/// Sub-bucket resolution: each octave splits into `2^SUB_BUCKET_BITS`
/// buckets, and values below `2^SUB_BUCKET_BITS` are exact.
pub const SUB_BUCKET_BITS: u32 = 8;

const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// A constant-memory, merge-order-independent quantile sketch over `u64`
/// latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencySketch {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        LatencySketch::new()
    }
}

impl LatencySketch {
    /// Number of bucket counters: one per value below `2^SUB_BUCKET_BITS`,
    /// plus `2^SUB_BUCKET_BITS` per octave from there to the top of the
    /// `u64` range.
    pub const BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS;

    /// Guaranteed upper bound on the relative quantile error, in permille.
    /// The true bound is `2^-SUB_BUCKET_BITS` (< 3.91‰); 4‰ is the
    /// conservative integer form reports carry.
    pub const ERROR_PERMILLE: u64 = 4;

    /// An empty sketch.
    pub fn new() -> Self {
        LatencySketch { counts: vec![0; Self::BUCKETS], total: 0, min: u64::MAX, max: 0 }
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact maximum of the recorded values (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Bucket index of `v`: identity below `2^SUB_BUCKET_BITS`, log-linear
    /// above.
    #[inline]
    fn bucket(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros(); // >= SUB_BUCKET_BITS
            let shift = exp - SUB_BUCKET_BITS;
            let mantissa = (v >> shift) as usize - SUB_BUCKETS;
            ((exp - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + mantissa
        }
    }

    /// Largest value mapping to bucket `b` — the representative quantiles
    /// report (before clamping to the exact max).
    #[inline]
    fn bucket_upper(b: usize) -> u64 {
        let group = b / SUB_BUCKETS;
        let mantissa = (b % SUB_BUCKETS) as u64;
        if group == 0 {
            mantissa
        } else {
            let shift = group as u32 - 1;
            let low = (SUB_BUCKETS as u64 + mantissa) << shift;
            // Parenthesized so the top bucket (upper bound u64::MAX) does
            // not transiently overflow past 2^64.
            low + ((1u64 << shift) - 1)
        }
    }

    /// Records one latency.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another sketch into this one. Pure counter addition:
    /// commutative and associative, so any merge tree over any partition of
    /// the data yields the identical sketch.
    pub fn merge(&mut self, other: &LatencySketch) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += *theirs;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The sketch's entire state, for checkpoint encoding: the bucket
    /// counters, the recorded-value total, and the raw running min/max
    /// (`min` is `u64::MAX` on an empty sketch — the sentinel is part of
    /// the state and must round-trip as-is).
    pub(crate) fn raw_parts(&self) -> (&[u64], u64, u64, u64) {
        (&self.counts, self.total, self.min, self.max)
    }

    /// Rebuilds a sketch from [`LatencySketch::raw_parts`]. Returns `None`
    /// when the parts are inconsistent (wrong bucket count, or counters
    /// that do not sum to `total`) — a decoded checkpoint must never
    /// produce a sketch the recording path could not have.
    pub(crate) fn from_raw_parts(counts: Vec<u64>, total: u64, min: u64, max: u64) -> Option<Self> {
        if counts.len() != Self::BUCKETS {
            return None;
        }
        let mut sum = 0u64;
        for &c in &counts {
            sum = sum.checked_add(c)?;
        }
        if sum != total {
            return None;
        }
        Some(LatencySketch { counts, total, min, max })
    }

    /// Nearest-rank `pct`-th percentile (`pct` in 1..=100), mirroring the
    /// exact path's rule `rank = max(ceil(pct·n / 100), 1)`. Returns the
    /// containing bucket's upper bound clamped to the exact maximum, so the
    /// result never understates the true quantile and overstates it by less
    /// than `2^-SUB_BUCKET_BITS` relative. Returns 0 on an empty sketch.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (pct * self.total).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(b).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = LatencySketch::new();
        for v in 0..SUB_BUCKETS as u64 {
            s.record(v);
        }
        assert_eq!(s.percentile(50), 127);
        assert_eq!(s.percentile(100), 255);
        assert_eq!(s.max(), 255);
        // Below 2^SUB_BUCKET_BITS every bucket holds one value.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(LatencySketch::bucket(v), v as usize);
            assert_eq!(LatencySketch::bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn buckets_tile_the_u64_range_contiguously() {
        // Every octave boundary must land at the start of a fresh bucket and
        // every bucket's upper bound must map back to itself.
        for v in [255u64, 256, 257, 511, 512, 1 << 20, u64::MAX / 2, u64::MAX] {
            let b = LatencySketch::bucket(v);
            assert!(b < LatencySketch::BUCKETS, "bucket({v}) = {b} out of range");
            assert!(LatencySketch::bucket_upper(b) >= v);
            assert_eq!(LatencySketch::bucket(LatencySketch::bucket_upper(b)), b);
        }
        assert_eq!(LatencySketch::bucket(256), 256, "first log bucket follows the linear range");
        assert_eq!(LatencySketch::bucket(u64::MAX) + 1, LatencySketch::BUCKETS);
    }

    #[test]
    fn relative_error_is_within_the_documented_bound() {
        let mut s = LatencySketch::new();
        let mut values: Vec<u64> = Vec::new();
        let mut state = 99u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = (state >> 16) % 1_000_000;
            values.push(v);
            s.record(v);
        }
        values.sort_unstable();
        for pct in [1u64, 10, 50, 90, 95, 99, 100] {
            let rank = (pct * values.len() as u64).div_ceil(100).max(1);
            let exact = values[rank as usize - 1];
            let sketched = s.percentile(pct);
            assert!(sketched >= exact, "p{pct}: {sketched} understates exact {exact}");
            // width - 1 < exact / 2^SUB_BUCKET_BITS, so integer division is
            // a valid bound check.
            assert!(
                sketched - exact <= exact / (1 << SUB_BUCKET_BITS),
                "p{pct}: {sketched} vs exact {exact} exceeds the 2^-{SUB_BUCKET_BITS} bound",
            );
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let values: Vec<u64> = (0..5_000).map(|i| (i * 2_654_435_761u64) % 100_000).collect();
        // One sketch fed sequentially...
        let mut whole = LatencySketch::new();
        for &v in &values {
            whole.record(v);
        }
        // ...vs chunked sketches merged in forward and reverse order.
        let sketch_of = |chunk: &[u64]| {
            let mut s = LatencySketch::new();
            for &v in chunk {
                s.record(v);
            }
            s
        };
        let chunks: Vec<LatencySketch> = values.chunks(137).map(sketch_of).collect();
        let mut forward = LatencySketch::new();
        for c in &chunks {
            forward.merge(c);
        }
        let mut reverse = LatencySketch::new();
        for c in chunks.iter().rev() {
            reverse.merge(c);
        }
        assert_eq!(forward, whole);
        assert_eq!(reverse, whole);
    }

    #[test]
    fn empty_sketch_reports_zeros() {
        let s = LatencySketch::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(50), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn max_is_exact_even_when_bucketed() {
        let mut s = LatencySketch::new();
        s.record(1_000_003);
        assert_eq!(s.percentile(100), 1_000_003, "upper bound clamps to the exact max");
        assert_eq!(s.max(), 1_000_003);
    }
}
