//! Small numeric helpers: exact percentiles, medians, the FNV-1a digest
//! and the process's peak resident set.

/// Exact (nearest-rank) percentile of an ascending slice: the smallest
/// sample with at least `q · n` samples at or below it. Returns the value
/// and how many samples lie strictly beyond it in rank.
pub fn exact_percentile(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// A percentile is only worth reporting when at least ten samples lie
/// beyond it (choosing-metrics §1): with fewer, it is the maximum in
/// disguise.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Is percentile `q` supported by `n` samples under the ten-beyond rule?
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank && n - rank >= MIN_SAMPLES_BEYOND
}

/// Median of a non-empty set of floats (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Smallest of a set of floats (`+inf` for an empty set).
pub fn min_of(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash a value through its `Debug` rendering — every stats struct in
    /// the stack derives it, and the rendering names each field, so a new
    /// counter changes the digest instead of being silently skipped.
    pub fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`. `None` where procfs is absent.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(exact_percentile(&s, 0.50), Some((500, 500)));
        assert_eq!(exact_percentile(&s, 0.99), Some((990, 10)));
        assert_eq!(exact_percentile(&s, 0.999), Some((999, 1)));
        assert_eq!(exact_percentile(&s, 1.0), Some((1000, 0)));
        assert_eq!(exact_percentile(&[7], 0.999), Some((7, 0)));
        assert_eq!(exact_percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1 000 samples, p99.9 needs 10 000.
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(1_000, 0.99));
        assert!(!percentile_supported(9_999, 0.999));
        assert!(percentile_supported(10_000, 0.999));
        assert!(percentile_supported(150_000, 0.999));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(!percentile_supported(0, 0.5));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_of([3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut f = Fnv::default();
        f.bytes(b"a");
        assert_eq!(f.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut g = Fnv::default();
        g.debug(&(1u32, "x"));
        let mut h = Fnv::default();
        h.debug(&(2u32, "x"));
        assert_ne!(g.finish(), h.finish());
    }
}
