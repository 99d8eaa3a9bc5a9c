//! Decaying per-LBA-range write-frequency tracking.

use ipa_ftl::Lba;

/// Bounded, decaying write/delta frequency counters over fixed-size LBA
/// ranges.
///
/// Memory is O(capacity / range_pages) — one saturating `u32` per range,
/// never per LBA — so the tracker fits in firmware-sized state however
/// large the exported LBA space is. Every [`LbaHeatTracker::record`]
/// bumps the range the LBA falls in; every `decay_interval` records all
/// counters are halved, so heat is an exponential moving count: a range
/// that stops being written cools to zero in a few intervals instead of
/// staying hot forever (the classic aging scheme, e.g. "On Efficient
/// Wear Leveling for Large-Scale Flash-Memory Storage Systems").
#[derive(Debug, Clone)]
pub struct LbaHeatTracker {
    counters: Vec<u32>,
    range_pages: u64,
    decay_interval: u64,
    /// Records since the last halving.
    since_decay: u64,
    decays: u64,
    total_records: u64,
}

impl LbaHeatTracker {
    /// Track `capacity_pages` LBAs in buckets of `range_pages`, halving
    /// all counters every `decay_interval` recorded writes.
    pub fn new(capacity_pages: u64, range_pages: u64, decay_interval: u64) -> Self {
        assert!(range_pages > 0, "range_pages must be positive");
        assert!(decay_interval > 0, "decay_interval must be positive");
        let ranges = capacity_pages.div_ceil(range_pages).max(1) as usize;
        LbaHeatTracker {
            counters: vec![0; ranges],
            range_pages,
            decay_interval,
            since_decay: 0,
            decays: 0,
            total_records: 0,
        }
    }

    /// The range index `lba` falls in.
    #[inline]
    pub fn range_of(&self, lba: Lba) -> usize {
        ((lba / self.range_pages) as usize).min(self.counters.len() - 1)
    }

    /// Number of ranges tracked (the memory bound).
    #[inline]
    pub fn ranges(&self) -> usize {
        self.counters.len()
    }

    /// Count one write (or delta append) against `lba`'s range.
    pub fn record(&mut self, lba: Lba) {
        let r = self.range_of(lba);
        self.counters[r] = self.counters[r].saturating_add(1);
        self.total_records += 1;
        self.since_decay += 1;
        if self.since_decay >= self.decay_interval {
            self.since_decay = 0;
            self.decays += 1;
            for c in &mut self.counters {
                *c >>= 1;
            }
        }
    }

    /// Current heat of `lba`'s range.
    #[inline]
    pub fn heat(&self, lba: Lba) -> u32 {
        self.counters[self.range_of(lba)]
    }

    /// Is `lba`'s range at or above `threshold`?
    #[inline]
    pub fn is_hot(&self, lba: Lba, threshold: u32) -> bool {
        self.heat(lba) >= threshold
    }

    /// The raw per-range counters (metrics export).
    #[inline]
    pub fn snapshot(&self) -> &[u32] {
        &self.counters
    }

    /// Halvings applied so far.
    #[inline]
    pub fn decays(&self) -> u64 {
        self.decays
    }

    /// Writes recorded over the tracker's lifetime.
    #[inline]
    pub fn total_records(&self) -> u64 {
        self.total_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_is_bounded_by_range_count() {
        let t = LbaHeatTracker::new(1 << 30, 1 << 20, 1000);
        assert_eq!(t.ranges(), 1024);
        let t = LbaHeatTracker::new(100, 8, 1000);
        assert_eq!(t.ranges(), 13);
        // Degenerate capacities still get one bucket.
        assert_eq!(LbaHeatTracker::new(0, 8, 10).ranges(), 1);
    }

    #[test]
    fn records_accumulate_per_range() {
        let mut t = LbaHeatTracker::new(64, 8, 1_000_000);
        for _ in 0..5 {
            t.record(3); // range 0
        }
        t.record(9); // range 1
        assert_eq!(t.heat(0), 5);
        assert_eq!(t.heat(7), 5, "same range shares the counter");
        assert_eq!(t.heat(9), 1);
        assert_eq!(t.heat(63), 0);
        assert!(t.is_hot(3, 5));
        assert!(!t.is_hot(9, 5));
        assert_eq!(t.total_records(), 6);
    }

    #[test]
    fn decay_halves_every_counter() {
        let mut t = LbaHeatTracker::new(64, 8, 10);
        for _ in 0..8 {
            t.record(0);
        }
        t.record(60); // 9th record
        assert_eq!(t.decays(), 0);
        t.record(60); // 10th record trips the halving
        assert_eq!(t.decays(), 1);
        assert_eq!(t.heat(0), 4, "8 -> 4");
        assert_eq!(t.heat(60), 1, "2 -> 1");
        // Idle ranges cool to zero after a few more intervals.
        for _ in 0..30 {
            t.record(60);
        }
        assert_eq!(t.heat(0), 0);
        assert!(t.heat(60) > 0);
    }

    #[test]
    fn out_of_range_lba_clamps_to_last_bucket() {
        let mut t = LbaHeatTracker::new(16, 8, 1000);
        t.record(1_000_000);
        assert_eq!(t.heat(15), 1);
    }
}
