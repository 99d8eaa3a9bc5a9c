//! The placement policy: thresholds and tier sizing as one plain struct
//! the device and the shifter read, plus the pacing values every caller
//! runs at.

/// Recorded writes between heat-counter halvings.
pub(crate) const DECAY_INTERVAL: u64 = 1024;
/// Pages per destage job (each page is one scheduler step).
pub(crate) const DESTAGE_BATCH: usize = 8;
/// Hot/cold LBA pairs per migration job (each pair is one step).
pub(crate) const MIGRATE_BATCH: usize = 4;

/// The default policy: small tracking ranges, a tier sized at 1/16 of
/// the LBA space, destage at 75 % full, and migration once the die
/// erase spread exceeds 4.
#[derive(Debug, Clone)]
pub struct DefaultPolicy {
    /// LBAs per heat-tracking range (the tracker's bucket size).
    pub range_pages: u64,
    /// Range heat at or above which full-page writes route to the SLC
    /// tier.
    pub hot_threshold: u32,
    /// Hot-tier capacity as a fraction of the exported LBA space.
    pub tier_fraction: f64,
    /// Tier occupancy fraction at which the shifter proposes destage
    /// jobs.
    pub destage_high_water: f64,
    /// Cross-die erase spread (max − min, counted since the last
    /// proposal) at which the shifter proposes wear-shifting migrations.
    pub migrate_wear_delta: u64,
}

impl Default for DefaultPolicy {
    fn default() -> Self {
        DefaultPolicy {
            range_pages: 8,
            hot_threshold: 4,
            tier_fraction: 1.0 / 16.0,
            destage_high_water: 0.75,
            migrate_wear_delta: 4,
        }
    }
}

impl DefaultPolicy {
    pub fn with_hot_threshold(mut self, t: u32) -> Self {
        self.hot_threshold = t;
        self
    }

    pub fn with_tier_fraction(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f < 1.0, "tier fraction in (0,1)");
        self.tier_fraction = f;
        self
    }

    pub fn with_range_pages(mut self, pages: u64) -> Self {
        self.range_pages = pages;
        self
    }

    pub fn with_migrate_wear_delta(mut self, spread: u64) -> Self {
        self.migrate_wear_delta = spread;
        self
    }

    pub fn with_destage_high_water(mut self, frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "high water in (0,1]");
        self.destage_high_water = frac;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_builders_apply() {
        let p = DefaultPolicy::default()
            .with_hot_threshold(9)
            .with_tier_fraction(0.25)
            .with_range_pages(4)
            .with_migrate_wear_delta(2)
            .with_destage_high_water(0.5);
        assert_eq!(p.hot_threshold, 9);
        assert!((p.tier_fraction - 0.25).abs() < 1e-12);
        assert_eq!(p.range_pages, 4);
        assert_eq!(p.migrate_wear_delta, 2);
        assert!((p.destage_high_water - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "tier fraction")]
    fn tier_fraction_must_be_fractional() {
        let _ = DefaultPolicy::default().with_tier_fraction(1.5);
    }
}
