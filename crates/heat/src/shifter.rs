//! The [`WearShifter`] face of the heat core: turns heat and wear views
//! into the cross-die steps the idle-die maintenance scheduler
//! dispatches.
//!
//! Destage wins over migration: a tier above its high-water mark is
//! immediate pressure (hot writes start spilling), while wear imbalance
//! accumulates over thousands of erases. Migration triggers on per-die
//! erase *deltas* since the last proposal epoch — not lifetime totals —
//! so a historic imbalance that host traffic has since corrected does
//! not keep proposing swaps forever.

use std::collections::VecDeque;

use ipa_ftl::{BlockDevice, Lba, Result, ShardedFtl};
use ipa_maint::{ShiftStep, WearShifter};

use crate::device::HeatCore;
use crate::policy::{DESTAGE_BATCH, MIGRATE_BATCH};

/// One scheduler step's worth of a shift job.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShiftUnit {
    /// Write this tier-resident host page back to the main stripe.
    Destage(Lba),
    /// Wear shifting: swap a hot host LBA with a cold partner on a
    /// less-worn die ([`ShardedFtl::swap_stripe`]).
    Swap(Lba, Lba),
}

impl HeatCore {
    fn propose_destage(&self, ftl: &ShardedFtl) -> VecDeque<ShiftUnit> {
        if self.tier.occupancy() < self.policy.destage_high_water || self.tier.resident() == 0 {
            return VecDeque::new();
        }
        // Destage coldest-first: the pages least likely to be rewritten
        // in the tier soon, so the hot set keeps its slots. Only pages
        // the main stripe can address are eligible.
        let mut hosts: Vec<Lba> = self
            .tier
            .resident_hosts()
            .into_iter()
            .filter(|&h| ftl.locate(h).is_ok())
            .collect();
        hosts.sort_by_key(|&h| (self.tracker.heat(h), h));
        hosts.truncate(DESTAGE_BATCH);
        hosts.into_iter().map(ShiftUnit::Destage).collect()
    }

    fn propose_migration(&mut self, ftl: &ShardedFtl) -> VecDeque<ShiftUnit> {
        let now = ftl.controller().stats().die_erases;
        // Erase deltas per die since the epoch baseline.
        let baseline = |d: usize| self.last_wear.get(d).copied().unwrap_or(0);
        let deltas: Vec<u64> = (0..now.len())
            .map(|d| now[d].saturating_sub(baseline(d)))
            .collect();
        let (Some(&max_d), Some(&min_d)) = (deltas.iter().max(), deltas.iter().min()) else {
            return VecDeque::new();
        };
        if ftl.dies() < 2 || max_d - min_d < self.policy.migrate_wear_delta {
            return VecDeque::new();
        }
        let worn = deltas.iter().position(|&d| d == max_d).unwrap() as u32;
        let healthy = deltas.iter().rposition(|&d| d == min_d).unwrap() as u32;

        // Hot LBAs on the worn die, hottest first; cold LBAs on the
        // healthy die, coldest first. Greedily pair them where the swap
        // actually moves heat (strictly hotter onto the healthy die) and
        // the slot layouts agree (the stripe refuses mismatches anyway —
        // pre-filtering keeps the job's steps useful).
        let mut hot: Vec<Lba> = ftl.host_lbas_on_die(worn);
        hot.sort_by_key(|&h| (std::cmp::Reverse(self.tracker.heat(h)), h));
        let mut cold: Vec<Lba> = ftl.host_lbas_on_die(healthy);
        cold.sort_by_key(|&h| (self.tracker.heat(h), h));

        let mut pairs = VecDeque::new();
        let mut used = vec![false; cold.len()];
        for &h in hot.iter().take(MIGRATE_BATCH) {
            let hh = self.tracker.heat(h);
            if hh == 0 {
                break;
            }
            let hl = ftl.layout_for(h);
            if let Some(j) = (0..cold.len()).find(|&j| {
                !used[j] && self.tracker.heat(cold[j]) < hh && ftl.layout_for(cold[j]) == hl
            }) {
                used[j] = true;
                pairs.push_back(ShiftUnit::Swap(h, cold[j]));
            }
        }
        // Reset the epoch whether or not a job came out: the spread has
        // been acted on (or found unactionable) at this wear level.
        self.last_wear = now;
        pairs
    }

    fn run(&mut self, unit: ShiftUnit, ftl: &mut ShardedFtl) -> Result<ShiftStep> {
        match unit {
            ShiftUnit::Swap(a, b) => {
                if ftl.swap_stripe(a, b)? {
                    self.stats.range_migrations += 1;
                } else {
                    self.stats.migrations_skipped += 1;
                }
                Ok(ShiftStep::Migrated)
            }
            ShiftUnit::Destage(lba) => {
                // Copy first, drop the tier entry only once the stripe
                // write landed — a failure mid-destage loses nothing.
                if let Some(img) = self.tier.peek_image(lba)? {
                    ftl.write_batch_cached(&[(lba, img)])?;
                    self.tier.remove(lba)?;
                    self.stats.destaged_pages += 1;
                }
                Ok(ShiftStep::Destaged)
            }
        }
    }
}

impl WearShifter for HeatCore {
    fn next_dies(&mut self, ftl: &ShardedFtl) -> Option<Vec<u32>> {
        if self.job.is_empty() {
            self.job = self.propose_destage(ftl);
        }
        if self.job.is_empty() {
            self.job = self.propose_migration(ftl);
        }
        let lbas = match *self.job.front()? {
            ShiftUnit::Destage(lba) => [lba, lba],
            ShiftUnit::Swap(a, b) => [a, b],
        };
        let mut dies: Vec<u32> = lbas
            .iter()
            .filter_map(|&l| ftl.locate(l).ok())
            .map(|(d, _)| d)
            .collect();
        dies.dedup();
        Some(dies)
    }

    fn step(&mut self, ftl: &mut ShardedFtl) -> Result<ShiftStep> {
        let unit = self.job.pop_front().expect("next_dies named this step");
        let done = self.run(unit, ftl);
        if done.is_err() {
            // A failed job is abandoned, not resumed: the next poll
            // proposes afresh from the tier and wear state as they stand.
            self.job.clear();
        }
        done
    }
}
