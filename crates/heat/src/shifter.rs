//! The [`WearShifter`] implementation: turns heat and wear views into
//! the cross-die jobs the idle-die maintenance scheduler dispatches.

use std::sync::{Arc, Mutex};

use ipa_ftl::{BlockDevice, Lba, ReclaimJob, Result, ShardedFtl};
use ipa_maint::WearShifter;

use crate::device::{lock_core, HeatCore};

/// Proposes and executes [`ReclaimJob::Destage`] and
/// [`ReclaimJob::MigrateRange`] jobs from the shared heat state.
///
/// Destage wins over migration: a tier above its high-water mark is
/// immediate pressure (hot writes start spilling), while wear imbalance
/// accumulates over thousands of erases. Migration triggers on per-die
/// erase *deltas* since the last proposal epoch — not lifetime totals —
/// so a historic imbalance that host traffic has since corrected does
/// not keep proposing swaps forever.
pub struct HeatShifter {
    core: Arc<Mutex<HeatCore>>,
    /// Per-die erase counters at the last migration proposal (the epoch
    /// baseline the wear deltas are measured against).
    last_wear: Vec<u64>,
}

impl HeatShifter {
    pub(crate) fn new(core: Arc<Mutex<HeatCore>>) -> Self {
        HeatShifter {
            core,
            last_wear: Vec::new(),
        }
    }

    /// Erase deltas per die since the epoch baseline.
    fn wear_deltas(&self, now: &[u64]) -> Vec<u64> {
        now.iter()
            .enumerate()
            .map(|(d, &e)| e.saturating_sub(self.last_wear.get(d).copied().unwrap_or(0)))
            .collect()
    }

    fn propose_destage(&self, ftl: &ShardedFtl) -> Option<ReclaimJob> {
        let core = lock_core(&self.core);
        if core.tier.occupancy() < core.policy.destage_high_water || core.tier.resident() == 0 {
            return None;
        }
        // Destage coldest-first: the pages least likely to be rewritten
        // in the tier soon, so the hot set keeps its slots. Only pages
        // the main stripe can address are eligible.
        let mut hosts: Vec<Lba> = core
            .tier
            .resident_hosts()
            .into_iter()
            .filter(|&h| ftl.locate(h).is_ok())
            .collect();
        hosts.sort_by_key(|&h| (core.tracker.heat(h), h));
        hosts.truncate(core.policy.destage_batch.max(1));
        if hosts.is_empty() {
            return None;
        }
        Some(ReclaimJob::Destage {
            lbas: hosts,
            next: 0,
        })
    }

    fn propose_migration(&mut self, ftl: &ShardedFtl) -> Option<ReclaimJob> {
        let now = ftl.controller().stats().die_erases;
        let deltas = self.wear_deltas(&now);
        let (&max_d, &min_d) = match (deltas.iter().max(), deltas.iter().min()) {
            (Some(a), Some(b)) => (a, b),
            _ => return None,
        };
        let core = lock_core(&self.core);
        if ftl.dies() < 2 || max_d - min_d < core.policy.migrate_wear_delta {
            return None;
        }
        let worn = deltas.iter().position(|&d| d == max_d).unwrap() as u32;
        let healthy = deltas.iter().rposition(|&d| d == min_d).unwrap() as u32;

        // Hot LBAs on the worn die, hottest first; cold LBAs on the
        // healthy die, coldest first. Greedily pair them where the swap
        // actually moves heat (strictly hotter onto the healthy die) and
        // the slot layouts agree (the stripe refuses mismatches anyway —
        // pre-filtering keeps the job's steps useful).
        let mut hot: Vec<Lba> = ftl.host_lbas_on_die(worn);
        hot.sort_by_key(|&h| (std::cmp::Reverse(core.tracker.heat(h)), h));
        let mut cold: Vec<Lba> = ftl.host_lbas_on_die(healthy);
        cold.sort_by_key(|&h| (core.tracker.heat(h), h));

        let mut pairs: Vec<(Lba, Lba)> = Vec::new();
        let mut used = vec![false; cold.len()];
        for &h in hot.iter().take(core.policy.migrate_batch.max(1)) {
            let hh = core.tracker.heat(h);
            if hh == 0 {
                break;
            }
            let hl = ftl.layout_for(h);
            if let Some(j) = (0..cold.len()).find(|&j| {
                !used[j] && core.tracker.heat(cold[j]) < hh && ftl.layout_for(cold[j]) == hl
            }) {
                used[j] = true;
                pairs.push((h, cold[j]));
            }
            if pairs.len() >= core.policy.migrate_batch.max(1) {
                break;
            }
        }
        drop(core);
        // Reset the epoch whether or not a job came out: the spread has
        // been acted on (or found unactionable) at this wear level.
        self.last_wear = now;
        if pairs.is_empty() {
            None
        } else {
            Some(ReclaimJob::MigrateRange { pairs, next: 0 })
        }
    }
}

impl WearShifter for HeatShifter {
    fn propose(&mut self, ftl: &ShardedFtl) -> Option<ReclaimJob> {
        self.propose_destage(ftl)
            .or_else(|| self.propose_migration(ftl))
    }

    fn next_dies(&self, job: &ReclaimJob, ftl: &ShardedFtl) -> Vec<u32> {
        match job {
            ReclaimJob::MigrateRange { pairs, next } => match pairs.get(*next) {
                Some(&(a, b)) => {
                    let mut dies: Vec<u32> = [a, b]
                        .iter()
                        .filter_map(|&l| ftl.locate(l).ok())
                        .map(|(d, _)| d)
                        .collect();
                    dies.dedup();
                    dies
                }
                None => Vec::new(),
            },
            ReclaimJob::Destage { lbas, next } => lbas
                .get(*next)
                .and_then(|&l| ftl.locate(l).ok())
                .map(|(d, _)| vec![d])
                .unwrap_or_default(),
            ReclaimJob::Gc(_) => Vec::new(),
        }
    }

    fn step(&mut self, job: &mut ReclaimJob, ftl: &mut ShardedFtl) -> Result<bool> {
        match job {
            ReclaimJob::MigrateRange { pairs, next } => {
                let (a, b) = pairs[*next];
                *next += 1;
                let swapped = ftl.swap_stripe(a, b)?;
                let mut core = lock_core(&self.core);
                if swapped {
                    core.stats.range_migrations += 1;
                } else {
                    core.stats.migrations_skipped += 1;
                }
                Ok(*next >= pairs.len())
            }
            ReclaimJob::Destage { lbas, next } => {
                let lba = lbas[*next];
                *next += 1;
                // Copy first, drop the tier entry only once the stripe
                // write landed — a failure mid-destage loses nothing.
                let img = lock_core(&self.core).tier.peek_image(lba)?;
                if let Some(img) = img {
                    ftl.write_batch_cached(&[(lba, img)])?;
                    let mut core = lock_core(&self.core);
                    core.tier.remove(lba)?;
                    core.stats.destaged_pages += 1;
                }
                Ok(*next >= lbas.len())
            }
            // GC jobs belong to the per-die scheduler, not the shifter.
            ReclaimJob::Gc(_) => Ok(true),
        }
    }
}
