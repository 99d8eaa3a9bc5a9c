//! The heat-placement device: a [`MaintainedFtl`] fronted by the heat
//! tracker and the SLC hot tier, with the wear shifter installed in the
//! maintenance scheduler.

use std::borrow::Borrow;
use std::sync::{Arc, Mutex, MutexGuard};

use ipa_controller::FlashController;
use ipa_core::PageLayout;
use ipa_flash::FlashStats;
use ipa_ftl::{
    BlockDevice, DeviceStats, FtlError, IoCompletion, IoQueue, IoRequest, IoToken, Lba,
    NativeFlashDevice, Result, VectoredCounters,
};
use ipa_maint::{MaintStats, MaintainedFtl};

use crate::policy::DefaultPolicy;
use crate::shifter::HeatShifter;
use crate::stats::HeatStats;
use crate::tier::HotTier;
use crate::tracker::LbaHeatTracker;

/// The state the device and the shifter share: tracker, tier, policy
/// and the subsystem counters. Always lock this *around* heat
/// decisions, never across a call into the wrapped device — the
/// maintenance poll inside every inner command re-enters the core
/// through the shifter.
pub(crate) struct HeatCore {
    pub(crate) tracker: LbaHeatTracker,
    pub(crate) tier: HotTier,
    pub(crate) policy: DefaultPolicy,
    pub(crate) stats: HeatStats,
}

impl HeatCore {
    /// Record heat for a full-page write and try to absorb it in the
    /// tier. Absorbs when the LBA is already resident (the tier holds
    /// the freshest image — routing elsewhere would go stale) or its
    /// range is hot; a full tier spills to the caller.
    fn absorb_write(&mut self, lba: Lba, data: &[u8]) -> Result<bool> {
        self.tracker.record(lba);
        self.stats.writes_seen += 1;
        self.stats.decays = self.tracker.decays();
        let route = self.tier.contains(lba) || self.tracker.is_hot(lba, self.policy.hot_threshold);
        if !route {
            return Ok(false);
        }
        if self.tier.write(lba, data)? {
            self.stats.hot_hits += 1;
            Ok(true)
        } else {
            self.stats.hot_spills += 1;
            Ok(false)
        }
    }

    /// Record heat for a delta append and fold it into a resident tier
    /// image. `Ok(false)` routes the append to the main device.
    fn absorb_delta(
        &mut self,
        lba: Lba,
        offset: usize,
        delta: &[u8],
        layout: Option<PageLayout>,
    ) -> Result<bool> {
        self.tracker.record(lba);
        self.stats.deltas_seen += 1;
        self.stats.decays = self.tracker.decays();
        if !self.tier.contains(lba) {
            return Ok(false);
        }
        let applied = self.tier.apply_delta(lba, offset, delta, layout)?;
        if applied {
            self.stats.tier_rmw_deltas += 1;
        }
        Ok(applied)
    }
}

/// Poison-tolerant core lock (mirrors the stripe's shard locking).
pub(crate) fn lock_core(core: &Arc<Mutex<HeatCore>>) -> MutexGuard<'_, HeatCore> {
    core.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A [`MaintainedFtl`] with heat-based placement on top:
///
/// * every full write and delta append feeds the [`LbaHeatTracker`];
/// * hot-range full writes are absorbed by the SLC [`HotTier`] (reads
///   and delta appends to resident pages are served there too);
/// * a [`HeatShifter`] installed in the maintenance scheduler destages
///   the tier back to the main stripe and re-stripes hot LBA ranges off
///   high-erase-delta dies, both gated on idle dies.
///
/// Tier operations run on the tier chip's own clock; the device horizon
/// ([`BlockDevice::elapsed_ns`]) is the max of both devices, while the
/// per-stream submission clock stays with the main stripe (a tier hit
/// behaves like a controller-buffer hit).
pub struct HeatDevice {
    inner: MaintainedFtl,
    core: Arc<Mutex<HeatCore>>,
    /// Vectored requests this layer serviced itself, member by member.
    vectored: VectoredCounters,
}

impl HeatDevice {
    /// Wrap `inner`, sizing the tracker and tier from `policy`, and
    /// install the wear shifter in `inner`'s scheduler. `policy` is copied
    /// out of the box; the parameter is a trait object only because the
    /// frozen `benchmark/` crate calls `new(_, Box::new(DefaultPolicy::default()))`
    /// and its `clippy -D warnings` accepts that expression only where
    /// it coerces to `dyn`.
    pub fn new(mut inner: MaintainedFtl, policy: Box<dyn Borrow<DefaultPolicy>>) -> Self {
        let policy: DefaultPolicy = (*policy).borrow().clone();
        let capacity = inner.capacity_pages();
        let page_size = inner.page_size();
        let tracker = LbaHeatTracker::new(capacity, policy.range_pages, policy.decay_interval);
        let slots = ((capacity as f64 * policy.tier_fraction).ceil() as u64).max(4);
        let tier = HotTier::new(page_size, slots);
        let core = Arc::new(Mutex::new(HeatCore {
            tracker,
            tier,
            policy,
            stats: HeatStats::default(),
        }));
        inner.set_wear_shifter(Box::new(HeatShifter::new(Arc::clone(&core))));
        HeatDevice {
            inner,
            core,
            vectored: VectoredCounters::default(),
        }
    }

    /// The heat subsystem's counters, with the tier gauges refreshed.
    pub fn heat_stats(&self) -> HeatStats {
        let mut core = lock_core(&self.core);
        core.stats.tier_resident = core.tier.resident();
        core.stats.tier_slots = core.tier.slots();
        core.stats
    }

    /// The wrapped maintenance scheduler's counters.
    pub fn maint_stats(&self) -> MaintStats {
        self.inner.maint_stats()
    }

    /// Raw counters of the tier's own chip.
    pub fn tier_flash_stats(&self) -> FlashStats {
        lock_core(&self.core).tier.flash_stats()
    }

    /// Run every shard's exhaustive invariant check.
    pub fn check_invariants(&self) {
        self.inner.check_invariants();
    }

    /// Token of a request this layer serviced itself, complete already.
    fn own_token(&self, data: Vec<Vec<u8>>, rejected: Vec<usize>, t0: u64) -> IoToken {
        IoToken::immediate(IoCompletion {
            data,
            rejected,
            submitted_ns: t0,
            done_ns: self.inner.submission_clock_ns(),
        })
    }
}

impl BlockDevice for HeatDevice {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        let hit = {
            let mut core = lock_core(&self.core);
            let hit = core.tier.read(lba, buf)?;
            if hit {
                core.stats.tier_read_hits += 1;
            }
            hit
        };
        if hit {
            self.inner.poll_now()
        } else {
            self.inner.read(lba, buf)
        }
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        let absorbed = lock_core(&self.core).absorb_write(lba, data)?;
        if absorbed {
            self.inner.poll_now()
        } else {
            self.inner.write(lba, data)
        }
    }

    fn trim(&mut self, lba: Lba) -> Result<()> {
        lock_core(&self.core).tier.remove(lba)?;
        self.inner.trim(lba)
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        lock_core(&self.core).tier.contains(lba) || self.inner.is_mapped(lba)
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        self.inner.layout_for(lba)
    }

    /// Host counters of the whole placement stack: the main stripe plus
    /// the tier's host-facing traffic (absorbed writes/hits are host
    /// commands too), plus this layer's queued-path counters.
    fn device_stats(&self) -> DeviceStats {
        let mut d = self.vectored.fold_into(self.inner.device_stats());
        let t = lock_core(&self.core).tier.device_stats();
        d.host_reads += t.host_reads;
        d.host_writes += t.host_writes;
        d.bytes_host_read += t.bytes_host_read;
        d.bytes_host_written += t.bytes_host_written;
        d
    }

    /// Raw flash counters over main dies *and* the tier chip — wear and
    /// traffic on the reserved SLC set stay visible.
    fn flash_stats(&self) -> FlashStats {
        self.inner
            .flash_stats()
            .merged(&lock_core(&self.core).tier.flash_stats())
    }

    fn elapsed_ns(&self) -> u64 {
        self.inner
            .elapsed_ns()
            .max(lock_core(&self.core).tier.elapsed_ns())
    }

    /// Peak wear of the *main* stripe — the tier is a separate
    /// high-endurance SLC reserve whose wear is reported in the heat
    /// section, not mixed into the data device's longevity number.
    fn max_erase_count(&self) -> u32 {
        self.inner.max_erase_count()
    }

    fn raw_blocks(&self) -> u32 {
        self.inner.raw_blocks()
    }

    fn controller(&self) -> Option<&Arc<FlashController>> {
        self.inner.controller()
    }

    fn set_submission_clock_ns(&mut self, ns: u64) {
        self.inner.set_submission_clock_ns(ns);
    }

    fn submission_clock_ns(&self) -> u64 {
        self.inner.submission_clock_ns()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl NativeFlashDevice for HeatDevice {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()> {
        let layout = self.inner.layout_for(lba);
        let absorbed = lock_core(&self.core).absorb_delta(lba, offset, delta_bytes, layout)?;
        if absorbed {
            self.inner.poll_now()
        } else {
            self.inner.write_delta(lba, offset, delta_bytes)
        }
    }
}

/// The queued face. Requests with no tier involvement forward verbatim
/// (keeping the stripe's posted overlap); a request touching a resident
/// or hot page is serviced member-by-member through the tier-aware sync
/// paths and completes at submission: its token is *immediate*
/// ([`IoToken::is_posted`] is false) and redeeming it touches neither the
/// stripe nor the scheduler. A forwarded request's token is the stripe's.
impl IoQueue for HeatDevice {
    fn submit(&mut self, req: IoRequest) -> Result<IoToken> {
        match req {
            IoRequest::ReadV(ref lbas) | IoRequest::HighPriorityReadV(ref lbas) => {
                let any_resident = {
                    let core = lock_core(&self.core);
                    lbas.iter().any(|&l| core.tier.contains(l))
                };
                if !any_resident {
                    return self.inner.submit(req);
                }
                self.vectored.count_request(&req);
                let t0 = self.inner.submission_clock_ns();
                let ps = self.page_size();
                let mut data = Vec::with_capacity(lbas.len());
                for &lba in lbas {
                    let mut buf = vec![0u8; ps];
                    self.read(lba, &mut buf)?;
                    data.push(buf);
                }
                Ok(self.own_token(data, Vec::new(), t0))
            }
            IoRequest::WriteV(pages) => {
                let mut remainder = Vec::with_capacity(pages.len());
                {
                    let mut core = lock_core(&self.core);
                    for (lba, data) in pages {
                        if !core.absorb_write(lba, &data)? {
                            remainder.push((lba, data));
                        }
                    }
                }
                if remainder.is_empty() {
                    let t0 = self.inner.submission_clock_ns();
                    self.inner.poll_now()?;
                    Ok(self.own_token(Vec::new(), Vec::new(), t0))
                } else {
                    // Heat for the spilled members is already recorded;
                    // the stripe just programs them.
                    self.inner.submit(IoRequest::WriteV(remainder))
                }
            }
            IoRequest::WriteDelta { lba, offset, delta } => {
                let layout = self.inner.layout_for(lba);
                let absorbed = lock_core(&self.core).absorb_delta(lba, offset, &delta, layout)?;
                if absorbed {
                    let t0 = self.inner.submission_clock_ns();
                    self.inner.poll_now()?;
                    Ok(self.own_token(Vec::new(), Vec::new(), t0))
                } else {
                    self.inner
                        .submit(IoRequest::WriteDelta { lba, offset, delta })
                }
            }
            IoRequest::WriteDeltaV(ref members) => {
                let any_resident = {
                    let core = lock_core(&self.core);
                    members.iter().any(|(l, _, _)| core.tier.contains(*l))
                };
                if !any_resident {
                    // Record heat before forwarding — the stripe has no
                    // tracker.
                    {
                        let mut core = lock_core(&self.core);
                        for (lba, _, _) in members {
                            core.tracker.record(*lba);
                            core.stats.deltas_seen += 1;
                        }
                        core.stats.decays = core.tracker.decays();
                    }
                    return self.inner.submit(req);
                }
                self.vectored.count_request(&req);
                let t0 = self.inner.submission_clock_ns();
                // Mixed batch: service every member through the sync
                // path, mirroring the stripe's per-member rejection
                // contract (an in-place rejection is reported, not
                // fatal; tier RMWs never reject).
                let mut rejected = Vec::new();
                for (i, (lba, offset, delta)) in members.iter().enumerate() {
                    match self.write_delta(*lba, *offset, delta) {
                        Ok(()) => {}
                        Err(FtlError::InPlaceRejected { .. }) => rejected.push(i),
                        Err(e) => return Err(e),
                    }
                }
                Ok(self.own_token(Vec::new(), rejected, t0))
            }
            IoRequest::Trim(lba) => {
                lock_core(&self.core).tier.remove(lba)?;
                self.inner.submit(IoRequest::Trim(lba))
            }
            IoRequest::Flush => self.inner.submit(IoRequest::Flush),
        }
    }

    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion> {
        if token.is_posted() {
            self.inner.poll_checked(token)
        } else {
            Ok(token.into_completion())
        }
    }

    fn sync(&mut self) -> u64 {
        let merged = self.inner.sync();
        merged.max(lock_core(&self.core).tier.elapsed_ns())
    }

    fn forget(&mut self, token: IoToken) {
        if token.is_posted() {
            self.inner.forget(token);
        }
    }
}
