//! The heat-placement device: a [`MaintainedFtl`] fronted by the heat
//! tracker and the SLC hot tier, with the heat core installed in the
//! maintenance scheduler as its wear shifter.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;

use ipa_controller::FlashController;
use ipa_core::PageLayout;
use ipa_flash::FlashStats;
use ipa_ftl::{
    BlockDevice, DeviceStats, FtlError, IoCompletion, IoQueue, IoRequest, IoToken, Lba,
    NativeFlashDevice, Result, VectoredCounters,
};
use ipa_maint::{MaintStats, MaintainedFtl};

use crate::policy::{DefaultPolicy, DECAY_INTERVAL};
use crate::shifter::ShiftUnit;
use crate::stats::HeatStats;
use crate::tier::HotTier;
use crate::tracker::LbaHeatTracker;

/// All heat-placement state: tracker, tier, policy, counters and the
/// shift job in flight. Owned by the wrapped device's scheduler, which
/// drives it as its [`ipa_maint::WearShifter`] (`shifter.rs`).
pub(crate) struct HeatCore {
    pub(crate) tracker: LbaHeatTracker,
    pub(crate) tier: HotTier,
    pub(crate) policy: DefaultPolicy,
    pub(crate) stats: HeatStats,
    /// The shift job being stepped across polls: its remaining units,
    /// next first. Empty between jobs.
    pub(crate) job: VecDeque<ShiftUnit>,
    /// Per-die erase counters at the last migration proposal (the epoch
    /// baseline the wear deltas are measured against).
    pub(crate) last_wear: Vec<u64>,
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

/// A [`MaintainedFtl`] with heat-based placement on top:
///
/// * every full write and delta append feeds the [`LbaHeatTracker`];
/// * hot-range full writes are absorbed by the SLC [`HotTier`] (reads
///   and delta appends to resident pages are served there too);
/// * the maintenance scheduler, stepping the heat state as its
///   [`ipa_maint::WearShifter`], destages the tier back to the main
///   stripe and re-stripes hot LBA ranges off high-erase-delta dies,
///   both gated on idle dies.
///
/// The heat state lives *in* the wrapped device's scheduler; this layer
/// borrows it ([`MaintainedFtl::shifter_mut`]) around inner commands,
/// never during one — nothing is shared, nothing is locked.
///
/// Tier operations run on the tier chip's own clock; the device horizon
/// ([`BlockDevice::elapsed_ns`]) is the max of both devices, while the
/// per-stream submission clock stays with the main stripe (a tier hit
/// behaves like a controller-buffer hit).
pub struct HeatDevice {
    inner: MaintainedFtl<HeatCore>,
    /// Vectored requests this layer serviced itself, member by member.
    vectored: VectoredCounters,
}

impl HeatDevice {
    /// Wrap `inner`, sizing the tracker and tier from `policy`, and
    /// install the heat state as the wear shifter of `inner`'s scheduler.
    /// `policy` is copied out of the box; the parameter is a trait object
    /// only because the frozen `benchmark/` crate calls
    /// `new(_, Box::new(DefaultPolicy::default()))` and its
    /// `clippy -D warnings` accepts that expression only where it coerces
    /// to `dyn`.
    pub fn new(inner: MaintainedFtl, policy: Box<dyn Borrow<DefaultPolicy>>) -> Self {
        let policy: DefaultPolicy = (*policy).borrow().clone();
        let capacity = inner.capacity_pages();
        let slots = ((capacity as f64 * policy.tier_fraction).ceil() as u64).max(4);
        let core = HeatCore {
            tracker: LbaHeatTracker::new(capacity, policy.range_pages, DECAY_INTERVAL),
            tier: HotTier::new(inner.page_size(), slots),
            policy,
            stats: HeatStats::default(),
            job: VecDeque::new(),
            last_wear: Vec::new(),
        };
        HeatDevice {
            inner: inner.with_shifter(core),
            vectored: VectoredCounters::default(),
        }
    }

    /// The heat subsystem's counters, with the tier gauges refreshed.
    pub fn heat_stats(&self) -> HeatStats {
        let core = self.inner.shifter();
        HeatStats {
            tier_resident: core.tier.resident(),
            tier_slots: core.tier.slots(),
            ..core.stats
        }
    }

    /// The wrapped maintenance scheduler's counters.
    pub fn maint_stats(&self) -> MaintStats {
        self.inner.maint_stats()
    }

    /// Raw counters of the tier's own chip.
    pub fn tier_flash_stats(&self) -> FlashStats {
        self.inner.shifter().tier.flash_stats()
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
        let core = self.inner.shifter_mut();
        if core.tier.read(lba, buf)? {
            core.stats.tier_read_hits += 1;
            self.inner.poll_now()
        } else {
            self.inner.read(lba, buf)
        }
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        if self.inner.shifter_mut().absorb_write(lba, data)? {
            self.inner.poll_now()
        } else {
            self.inner.write(lba, data)
        }
    }

    fn trim(&mut self, lba: Lba) -> Result<()> {
        self.inner.shifter_mut().tier.remove(lba)?;
        self.inner.trim(lba)
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        self.inner.shifter().tier.contains(lba) || self.inner.is_mapped(lba)
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        self.inner.layout_for(lba)
    }

    /// Host counters of the whole placement stack: the main stripe plus
    /// the tier's host-facing traffic (absorbed writes/hits are host
    /// commands too), plus this layer's queued-path counters.
    fn device_stats(&self) -> DeviceStats {
        let mut d = self.vectored.fold_into(self.inner.device_stats());
        let t = self.inner.shifter().tier.device_stats();
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
            .merged(&self.inner.shifter().tier.flash_stats())
    }

    fn elapsed_ns(&self) -> u64 {
        self.inner
            .elapsed_ns()
            .max(self.inner.shifter().tier.elapsed_ns())
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
        let core = self.inner.shifter_mut();
        if core.absorb_delta(lba, offset, delta_bytes, layout)? {
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
            IoRequest::ReadV(ref lbas) => {
                let tier = &self.inner.shifter().tier;
                if !lbas.iter().any(|&l| tier.contains(l)) {
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
                let core = self.inner.shifter_mut();
                let mut remainder = Vec::with_capacity(pages.len());
                for (lba, data) in pages {
                    if !core.absorb_write(lba, &data)? {
                        remainder.push((lba, data));
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
            IoRequest::WriteDeltaV(ref members) => {
                let core = self.inner.shifter_mut();
                if !members.iter().any(|(l, _, _)| core.tier.contains(*l)) {
                    // Record heat before forwarding — the stripe has no
                    // tracker.
                    for (lba, _, _) in members {
                        core.tracker.record(*lba);
                        core.stats.deltas_seen += 1;
                    }
                    core.stats.decays = core.tracker.decays();
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
        merged.max(self.inner.shifter().tier.elapsed_ns())
    }

    fn forget(&mut self, token: IoToken) {
        if token.is_posted() {
            self.inner.forget(token);
        }
    }
}
