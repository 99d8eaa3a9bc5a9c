//! Die-striped FTL: one sub-FTL per die behind the multi-channel
//! controller, with host LBAs striped across the dies.
//!
//! [`ShardedFtl`] exports the same [`BlockDevice`] / [`NativeFlashDevice`]
//! contract as a single [`Ftl`], but maps each host LBA to a
//! `(die, sub-LBA)` pair and routes the command through that die's
//! scheduled handle. Two stripe policies:
//!
//! * [`StripePolicy::RoundRobin`] — `die = lba % dies`. Consecutive pages
//!   alternate channels (die `d` sits on channel `d % channels`), so
//!   sequential scans and read-ahead get maximal bus overlap.
//! * [`StripePolicy::Hash`] — `die = splitmix64(lba) % dies`. Decorrelates
//!   the stripe from access patterns that are themselves strided.
//!
//! Sub-LBAs are assigned by a per-die counter while scanning host LBAs in
//! order. Because the counter is monotonic, the host LBAs of one region
//! (a contiguous host range) land in a *contiguous* sub-LBA range on every
//! die — which is what lets each shard keep an ordinary [`RegionTable`]
//! and preserve per-region IPA semantics (NoFTL-region layouts, selective
//! formatting) under any stripe policy.
//!
//! GC, wear levelling and over-provisioning run independently per die,
//! exactly like the per-die FTL partitions in real multi-die SSD firmware.
//!
//! ## Threading
//!
//! The stripe is `Send + Sync`: the controller is shared by `Arc`, each
//! shard sits behind its own mutex (die-local traffic from different
//! threads contends only when it lands on the same die), and the queued
//! face keeps no state (a completion travels in its [`IoToken`]). Every
//! operation is available through `&self` (`read_shared`/`submit_io`/
//! `poll_io_checked`/`sync`/...), and those `&self` twins lock the shard
//! they touch, so the threaded driver and `TenantDevice` share a plain
//! `Arc<ShardedFtl>`.
//!
//! The `&mut` face takes no shard lock: [`BlockDevice::read`] /
//! [`BlockDevice::write`] / [`BlockDevice::trim`],
//! [`NativeFlashDevice::write_delta`], [`ShardedFtl::swap_stripe`],
//! [`ShardedFtl::write_batch_cached`] and the maintenance scheduler's poll
//! reach their shard through [`ShardedFtl::shard_mut`] — exclusive
//! ownership already rules out a second submitter. The point read's logic
//! is shared by both faces, which differ only in how they reach the shard.
//! The queued [`IoQueue`] impl still forwards to the `&self` twins.
//! [`BlockDevice::layout_for`] takes no lock on either face: regions never
//! change after construction, and [`ShardedFtl::swap_stripe`] only swaps
//! slots of equal layout, so the host-level region table answers it.

use std::sync::{Arc, Mutex, MutexGuard};

use ipa_controller::{CmdContext, ControllerConfig, DieHandle, FlashController, Lane};
use ipa_core::PageLayout;
use ipa_flash::FlashStats;

use crate::error::{FtlError, Lba, Result};
use crate::ftl::{exported_capacity, Ftl, FtlConfig};
use crate::interface::{
    BlockDevice, IoCompletion, IoQueue, IoRequest, IoToken, NativeFlashDevice, VectoredCounters,
};
use crate::region::{Region, RegionTable};
use crate::stats::DeviceStats;

/// Poison-transparent lock (a panicking sibling thread must not wedge
/// invariant checks and stats reads — shard state is plain data).
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How host LBAs are spread across dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StripePolicy {
    /// `die = lba % dies`: adjacent LBAs on adjacent dies/channels.
    RoundRobin,
    /// `die = splitmix64(lba) % dies`: pattern-independent spread.
    Hash,
}

impl StripePolicy {
    /// The die a host LBA stripes to.
    #[inline]
    pub fn die_of(self, lba: Lba, dies: u32) -> u32 {
        match self {
            StripePolicy::RoundRobin => (lba % dies as u64) as u32,
            StripePolicy::Hash => (splitmix64(lba) % dies as u64) as u32,
        }
    }
}

/// SplitMix64 finalizer — cheap, deterministic, well-mixed.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A die-striped FTL over a [`FlashController`].
pub struct ShardedFtl {
    ctrl: Arc<FlashController>,
    shards: Vec<Mutex<Ftl<DieHandle>>>,
    /// Host LBA → (die, sub-LBA). Immutable after construction, so the
    /// hot translation path never takes a lock.
    map: Vec<(u32, Lba)>,
    /// The host-level regions and default layout every shard's table was
    /// derived from: [`BlockDevice::layout_for`] answers from them.
    regions: RegionTable,
    default_layout: Option<PageLayout>,
    policy: StripePolicy,
    capacity: u64,
    vectored: VectoredCounters,
}

// Shared across host threads by the fleet and the threaded driver.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedFtl>();
};

impl ShardedFtl {
    /// Stripe over a controller topology with an empty region table.
    pub fn new(cfg: ControllerConfig, ftl_config: FtlConfig, policy: StripePolicy) -> Self {
        Self::with_regions(cfg, ftl_config, policy, RegionTable::new())
    }

    /// Stripe over a controller topology with host-level NoFTL regions.
    /// Region LBA ranges refer to *host* LBAs; they are translated into
    /// per-die sub-LBA regions here.
    pub fn with_regions(
        cfg: ControllerConfig,
        ftl_config: FtlConfig,
        policy: StripePolicy,
        regions: RegionTable,
    ) -> Self {
        let dies = cfg.dies();
        let shard_cap = exported_capacity(&cfg.chip.geometry, cfg.chip.mode);

        // Assign sub-LBAs die by die, in host-LBA order, until some die
        // fills up — the host space must stay contiguous, so the first
        // full die caps the exported capacity (round-robin loses nothing;
        // hash loses a sliver to stripe imbalance).
        let mut map: Vec<(u32, Lba)> = Vec::with_capacity((dies as u64 * shard_cap) as usize);
        let mut counters = vec![0u64; dies as usize];
        for lba in 0..dies as u64 * shard_cap {
            let die = policy.die_of(lba, dies);
            let sub = counters[die as usize];
            if sub >= shard_cap {
                break;
            }
            counters[die as usize] += 1;
            map.push((die, sub));
        }
        let capacity = map.len() as u64;

        // Translate host regions into per-die sub-LBA regions. Contiguity
        // of each (region × die) sub-range is guaranteed by the monotonic
        // counters above.
        let mut per_die: Vec<RegionTable> = (0..dies).map(|_| RegionTable::new()).collect();
        for r in regions.iter() {
            assert!(
                r.lbas.end <= capacity,
                "region '{}' ends at {} but the striped device exports {} pages",
                r.name,
                r.lbas.end,
                capacity
            );
            let mut bounds: Vec<Option<(Lba, Lba)>> = vec![None; dies as usize];
            for lba in r.lbas.clone() {
                let (die, sub) = map[lba as usize];
                let b = &mut bounds[die as usize];
                *b = match *b {
                    None => Some((sub, sub + 1)),
                    Some((lo, hi)) => Some((lo.min(sub), hi.max(sub + 1))),
                };
            }
            for (die, b) in bounds.into_iter().enumerate() {
                if let Some((lo, hi)) = b {
                    per_die[die].add(Region {
                        name: r.name.clone(),
                        lbas: lo..hi,
                        layout: r.layout,
                    });
                }
            }
        }

        let ctrl = FlashController::shared(cfg);
        let default_layout = ftl_config.default_layout;
        let shards = FlashController::handles(&ctrl)
            .into_iter()
            .zip(per_die)
            .map(|(handle, regions)| {
                Mutex::new(Ftl::with_regions(handle, ftl_config.clone(), regions))
            })
            .collect();
        ShardedFtl {
            ctrl,
            shards,
            map,
            regions,
            default_layout,
            policy,
            capacity,
            vectored: VectoredCounters::default(),
        }
    }

    /// The controller behind the stripes.
    pub fn controller(&self) -> &Arc<FlashController> {
        &self.ctrl
    }

    /// Barrier: flush every shard's plane-pairing window (a parked write
    /// has been acknowledged but not yet programmed), then wait for every
    /// posted command on every die; returns the merged simulated time.
    pub fn sync(&self) -> u64 {
        for s in &self.shards {
            lock(s).drain_staged().expect("draining a staged program");
        }
        self.ctrl.sync()
    }

    /// Number of dies the stripe spans.
    pub fn dies(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Stripe policy in force.
    pub fn policy(&self) -> StripePolicy {
        self.policy
    }

    /// One die's sub-FTL, locked for the guard's lifetime. The guard
    /// derefs mutably, so this covers both inspection and the maintenance
    /// scheduler's reclaim stepping; keep it short-lived — the die's host
    /// traffic from other threads queues behind it.
    pub fn shard(&self, die: u32) -> MutexGuard<'_, Ftl<DieHandle>> {
        lock(&self.shards[die as usize])
    }

    /// One die's sub-FTL through exclusive ownership: no lock is taken
    /// (`&mut self` already excludes every other submitter). Recovers from
    /// a poisoned mutex like [`ShardedFtl::shard`].
    pub fn shard_mut(&mut self, die: u32) -> &mut Ftl<DieHandle> {
        self.shards[die as usize]
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Host LBA → (die, sub-LBA) translation.
    #[inline]
    pub fn locate(&self, lba: Lba) -> Result<(u32, Lba)> {
        self.map
            .get(lba as usize)
            .copied()
            .ok_or(FtlError::LbaOutOfRange {
                lba,
                capacity: self.capacity,
            })
    }

    /// Run every shard's exhaustive invariant check.
    pub fn check_invariants(&self) {
        for s in &self.shards {
            lock(s).check_invariants();
        }
    }

    /// Every host LBA currently striped to `die`, in host order — the
    /// candidate pool a placement policy picks hot/cold migration pairs
    /// from. O(capacity); call from planning, not hot paths.
    pub fn host_lbas_on_die(&self, die: u32) -> Vec<Lba> {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, &(d, _))| d == die)
            .map(|(lba, _)| lba as Lba)
            .collect()
    }

    /// Re-stripe two host LBAs by swapping the physical slots they map
    /// to — the wear-shifting primitive: pairing a hot LBA on a worn die
    /// with a cold LBA on a healthy die moves the hot LBA's future erase
    /// pressure off the worn die without losing capacity.
    ///
    /// Both images (when mapped) are read out, cross-written — each via a
    /// cached-program batch — and the stripe map entries exchanged; an
    /// unmapped side trims its new slot instead. Returns `false` without
    /// touching anything when the swap is ineligible: identical LBAs, or
    /// slots whose region layouts differ (an LBA's append format must
    /// survive the move, and a slot's layout belongs to the slot).
    ///
    /// Takes `&mut self`, so the borrow checker serializes it against all
    /// host traffic — the maintenance scheduler runs it from its
    /// exclusive poll, exactly like GC stepping.
    pub fn swap_stripe(&mut self, a: Lba, b: Lba) -> Result<bool> {
        if a == b {
            return Ok(false);
        }
        let (da, sa) = self.locate(a)?;
        let (db, sb) = self.locate(b)?;
        if self.shard_mut(da).layout_for(sa) != self.shard_mut(db).layout_for(sb) {
            return Ok(false);
        }
        let mut read_out = |die: u32, sub: Lba| {
            let s = self.shard_mut(die);
            s.is_mapped(sub).then(|| s.migrate_read(sub)).transpose()
        };
        let img_a = read_out(da, sa)?;
        let img_b = read_out(db, sb)?;
        for (die, sub, img) in [(db, sb, img_a), (da, sa, img_b)] {
            let s = self.shard_mut(die);
            match img {
                Some(img) => s.write_batch_cached(&[(sub, img)])?,
                None => s.trim(sub)?,
            }
        }
        self.map[a as usize] = (db, sb);
        self.map[b as usize] = (da, sa);
        Ok(true)
    }

    /// Bulk-write full host pages, grouped per die and issued as cached
    /// (pipelined) program batches — the hot-tier destage entry. Like GC
    /// copy-backs this is firmware traffic: host counters stay untouched
    /// while the flash layer records the programs and batches.
    pub fn write_batch_cached(&mut self, items: &[(Lba, Vec<u8>)]) -> Result<()> {
        let mut per_die: Vec<Vec<(Lba, Vec<u8>)>> = vec![Vec::new(); self.shards.len()];
        for (lba, data) in items {
            let (die, sub) = self.locate(*lba)?;
            per_die[die as usize].push((sub, data.clone()));
        }
        for (die, batch) in per_die.into_iter().enumerate() {
            if !batch.is_empty() {
                self.shard_mut(die as u32).write_batch_cached(&batch)?;
            }
        }
        Ok(())
    }
}

impl BlockDevice for ShardedFtl {
    fn page_size(&self) -> usize {
        self.ctrl.config().chip.geometry.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        let submitted = self.ctrl.host_ns();
        let ready = self
            .locate(lba)
            .and_then(|(die, sub)| read_on(self.shard_mut(die), sub, Lane::PostedPriority, buf));
        self.finish_point_read(submitted, ready)
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        let (die, sub) = self.locate(lba)?;
        self.shard_mut(die).write(sub, data)
    }

    fn trim(&mut self, lba: Lba) -> Result<()> {
        let (die, sub) = self.locate(lba)?;
        self.shard_mut(die).trim(sub)
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        self.locate(lba)
            .map(|(die, sub)| lock(&self.shards[die as usize]).is_mapped(sub))
            .unwrap_or(false)
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        self.locate(lba).ok()?;
        self.regions
            .layout_for(lba, self.default_layout.as_ref())
            .copied()
    }

    fn device_stats(&self) -> DeviceStats {
        let merged = self.shards.iter().fold(DeviceStats::default(), |acc, s| {
            acc.merged(&lock(s).device_stats())
        });
        self.vectored.fold_into(merged)
    }

    fn flash_stats(&self) -> FlashStats {
        self.ctrl.flash_stats()
    }

    fn elapsed_ns(&self) -> u64 {
        // The merged view: as if the host synced right now.
        self.ctrl.elapsed_ns()
    }

    fn max_erase_count(&self) -> u32 {
        self.ctrl.max_erase_count()
    }

    fn raw_blocks(&self) -> u32 {
        self.shards.len() as u32 * lock(&self.shards[0]).raw_blocks()
    }

    fn controller(&self) -> Option<&Arc<FlashController>> {
        Some(&self.ctrl)
    }

    fn set_submission_clock_ns(&mut self, ns: u64) {
        self.ctrl.set_host_ns(ns);
    }

    fn submission_clock_ns(&self) -> u64 {
        self.ctrl.host_ns()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl NativeFlashDevice for ShardedFtl {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()> {
        let (die, sub) = self.locate(lba)?;
        self.shard_mut(die).write_delta(sub, offset, delta_bytes)
    }
}

impl ShardedFtl {
    /// Blocking point read through `&self` — the threaded driver's entry.
    /// Rides the priority lane: under a QoS-scheduled controller it may
    /// jump posted bulk work on its die (the queued `ReadV` never does);
    /// without QoS the lane degenerates to a posted read. Either way the
    /// caller waits until the page is ready, like a one-member `ReadV`
    /// polled at once.
    ///
    /// The page lands in `buf` — no completion is built. The `&mut`
    /// [`BlockDevice::read`] is the same read without the shard lock
    /// (pinned by `the_mut_face_equals_the_shared_face`).
    pub fn read_shared(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        let submitted = self.ctrl.host_ns();
        let ready = self.read_member_into(lba, Lane::PostedPriority, buf);
        self.finish_point_read(submitted, ready)
    }

    /// The completion half of a point read submitted at `submitted`, as a
    /// one-member poll would do it: the wait ends at `max(submitted,
    /// ready)`, and one posted read leaves the outstanding gauge — on an
    /// error, only if the die served it before ECC failed.
    fn finish_point_read(&self, submitted: u64, ready: Result<u64>) -> Result<()> {
        match ready {
            Ok(ready) => {
                self.ctrl.advance_host_ns(submitted.max(ready));
                self.ctrl.note_posted_reads_polled(1);
                Ok(())
            }
            Err(e) => {
                let served = matches!(e, FtlError::Uncorrectable { .. });
                self.ctrl.note_posted_reads_polled(u64::from(served));
                Err(e)
            }
        }
    }

    /// Page write through `&self`.
    pub fn write_shared(&self, lba: Lba, data: &[u8]) -> Result<()> {
        let (die, sub) = self.locate(lba)?;
        lock(&self.shards[die as usize]).write(sub, data)
    }

    /// Trim through `&self`.
    pub fn trim_shared(&self, lba: Lba) -> Result<()> {
        let (die, sub) = self.locate(lba)?;
        lock(&self.shards[die as usize]).trim(sub)
    }

    /// One read routed to its die and posted in `lane`: the read issues at
    /// the current host instant without advancing the host clock. The
    /// page lands in `buf` (the shard checks its length); returns the
    /// instant it is ready. The shard lock spans the lane change, so no
    /// other submitter's command on this die can run in it.
    fn read_member_into(&self, lba: Lba, lane: Lane, buf: &mut [u8]) -> Result<u64> {
        let (die, sub) = self.locate(lba)?;
        read_on(&mut lock(&self.shards[die as usize]), sub, lane, buf)
    }

    /// One member of a vectored read, in the posted lane, for a
    /// completion that owns its members' pages.
    fn read_member(&self, lba: Lba) -> Result<(Vec<u8>, u64)> {
        let mut buf = vec![0u8; self.page_size()];
        let ready = self.read_member_into(lba, Lane::Posted, &mut buf)?;
        Ok((buf, ready))
    }

    /// Completion horizon of the die a posted member landed on: the
    /// instant its queued work (this member included) drains.
    fn die_horizon(&self, die: u32) -> u64 {
        self.ctrl.host_ns() + self.ctrl.die_busy_ns(die)
    }

    /// The native queued face of the stripe through `&self`: vectored
    /// requests fan out across dies/channels as posted controller
    /// commands and complete at the max of the per-die completion
    /// horizons. This is where the queued API genuinely buys time — the
    /// members of a `ReadV` over round-robin neighbours sense and
    /// transfer concurrently, where the sync loop paid them serially.
    pub fn submit_io(&self, req: IoRequest) -> Result<IoToken> {
        let submitted = self.ctrl.host_ns();
        let mut done = submitted;
        let mut data = Vec::new();
        let mut rejected = Vec::new();
        match &req {
            IoRequest::ReadV(lbas) => {
                for &lba in lbas {
                    match self.read_member(lba) {
                        Ok((buf, ready)) => {
                            data.push(buf);
                            done = done.max(ready);
                        }
                        Err(e) => {
                            // No completion will ever surface the earlier
                            // members (their state effects stand): retire
                            // them from the outstanding gauge — with the
                            // failing one if its die served it before ECC.
                            let served = matches!(e, FtlError::Uncorrectable { .. });
                            self.ctrl
                                .note_posted_reads_polled(data.len() as u64 + u64::from(served));
                            return Err(e);
                        }
                    }
                }
            }
            IoRequest::WriteV(pages) => {
                for (lba, page) in pages {
                    let (die, sub) = self.locate(*lba)?;
                    lock(&self.shards[die as usize]).write(sub, page)?;
                    done = done.max(self.die_horizon(die));
                }
            }
            IoRequest::WriteDeltaV(members) => {
                // The evict path's batched appends: members post to their
                // dies back-to-back and overlap like any vectored write;
                // a per-member in-place rejection is reported, not fatal.
                for (i, (lba, offset, delta)) in members.iter().enumerate() {
                    let (die, sub) = self.locate(*lba)?;
                    match lock(&self.shards[die as usize]).write_delta(sub, *offset, delta) {
                        Ok(()) => done = done.max(self.die_horizon(die)),
                        Err(FtlError::InPlaceRejected { .. }) => rejected.push(i),
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        self.vectored.count_request(&req);
        Ok(IoToken::posted(IoCompletion {
            data,
            rejected,
            submitted_ns: submitted,
            done_ns: done,
        }))
    }

    /// Poll through `&self` (see [`IoQueue::poll_checked`]).
    pub fn poll_io_checked(&self, token: IoToken) -> Result<IoCompletion> {
        let completion = token.into_completion();
        // Waiting for a completion is what moves the submitting client's
        // clock — a completion already in the past costs nothing. The
        // monotone advance makes the wait safe under concurrent pollers.
        self.ctrl.advance_host_ns(completion.done_ns);
        self.ctrl
            .note_posted_reads_polled(completion.data.len() as u64);
        Ok(completion)
    }

    /// Native delta append through `&self` (see
    /// [`NativeFlashDevice::write_delta`]).
    pub fn write_delta_shared(&self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()> {
        let (die, sub) = self.locate(lba)?;
        lock(&self.shards[die as usize]).write_delta(sub, offset, delta_bytes)
    }

    /// Forget through `&self` (see [`IoQueue::forget`]).
    pub fn forget_io(&self, token: IoToken) {
        // Retire the abandoned reads from the controller's posted-read
        // horizon, so `sync` never accounts for data nobody wants.
        self.ctrl
            .retire_forgotten_reads(token.into_completion().data.len() as u64);
    }
}

/// Read sub-LBA `sub` of `shard` into `buf` in `lane`, restoring the die's
/// default context after; returns the instant the page is ready.
fn read_on(shard: &mut Ftl<DieHandle>, sub: Lba, lane: Lane, buf: &mut [u8]) -> Result<u64> {
    shard.chip_mut().set_context(CmdContext::host(lane));
    let result = shard.read(sub, buf);
    shard.chip_mut().set_context(CmdContext::default());
    result.map(|()| shard.chip().last_read_done_ns())
}

impl IoQueue for ShardedFtl {
    fn submit(&mut self, req: IoRequest) -> Result<IoToken> {
        self.submit_io(req)
    }

    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion> {
        self.poll_io_checked(token)
    }

    fn sync(&mut self) -> u64 {
        ShardedFtl::sync(self)
    }

    fn forget(&mut self, token: IoToken) {
        self.forget_io(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::NmScheme;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};

    fn chip_cfg() -> DeviceConfig {
        DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none())
    }

    fn sharded(channels: u32, dpc: u32, policy: StripePolicy) -> ShardedFtl {
        ShardedFtl::new(
            ControllerConfig::new(channels, dpc, chip_cfg()),
            FtlConfig::traditional(),
            policy,
        )
    }

    #[test]
    fn round_robin_striping_is_exact() {
        let s = sharded(2, 2, StripePolicy::RoundRobin);
        let single = Ftl::new(
            ipa_flash::FlashChip::new(chip_cfg()),
            FtlConfig::traditional(),
        );
        assert_eq!(
            s.capacity_pages(),
            4 * single.capacity_pages(),
            "round-robin wastes nothing"
        );
        for lba in 0..s.capacity_pages() {
            let (die, sub) = s.locate(lba).unwrap();
            assert_eq!(die as u64, lba % 4);
            assert_eq!(sub, lba / 4);
        }
    }

    #[test]
    fn hash_striping_is_collision_free_and_covers_all_dies() {
        let s = sharded(4, 2, StripePolicy::Hash);
        let mut seen = std::collections::HashSet::new();
        let mut per_die = [0u64; 8];
        for lba in 0..s.capacity_pages() {
            let (die, sub) = s.locate(lba).unwrap();
            assert!(seen.insert((die, sub)), "duplicate physical slot");
            per_die[die as usize] += 1;
        }
        assert!(per_die.iter().all(|&n| n > 0), "every die gets a stripe");
        // Hash striping trades a sliver of capacity for balance.
        let single_cap = Ftl::new(
            ipa_flash::FlashChip::new(chip_cfg()),
            FtlConfig::traditional(),
        )
        .capacity_pages();
        assert!(s.capacity_pages() <= 8 * single_cap);
        assert!(
            s.capacity_pages() > 8 * single_cap / 2,
            "imbalance should cost far less than half the capacity"
        );
    }

    #[test]
    fn write_read_round_trip_across_dies() {
        for policy in [StripePolicy::RoundRobin, StripePolicy::Hash] {
            let mut s = sharded(2, 2, policy);
            let n = 64u64;
            for lba in 0..n {
                let data = vec![(lba % 251) as u8; 2048];
                s.write(lba, &data).unwrap();
            }
            let mut buf = vec![0u8; 2048];
            for lba in 0..n {
                s.read(lba, &mut buf).unwrap();
                assert!(
                    buf.iter().all(|&b| b == (lba % 251) as u8),
                    "{policy:?}: lba {lba} corrupted"
                );
            }
            s.check_invariants();
            let d = s.device_stats();
            assert_eq!(d.host_writes, n);
            assert_eq!(d.host_reads, n);
            // All four dies saw traffic.
            for die in 0..4 {
                assert!(
                    s.shard(die).device_stats().host_writes > 0,
                    "{policy:?}: die {die} idle"
                );
            }
        }
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let mut s = sharded(1, 2, StripePolicy::RoundRobin);
        let cap = s.capacity_pages();
        let data = vec![0u8; 2048];
        assert!(matches!(
            s.write(cap, &data),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn trim_unmaps_on_the_right_die() {
        let mut s = sharded(2, 1, StripePolicy::RoundRobin);
        let data = vec![0u8; 2048];
        s.write(3, &data).unwrap(); // die 1 under 2-die round-robin
        s.trim(3).unwrap();
        let mut buf = vec![0u8; 2048];
        assert!(matches!(s.read(3, &mut buf), Err(FtlError::UnmappedLba(_))));
        assert_eq!(s.shard(1).device_stats().page_invalidations, 1);
        assert_eq!(s.shard(0).device_stats().page_invalidations, 0);
    }

    #[test]
    fn host_regions_translate_to_contiguous_shard_regions() {
        let page = 2048;
        let layout = PageLayout::new(page, 24, 8, NmScheme::new(2, 4));
        for policy in [StripePolicy::RoundRobin, StripePolicy::Hash] {
            let mut regions = RegionTable::new();
            regions.add(Region {
                name: "hot".into(),
                lbas: 0..40,
                layout: Some(layout),
            });
            regions.add(Region {
                name: "cold".into(),
                lbas: 40..80,
                layout: None,
            });
            let s = ShardedFtl::with_regions(
                ControllerConfig::new(2, 2, chip_cfg()),
                FtlConfig::ipa_native(layout),
                policy,
                regions,
            );
            for lba in 0..40 {
                assert!(
                    BlockDevice::layout_for(&s, lba).is_some(),
                    "{policy:?}: hot lba {lba} lost its IPA layout"
                );
            }
            for lba in 40..80 {
                assert!(
                    BlockDevice::layout_for(&s, lba).is_none(),
                    "{policy:?}: cold lba {lba} gained a layout"
                );
            }
            // Past the regions: the device default applies.
            assert!(BlockDevice::layout_for(&s, 100).is_some());
        }
    }

    #[test]
    fn write_delta_appends_through_the_stripe() {
        use ipa_core::DeltaRecord;
        let page = 2048;
        let layout = PageLayout::new(page, 24, 8, NmScheme::new(2, 4));
        let cfg = ControllerConfig::new(
            2,
            2,
            DeviceConfig::new(Geometry::new(16, 8, page, 64), FlashMode::PSlc)
                .with_disturb(DisturbRates::none()),
        );
        let mut s = ShardedFtl::new(cfg, FtlConfig::ipa_native(layout), StripePolicy::RoundRobin);
        let mut img = vec![0xA5u8; page];
        layout.wipe_delta_area(&mut img);
        for lba in 0..8u64 {
            s.write(lba, &img).unwrap();
        }
        let rec = DeltaRecord::new(vec![(40, 0x0F)], vec![2; layout.meta_len()], layout.scheme);
        let bytes = rec.encode(&layout);
        for lba in 0..8u64 {
            s.write_delta(lba, layout.record_offset(0), &bytes).unwrap();
        }
        let d = s.device_stats();
        assert_eq!(d.host_write_deltas, 8);
        assert_eq!(d.in_place_appends, 8);
        let mut buf = vec![0u8; page];
        s.read(5, &mut buf).unwrap();
        assert_eq!(ipa_core::scan_records(&buf, &layout), vec![rec]);
    }

    #[test]
    fn parallel_writes_beat_the_single_die_stripe() {
        let run = |channels, dpc| -> u64 {
            let mut s = sharded(channels, dpc, StripePolicy::RoundRobin);
            let data = vec![0x5Au8; 2048];
            for lba in 0..64u64 {
                s.write(lba, &data).unwrap();
            }
            s.sync()
        };
        let single = run(1, 1);
        let eight = run(4, 2);
        assert!(
            eight * 2 < single,
            "8 dies must be >2× faster on a parallel write burst: {eight} vs {single}"
        );
    }

    #[test]
    fn plane_pairing_flows_through_stripe_and_scheduler() {
        // Multi-plane chips behind the controller: per-die sub-FTLs pair
        // their writes into multi-plane commands (one posted command, one
        // die-busy window) and the striped device stays faster than its
        // single-plane twin on a write burst.
        let run = |planes: u32| -> (u64, DeviceStats) {
            let chip = DeviceConfig::new(
                Geometry::new(16, 8, 2048, 64).with_planes(planes),
                FlashMode::Slc,
            )
            .with_disturb(DisturbRates::none());
            let mut s = ShardedFtl::new(
                ControllerConfig::new(2, 1, chip),
                FtlConfig::traditional(),
                StripePolicy::RoundRobin,
            );
            let data = vec![0x66u8; 2048];
            for lba in 0..64u64 {
                s.write(lba, &data).unwrap();
            }
            let mut buf = vec![0u8; 2048];
            for lba in 0..64u64 {
                s.read(lba, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == 0x66), "lba {lba} corrupted");
            }
            s.check_invariants();
            (s.sync(), s.device_stats())
        };
        let (t1, d1) = run(1);
        let (t2, d2) = run(2);
        assert_eq!(d1.multi_plane_pairs, 0);
        assert!(
            d2.multi_plane_pairs >= 24,
            "striped write burst must pair per die: {d2:?}"
        );
        assert!(
            t2 < t1,
            "2-plane stripe must beat single-plane: {t2} vs {t1} ns"
        );
    }

    #[test]
    fn matches_single_ftl_logical_state_under_churn() {
        // Device-level parity: the same host op stream produces the same
        // host-visible bytes whether or not the device stripes, even once
        // per-die GC kicks in.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut single = Ftl::new(
            ipa_flash::FlashChip::new(chip_cfg().with_geometry(Geometry::new(64, 8, 2048, 64))),
            FtlConfig::traditional(),
        );
        let mut striped = ShardedFtl::new(
            ControllerConfig::new(2, 2, chip_cfg()),
            FtlConfig::traditional(),
            StripePolicy::Hash,
        );
        let span = single.capacity_pages().min(striped.capacity_pages());
        let hot = span.min(24);
        let mut rng = StdRng::seed_from_u64(0xD1E5);
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        for step in 0..800u32 {
            let lba = rng.gen_range(0..hot);
            match rng.gen_range(0..10u32) {
                0..=6 => {
                    let fill = (step % 251) as u8;
                    let data = vec![fill; 2048];
                    single.write(lba, &data).unwrap();
                    striped.write(lba, &data).unwrap();
                    model.insert(lba, fill);
                }
                7 => {
                    single.trim(lba).unwrap();
                    striped.trim(lba).unwrap();
                    model.remove(&lba);
                }
                _ => {
                    let mut a = vec![0u8; 2048];
                    let mut b = vec![0u8; 2048];
                    match model.get(&lba) {
                        Some(fill) => {
                            single.read(lba, &mut a).unwrap();
                            striped.read(lba, &mut b).unwrap();
                            assert_eq!(a, b, "step {step}: lba {lba} diverged");
                            assert!(a.iter().all(|&x| x == *fill));
                        }
                        None => {
                            assert!(single.read(lba, &mut a).is_err());
                            assert!(striped.read(lba, &mut b).is_err());
                        }
                    }
                }
            }
        }
        assert!(
            striped.device_stats().gc_erases > 0,
            "churn must trigger per-die GC"
        );
        striped.check_invariants();
    }

    #[test]
    fn swap_stripe_exchanges_slots_and_preserves_bytes() {
        let mut s = sharded(2, 2, StripePolicy::RoundRobin);
        let a = 1u64; // die 1 under 4-die round-robin
        let b = 6u64; // die 2
        s.write(a, &vec![0xAA; 2048]).unwrap();
        s.write(b, &vec![0xBB; 2048]).unwrap();
        let (la, lb) = (s.locate(a).unwrap(), s.locate(b).unwrap());
        assert!(s.swap_stripe(a, b).unwrap());
        // Slots exchanged exactly.
        assert_eq!(s.locate(a).unwrap(), lb);
        assert_eq!(s.locate(b).unwrap(), la);
        // Bytes follow the host LBA, not the slot.
        let mut buf = vec![0u8; 2048];
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xAA));
        s.read(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xBB));
        // The cross-writes rode the cached-program command.
        assert!(s.flash_stats().cache_programs >= 2);
        s.check_invariants();
        // Swapping back restores the original stripe.
        assert!(s.swap_stripe(a, b).unwrap());
        assert_eq!(s.locate(a).unwrap(), la);
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xAA));
    }

    #[test]
    fn swap_stripe_with_unmapped_partner_trims_the_new_slot() {
        let mut s = sharded(1, 2, StripePolicy::RoundRobin);
        let a = 0u64;
        let b = 1u64; // other die; never written
        s.write(a, &vec![0x5A; 2048]).unwrap();
        assert!(s.swap_stripe(a, b).unwrap());
        let mut buf = vec![0u8; 2048];
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0x5A));
        assert!(
            matches!(s.read(b, &mut buf), Err(FtlError::UnmappedLba(_))),
            "unmapped partner stays unmapped after the swap"
        );
        assert!(!s.swap_stripe(a, a).unwrap(), "identity swap is refused");
        s.check_invariants();
    }

    /// A swap is firmware traffic: run, like the heat shifter runs it,
    /// with every die handle in the internal context, its read-outs keep
    /// the dies busy but leave the host's clock where it was.
    #[test]
    fn a_swap_never_stalls_the_host_clock() {
        let mut s = sharded(2, 2, StripePolicy::RoundRobin);
        s.write(1, &vec![0xAA; 2048]).unwrap();
        s.write(6, &vec![0xBB; 2048]).unwrap();
        for die in 0..s.dies() {
            s.shard_mut(die)
                .chip_mut()
                .set_context(CmdContext::INTERNAL);
        }
        let (before, reads) = (s.ctrl.host_ns(), s.ctrl.stats().reads);
        assert!(s.swap_stripe(1, 6).unwrap());
        assert_eq!(s.ctrl.stats().reads, reads + 2, "both images were read out");
        assert_eq!(
            s.ctrl.host_ns(),
            before,
            "a migration read moved the host clock"
        );
    }

    #[test]
    fn stripe_batch_write_round_trips_without_host_counters() {
        let mut s = sharded(2, 1, StripePolicy::RoundRobin);
        let items: Vec<(Lba, Vec<u8>)> = (0..16u64)
            .map(|lba| (lba, vec![(lba % 251) as u8 + 1; 2048]))
            .collect();
        s.write_batch_cached(&items).unwrap();
        let mut buf = vec![0u8; 2048];
        for (lba, img) in &items {
            s.read(*lba, &mut buf).unwrap();
            assert_eq!(&buf, img, "lba {lba} corrupted");
        }
        let d = s.device_stats();
        assert_eq!(d.host_writes, 0, "firmware batch is not host traffic");
        assert!(s.flash_stats().cache_programs >= 2, "one batch per die");
        assert_eq!(s.flash_stats().page_programs, 16);
        s.check_invariants();
    }

    #[test]
    fn host_lbas_on_die_partitions_the_map() {
        let s = sharded(2, 2, StripePolicy::Hash);
        let mut total = 0u64;
        let mut seen = std::collections::HashSet::new();
        for die in 0..s.dies() {
            for lba in s.host_lbas_on_die(die) {
                assert_eq!(s.locate(lba).unwrap().0, die);
                assert!(seen.insert(lba));
                total += 1;
            }
        }
        assert_eq!(total, s.capacity_pages());
    }

    #[test]
    fn threaded_disjoint_windows_match_the_serial_run() {
        // Tentpole wall at the stripe level: N threads writing and
        // reading disjoint LBA windows through one Arc<ShardedFtl> end
        // with exactly the bytes the serial walk produces.
        use std::sync::Arc;
        use std::thread;
        let serial = {
            let mut s = sharded(2, 2, StripePolicy::RoundRobin);
            for lba in 0..64u64 {
                let data = vec![(lba % 251) as u8; 2048];
                s.write(lba, &data).unwrap();
            }
            s.sync();
            let mut out = Vec::new();
            let mut buf = vec![0u8; 2048];
            for lba in 0..64u64 {
                s.read(lba, &mut buf).unwrap();
                out.push(buf[0]);
            }
            out
        };
        let threaded = {
            let s = Arc::new(sharded(2, 2, StripePolicy::RoundRobin));
            thread::scope(|scope| {
                for t in 0..4u64 {
                    let s = Arc::clone(&s);
                    scope.spawn(move || {
                        for lba in (t * 16)..(t * 16 + 16) {
                            let data = vec![(lba % 251) as u8; 2048];
                            s.write_shared(lba, &data).unwrap();
                        }
                    });
                }
            });
            s.sync();
            let mut out = Vec::new();
            let mut buf = vec![0u8; 2048];
            for lba in 0..64u64 {
                s.read_shared(lba, &mut buf).unwrap();
                out.push(buf[0]);
            }
            s.check_invariants();
            out
        };
        assert_eq!(serial, threaded, "logical state must be thread-invariant");
    }

    /// Bytes, host clock and every counter of two stripes must agree.
    fn assert_twins(a: &ShardedFtl, b: &ShardedFtl, step: &str) {
        assert_eq!(a.ctrl.host_ns(), b.ctrl.host_ns(), "{step}");
        assert_eq!(a.ctrl.stats(), b.ctrl.stats(), "{step}");
        assert_eq!(a.device_stats(), b.device_stats(), "{step}");
    }

    /// Two 1 -> 0 flips in one ECC chunk of `lba`'s stored page, whose
    /// current image is `current`.
    fn corrupt(s: &ShardedFtl, lba: Lba, current: &[u8]) {
        let (die, sub) = s.locate(lba).unwrap();
        let g = s.ctrl.config().chip.geometry;
        let ppa = (0..g.blocks)
            .flat_map(|b| (0..g.pages_per_block).map(move |p| ipa_flash::Ppa::new(b, p)))
            .find(|&ppa| {
                s.ctrl
                    .with_chip(die, |chip| chip.peek_data(ppa) == Some(current))
            })
            .expect("the page is on its die");
        assert!(s.shard(die).is_mapped(sub));
        ipa_flash::Nand::append_region(s.shard(die).chip_mut(), ppa, 10, &[0xFE, 0xFE], 0, &[])
            .unwrap();
    }

    /// The `&mut` face reaches its shard without a lock, the `&self` twins
    /// lock it; nothing else may differ. Twin QoS stripes in IPA-native
    /// mode, one driven through `read` / `write` / `write_delta`, the
    /// other through `read_shared` / `write_shared` / `write_delta_shared`,
    /// interleaved, agree after every step — unmapped, out-of-range and
    /// uncorrectable reads included.
    #[test]
    fn the_mut_face_equals_the_shared_face() {
        use ipa_core::DeltaRecord;
        let page = 2048;
        let layout = PageLayout::new(page, 24, 8, NmScheme::new(2, 4));
        let twin = || {
            let chip = DeviceConfig::new(Geometry::new(16, 8, page, 64), FlashMode::PSlc)
                .with_disturb(DisturbRates::none());
            ShardedFtl::new(
                ControllerConfig::new(2, 2, chip).with_qos(),
                FtlConfig::ipa_native(layout),
                StripePolicy::RoundRobin,
            )
        };
        let (mut owned, shared) = (twin(), twin());
        let image = |lba: Lba, gen: u64| {
            let mut img = vec![0xFFu8; page];
            img[64..].fill((lba * 31 + gen) as u8);
            layout.wipe_delta_area(&mut img);
            img
        };
        let delta = DeltaRecord::new(vec![(40, 0x0F)], vec![2; layout.meta_len()], layout.scheme)
            .encode(&layout);
        let read_both = |owned: &mut ShardedFtl, lba: Lba, step: &str| {
            let (mut a, mut b) = (vec![0xEEu8; page], vec![0xEEu8; page]);
            let ra = owned.read(lba, &mut a);
            let rb = shared.read_shared(lba, &mut b);
            assert_eq!(ra, rb, "{step}");
            assert_eq!(a, b, "{step}");
            assert_twins(owned, &shared, step);
            ra
        };

        for lba in 0..24u64 {
            owned.write(lba, &image(lba, 0)).unwrap();
            shared.write_shared(lba, &image(lba, 0)).unwrap();
        }
        assert_twins(&owned, &shared, "load");
        // Reads land while programs and appends around them are in flight.
        for step in 0..200u64 {
            let (w, r) = ((step * 7) % 24, (step * 5 + 3) % 24);
            owned.write(w, &image(w, step)).unwrap();
            shared.write_shared(w, &image(w, step)).unwrap();
            if w % 2 == 0 {
                let at = layout.record_offset(0);
                owned.write_delta(w, at, &delta).unwrap();
                shared.write_delta_shared(w, at, &delta).unwrap();
            }
            assert_twins(&owned, &shared, &format!("step {step} writes"));
            read_both(&mut owned, r, &format!("step {step} read")).unwrap();
        }
        let d = owned.device_stats();
        assert!(d.host_write_deltas > 0 && d.gc_erases > 0, "{d:?}");
        assert!(owned.ctrl.stats().reads_promoted > 0, "QoS was exercised");

        let mut current = vec![0u8; page];
        owned.read(5, &mut current).unwrap();
        shared.read_shared(5, &mut current).unwrap();
        corrupt(&owned, 5, &current);
        corrupt(&shared, 5, &current);
        assert_twins(&owned, &shared, "after the corruption");
        let sub = owned.locate(5).unwrap().1;
        assert_eq!(
            read_both(&mut owned, 5, "uncorrectable"),
            Err(FtlError::Uncorrectable { lba: sub })
        );
        assert_eq!(owned.ctrl.stats().posted_reads_outstanding, 0);
        assert!(matches!(
            read_both(&mut owned, 30, "unmapped"),
            Err(FtlError::UnmappedLba(_))
        ));
        let cap = owned.capacity_pages();
        assert!(matches!(
            read_both(&mut owned, cap, "out of range"),
            Err(FtlError::LbaOutOfRange { .. })
        ));
        read_both(&mut owned, 6, "a clean read after the failures").unwrap();
    }

    /// `layout_for` answers from the host-level region table without a
    /// lock; it must equal the shard's own answer for the slot the LBA maps
    /// to — in and out of regions, under both stripe policies, and after
    /// stripe swaps (which only ever exchange slots of equal layout).
    #[test]
    fn layout_for_equals_the_shards_answer() {
        let page = 2048;
        let hot = PageLayout::new(page, 24, 8, NmScheme::new(2, 4));
        let other = PageLayout::new(page, 24, 8, NmScheme::new(1, 8));
        for policy in [StripePolicy::RoundRobin, StripePolicy::Hash] {
            let mut regions = RegionTable::new();
            for (name, lbas, layout) in [
                ("hot", 0..40, Some(hot)),
                ("plain", 40..80, None),
                ("other", 80..120, Some(other)),
            ] {
                let name = name.into();
                regions.add(Region { name, lbas, layout });
            }
            let mut s = ShardedFtl::with_regions(
                ControllerConfig::new(2, 2, chip_cfg()),
                FtlConfig::ipa_native(hot),
                policy,
                regions,
            );
            let agree = |s: &ShardedFtl, when: &str| {
                for lba in 0..s.capacity_pages() + 2 {
                    let shard = s
                        .locate(lba)
                        .ok()
                        .and_then(|(die, sub)| s.shard(die).layout_for(sub));
                    assert_eq!(
                        BlockDevice::layout_for(s, lba),
                        shard,
                        "{policy:?} {when}: lba {lba}"
                    );
                }
            };
            agree(&s, "as built");
            for lba in [3, 41, 42, 90, 200] {
                s.write(lba, &vec![0x5A; page]).unwrap();
            }
            let on_other_die = |s: &ShardedFtl, a: Lba, from: std::ops::Range<Lba>| {
                from.into_iter()
                    .find(|&b| s.locate(b).unwrap().0 != s.locate(a).unwrap().0)
                    .unwrap()
            };
            // Hot with default-layout space (the same layout), and two
            // plain pages: both swaps run.
            let b = on_other_die(&s, 3, 200..260);
            assert!(s.swap_stripe(3, b).unwrap());
            let b = on_other_die(&s, 41, 42..80);
            assert!(s.swap_stripe(41, b).unwrap());
            // Hot with other: the layouts differ, the swap is refused.
            let b = on_other_die(&s, 3, 80..120);
            assert!(!s.swap_stripe(3, b).unwrap());
            agree(&s, "after the swaps");
        }
    }
}
