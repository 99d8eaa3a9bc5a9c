//! The maintained device: a [`ShardedFtl`] with the scheduler attached.

use std::sync::Arc;

use ipa_controller::FlashController;
use ipa_core::PageLayout;
use ipa_flash::FlashStats;
use ipa_ftl::{
    BlockDevice, DeviceStats, IoCompletion, IoQueue, IoRequest, IoToken, Lba, NativeFlashDevice,
    Result, ShardedFtl,
};

use crate::config::MaintConfig;
use crate::scheduler::{MaintenanceScheduler, NoShift, WearShifter};
use crate::stats::MaintStats;

/// A [`ShardedFtl`] whose low-water GC runs in the background: every host
/// command is followed by one [`MaintenanceScheduler::poll`], so reclaim
/// steps land on idle dies at the freshest possible view of the
/// controller's clocks. Build the inner FTL with
/// [`ipa_ftl::FtlConfig::with_background_gc`] so its write path defers
/// low-water reclaim to this wrapper (emergency inline GC stays armed
/// either way).
///
/// `S` is the [`WearShifter`] the scheduler owns ([`NoShift`]: plain
/// background GC); see the crate docs for who owns what.
pub struct MaintainedFtl<S = NoShift> {
    inner: ShardedFtl,
    sched: MaintenanceScheduler<S>,
    /// A maintenance failure that surfaced on a queue call that cannot
    /// carry it (`sync` returns no `Result`; a poll must hand back its
    /// completion); re-raised by the next fallible operation instead of
    /// being swallowed or panicking.
    deferred_maint_err: Option<ipa_ftl::FtlError>,
}

impl MaintainedFtl {
    /// Background GC only. `MaintConfig` carries no setting; the
    /// parameter keeps the constructor's frozen call shape.
    pub fn new(inner: ShardedFtl, _cfg: MaintConfig) -> Self {
        MaintainedFtl {
            inner,
            sched: MaintenanceScheduler::new(NoShift),
            deferred_maint_err: None,
        }
    }
}

impl<S: WearShifter> MaintainedFtl<S> {
    /// The same device with `shifter` installed in its scheduler: heat
    /// placement work is dispatched after GC in every poll.
    pub fn with_shifter<T: WearShifter>(self, shifter: T) -> MaintainedFtl<T> {
        MaintainedFtl {
            inner: self.inner,
            sched: self.sched.with_shifter(shifter),
            deferred_maint_err: self.deferred_maint_err,
        }
    }

    /// The scheduler's own counters.
    pub fn maint_stats(&self) -> MaintStats {
        self.sched.stats()
    }

    /// The installed shifter (a stacked layer's placement state).
    pub fn shifter(&self) -> &S {
        &self.sched.shifter
    }

    /// See [`MaintainedFtl::shifter`].
    pub fn shifter_mut(&mut self) -> &mut S {
        &mut self.sched.shifter
    }

    /// Run one scheduler poll — what follows every host command here.
    /// Layered devices that absorb host traffic before it reaches the
    /// stripe (the heat tier) call this after an absorbed command, so
    /// background destage/migration keeps pace even when the main stripe
    /// itself sees no traffic.
    pub fn poll_now(&mut self) -> Result<()> {
        if let Some(e) = self.deferred_maint_err.take() {
            return Err(e);
        }
        self.sched.poll(&mut self.inner)
    }

    /// Run every shard's exhaustive invariant check.
    pub fn check_invariants(&self) {
        self.inner.check_invariants();
    }

    /// `poll_now` for paths that cannot return a `Result`: the error,
    /// if any, is parked for the next fallible call.
    fn poll_maint_deferred(&mut self) {
        if let Err(e) = self.poll_now() {
            self.deferred_maint_err = Some(e);
        }
    }
}

impl<S: WearShifter> BlockDevice for MaintainedFtl<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.inner.read(lba, buf)?;
        self.poll_now()
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        self.inner.write(lba, data)?;
        self.poll_now()
    }

    fn trim(&mut self, lba: Lba) -> Result<()> {
        self.inner.trim(lba)?;
        self.poll_now()
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        self.inner.is_mapped(lba)
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        self.inner.layout_for(lba)
    }

    fn device_stats(&self) -> DeviceStats {
        self.inner.device_stats()
    }

    fn flash_stats(&self) -> FlashStats {
        self.inner.flash_stats()
    }

    fn elapsed_ns(&self) -> u64 {
        self.inner.elapsed_ns()
    }

    fn max_erase_count(&self) -> u32 {
        self.inner.max_erase_count()
    }

    fn raw_blocks(&self) -> u32 {
        self.inner.raw_blocks()
    }

    fn controller(&self) -> Option<&Arc<FlashController>> {
        Some(self.inner.controller())
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

impl<S: WearShifter> NativeFlashDevice for MaintainedFtl<S> {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()> {
        self.inner.write_delta(lba, offset, delta_bytes)?;
        self.poll_now()
    }
}

/// The queued face of the maintained device: requests go straight to the
/// stripe, and the scheduler polls between submissions and completions —
/// so background reclaim keeps landing on idle dies while the host sits
/// on unpolled tokens (exactly the window inline GC could never use).
impl<S: WearShifter> IoQueue for MaintainedFtl<S> {
    fn submit(&mut self, req: IoRequest) -> Result<IoToken> {
        let token = self.inner.submit(req)?;
        self.poll_now()?;
        Ok(token)
    }

    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion> {
        let completion = self.inner.poll_checked(token);
        self.poll_maint_deferred();
        completion
    }

    fn sync(&mut self) -> u64 {
        let merged = IoQueue::sync(&mut self.inner);
        self.poll_maint_deferred();
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_controller::ControllerConfig;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
    use ipa_ftl::{FtlConfig, StripePolicy};

    fn maintained(channels: u32, dpc: u32, queue_cap: Option<usize>) -> MaintainedFtl {
        let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none());
        let mut ctrl = ControllerConfig::new(channels, dpc, chip);
        if let Some(cap) = queue_cap {
            ctrl = ctrl.with_queue_cap(cap);
        }
        MaintainedFtl::new(
            ShardedFtl::new(
                ctrl,
                FtlConfig::traditional().with_background_gc(),
                StripePolicy::RoundRobin,
            ),
            MaintConfig::default(),
        )
    }

    /// A host-like churn loop: reads advance the host clock (so dies
    /// periodically fall idle), writes build GC pressure.
    fn churn(dev: &mut MaintainedFtl, ops: u64, span: u64) {
        let mut buf = vec![0u8; 2048];
        for i in 0..ops {
            let lba = i % span;
            dev.write(lba, &vec![(i % 251) as u8; 2048]).unwrap();
            dev.read(lba, &mut buf).unwrap();
        }
    }

    #[test]
    fn background_gc_runs_and_preserves_data() {
        let mut dev = maintained(2, 2, None);
        churn(&mut dev, 2400, 32);
        let m = dev.maint_stats();
        let d = dev.device_stats();
        assert!(m.erases > 0, "scheduler never completed a reclaim: {m}");
        assert!(
            d.background_gc_erases > 0,
            "device counters must agree: {d}"
        );
        assert!(m.polls >= 4800, "every host command polls");
        dev.check_invariants();
        let mut buf = vec![0u8; 2048];
        for lba in 0..32u64 {
            dev.read(lba, &mut buf).unwrap();
            let last = (0..2400u64).rev().find(|i| i % 32 == lba).unwrap();
            assert!(
                buf.iter().all(|&b| b == (last % 251) as u8),
                "lba {lba} corrupted"
            );
        }
    }

    #[test]
    fn background_mode_mostly_avoids_inline_gc() {
        let mut dev = maintained(2, 2, None);
        churn(&mut dev, 2400, 32);
        let d = dev.device_stats();
        assert!(d.gc_erases > 0);
        assert!(
            d.background_gc_erases * 2 > d.gc_erases,
            "the scheduler, not the write path, should do most reclaim: {d}"
        );
    }

    #[test]
    fn queue_cap_composes_with_background_gc() {
        let mut dev = maintained(2, 2, Some(1));
        // Burst several programs at the same die between reads: the
        // second posted program in each burst finds the queue full.
        let mut buf = vec![0u8; 2048];
        for i in 0..400u64 {
            for k in 0..4u64 {
                let lba = (i % 8) + 4 * k; // same die under round-robin
                dev.write(lba, &vec![(i % 251) as u8; 2048]).unwrap();
            }
            dev.read(i % 8, &mut buf).unwrap();
        }
        let c = BlockDevice::controller_stats(&dev).expect("controller-backed");
        assert!(
            c.backpressure_stalls > 0,
            "a cap-2 queue under churn must stall the host sometimes: {c}"
        );
        assert!(dev.maint_stats().erases > 0);
        dev.check_invariants();
    }

    #[test]
    fn background_reclaim_stays_correct_over_plane_local_victims() {
        // Multi-plane dies under the scheduler: reclaim steps pick
        // plane-local victims (single blocks of a plane) while the write
        // path keeps pairing into multi-plane programs; data must survive.
        let chip = DeviceConfig::new(
            Geometry::new(16, 8, 2048, 64).with_planes(2),
            FlashMode::Slc,
        )
        .with_disturb(DisturbRates::none());
        let mut dev = MaintainedFtl::new(
            ShardedFtl::new(
                ControllerConfig::new(2, 2, chip),
                FtlConfig::traditional().with_background_gc(),
                StripePolicy::RoundRobin,
            ),
            MaintConfig::default(),
        );
        // Burst-style churn: rounds of 32 writes then 32 reads, so each
        // die sees consecutive writes (the shape that pairs) while reads
        // keep draining the windows and idling the dies for the scheduler.
        let mut buf = vec![0u8; 2048];
        for round in 0..75u64 {
            for lba in 0..32u64 {
                dev.write(lba, &vec![((round * 32 + lba) % 251) as u8; 2048])
                    .unwrap();
            }
            for lba in 0..32u64 {
                dev.read(lba, &mut buf).unwrap();
            }
        }
        let m = dev.maint_stats();
        let d = dev.device_stats();
        assert!(m.erases > 0, "scheduler must reclaim: {m}");
        assert!(
            d.multi_plane_pairs > 0,
            "the write path must still pair on planes: {d:?}"
        );
        dev.check_invariants();
        for lba in 0..32u64 {
            dev.read(lba, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == ((74 * 32 + lba) % 251) as u8),
                "lba {lba} corrupted"
            );
        }
    }

    #[test]
    fn wrapper_is_transparent_to_the_block_contract() {
        let mut dev = maintained(1, 2, None);
        assert_eq!(dev.page_size(), 2048);
        assert!(dev.capacity_pages() > 0);
        let data = vec![0x77u8; 2048];
        dev.write(3, &data).unwrap();
        let mut buf = vec![0u8; 2048];
        dev.read(3, &mut buf).unwrap();
        assert_eq!(buf, data);
        dev.trim(3).unwrap();
        assert!(dev.read(3, &mut buf).is_err());
        assert!(dev.as_any().is_some(), "downcast hook must be wired");
        assert_eq!(dev.device_stats().host_writes, 1);
    }
}
