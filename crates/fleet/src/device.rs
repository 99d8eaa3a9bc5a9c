//! Per-tenant sub-device views over one shared die-striped device.
//!
//! A [`TenantDevice`] is a window of `pages` consecutive host LBAs,
//! starting at `base`, on a device shared by every tenant of a
//! [`crate::Fleet`]. It speaks the full native device surface —
//! [`BlockDevice`], [`IoQueue`] (vectored submissions included) and
//! [`NativeFlashDevice`] — by translating tenant-relative LBAs into the
//! shared space, and it *enforces the partition*: any command addressing
//! an LBA at or past the tenant's capacity is rejected with
//! [`FtlError::LbaOutOfRange`] before it can touch a neighbour's data.
//!
//! The fleet runs on one host thread, so the windows alias the stripe
//! through an `Rc<RefCell<_>>` and every command takes the stripe's
//! lock-free `&mut` face for the length of that one call.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use ipa_controller::FlashController;
use ipa_core::PageLayout;
use ipa_flash::FlashStats;
use ipa_ftl::{
    BlockDevice, DeviceStats, FtlError, IoCompletion, IoQueue, IoRequest, IoToken, Lba,
    NativeFlashDevice, Result, ShardedFtl,
};

/// One tenant's window onto the shared device.
pub struct TenantDevice {
    device: Rc<RefCell<ShardedFtl>>,
    /// The stripe's controller, held directly: [`BlockDevice::controller`]
    /// lends an `&Arc` that no `RefCell` borrow could outlive.
    ctrl: Arc<FlashController>,
    base: Lba,
    pages: u64,
}

impl TenantDevice {
    pub fn new(device: Rc<RefCell<ShardedFtl>>, base: Lba, pages: u64) -> Self {
        let ctrl = Arc::clone(device.borrow().controller());
        TenantDevice {
            device,
            ctrl,
            base,
            pages,
        }
    }

    /// Translate a tenant-relative LBA, enforcing the partition.
    fn map(&self, lba: Lba) -> Result<Lba> {
        if lba >= self.pages {
            return Err(FtlError::LbaOutOfRange {
                lba,
                capacity: self.pages,
            });
        }
        Ok(self.base + lba)
    }

    /// Translate every LBA inside a queued request. A single member out
    /// of range fails the whole submission — vectored commands must not
    /// partially escape the window.
    fn translate(&self, req: IoRequest) -> Result<IoRequest> {
        Ok(match req {
            IoRequest::ReadV(lbas) => IoRequest::ReadV(
                lbas.into_iter()
                    .map(|l| self.map(l))
                    .collect::<Result<_>>()?,
            ),
            IoRequest::WriteV(pages) => IoRequest::WriteV(
                pages
                    .into_iter()
                    .map(|(l, data)| Ok((self.map(l)?, data)))
                    .collect::<Result<_>>()?,
            ),
            IoRequest::WriteDeltaV(members) => IoRequest::WriteDeltaV(
                members
                    .into_iter()
                    .map(|(l, off, delta)| Ok((self.map(l)?, off, delta)))
                    .collect::<Result<_>>()?,
            ),
        })
    }
}

impl BlockDevice for TenantDevice {
    fn page_size(&self) -> usize {
        self.ctrl.config().chip.geometry.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.pages
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        let lba = self.map(lba)?;
        self.device.borrow_mut().read(lba, buf)
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        let lba = self.map(lba)?;
        self.device.borrow_mut().write(lba, data)
    }

    fn trim(&mut self, lba: Lba) -> Result<()> {
        let lba = self.map(lba)?;
        self.device.borrow_mut().trim(lba)
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        lba < self.pages && self.device.borrow().is_mapped(self.base + lba)
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        if lba >= self.pages {
            return None;
        }
        self.device.borrow().layout_for(self.base + lba)
    }

    fn device_stats(&self) -> DeviceStats {
        self.device.borrow().device_stats()
    }

    fn flash_stats(&self) -> FlashStats {
        self.ctrl.flash_stats()
    }

    fn elapsed_ns(&self) -> u64 {
        self.ctrl.elapsed_ns()
    }

    fn max_erase_count(&self) -> u32 {
        self.ctrl.max_erase_count()
    }

    fn raw_blocks(&self) -> u32 {
        self.device.borrow().raw_blocks()
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

impl IoQueue for TenantDevice {
    fn submit(&mut self, req: IoRequest) -> Result<IoToken> {
        let req = self.translate(req)?;
        self.device.borrow_mut().submit(req)
    }

    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion> {
        self.device.borrow_mut().poll_checked(token)
    }

    fn sync(&mut self) -> u64 {
        IoQueue::sync(&mut *self.device.borrow_mut())
    }
}

impl NativeFlashDevice for TenantDevice {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()> {
        let lba = self.map(lba)?;
        self.device
            .borrow_mut()
            .write_delta(lba, offset, delta_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_controller::ControllerConfig;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
    use ipa_ftl::{FtlConfig, StripePolicy};

    fn stripe() -> ShardedFtl {
        let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none())
            .with_seed(3);
        ShardedFtl::new(
            ControllerConfig::new(2, 2, chip).with_qos(),
            FtlConfig::traditional(),
            StripePolicy::RoundRobin,
        )
    }

    #[test]
    fn windows_translate_and_isolate() {
        let dev = Rc::new(RefCell::new(stripe()));
        let mut a = TenantDevice::new(Rc::clone(&dev), 0, 8);
        let mut b = TenantDevice::new(Rc::clone(&dev), 8, 8);
        assert_eq!(a.capacity_pages(), 8);
        let ones = vec![1u8; 2048];
        let twos = vec![2u8; 2048];
        a.write(0, &ones).unwrap();
        b.write(0, &twos).unwrap();
        let mut buf = vec![0u8; 2048];
        a.read(0, &mut buf).unwrap();
        assert_eq!(buf, ones, "tenant A sees its own page");
        b.read(0, &mut buf).unwrap();
        assert_eq!(buf, twos, "same tenant-relative LBA, different page");
        assert!(dev.borrow().is_mapped(0) && dev.borrow().is_mapped(8));

        // The partition is enforced on every surface, including vectored
        // members: LBA 8 is tenant B's page, so A must never reach it.
        assert!(matches!(
            a.read(8, &mut buf),
            Err(FtlError::LbaOutOfRange {
                lba: 8,
                capacity: 8
            })
        ));
        assert!(a.write(9, &ones).is_err());
        assert!(a.trim(8).is_err());
        assert!(a
            .submit(IoRequest::ReadV(vec![0, 8]))
            .is_err_and(|e| matches!(e, FtlError::LbaOutOfRange { .. })));
        assert!(a
            .submit(IoRequest::WriteV(vec![(8, ones.clone())]))
            .is_err());
        assert!(!a.is_mapped(8), "out-of-window LBAs read as unmapped");

        // In-window queued ops work translated.
        let t = a.submit(IoRequest::ReadV(vec![0])).unwrap();
        let c = a.poll_checked(t).expect("in-window read completes");
        assert_eq!(c.data, vec![ones]);
    }

    /// A window at base 0 is pure translation: driven through the same
    /// writes, reads, queued reads, trims and final sync as a bare twin
    /// stripe, it leaves the same bytes, counters and clocks after every
    /// step — unmapped members and trims included.
    #[test]
    fn a_window_equals_the_bare_stripe() {
        let mut bare = stripe();
        let pages = bare.capacity_pages();
        let mut win = TenantDevice::new(Rc::new(RefCell::new(stripe())), 0, pages);
        let same = |win: &TenantDevice, bare: &ShardedFtl, step: &str| {
            assert_eq!(win.device_stats(), bare.device_stats(), "{step}");
            assert_eq!(win.ctrl.stats(), bare.controller().stats(), "{step}");
            let clocks = |d: &dyn BlockDevice| (d.submission_clock_ns(), d.elapsed_ns());
            assert_eq!(clocks(win), clocks(bare), "{step}");
        };
        for step in 0..160u64 {
            let (w, r) = ((step * 5) % 40, (step * 3) % 40);
            let data = vec![(w * 7 + step) as u8; 2048];
            assert_eq!(win.write(w, &data), bare.write(w, &data), "step {step}");
            same(&win, &bare, &format!("step {step} write"));

            let (mut a, mut b) = (vec![0u8; 2048], vec![0u8; 2048]);
            assert_eq!(win.read(r, &mut a), bare.read(r, &mut b), "step {step}");
            assert_eq!(a, b, "step {step} read bytes");
            same(&win, &bare, &format!("step {step} read"));

            if step % 4 == 0 {
                let lbas = vec![r, (r + 1) % 40, (r + 2) % 40];
                let twins = (
                    win.submit(IoRequest::ReadV(lbas.clone())),
                    bare.submit(IoRequest::ReadV(lbas)),
                );
                match twins {
                    (Ok(ta), Ok(tb)) => assert_eq!(
                        win.poll_checked(ta).unwrap(),
                        bare.poll_checked(tb).unwrap(),
                        "step {step} ReadV"
                    ),
                    (ta, tb) => assert_eq!(ta.err(), tb.err(), "step {step} ReadV"),
                }
                same(&win, &bare, &format!("step {step} ReadV"));
            }
            if step % 9 == 8 {
                assert_eq!(win.trim(r), bare.trim(r), "step {step} trim");
                same(&win, &bare, &format!("step {step} trim"));
            }
        }
        assert_eq!(IoQueue::sync(&mut win), IoQueue::sync(&mut bare));
        same(&win, &bare, "sync");
    }
}
