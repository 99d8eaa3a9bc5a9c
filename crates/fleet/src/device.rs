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

use std::sync::Arc;

use ipa_controller::FlashController;
use ipa_core::PageLayout;
use ipa_flash::FlashStats;
use ipa_ftl::{
    BlockDevice, DeviceStats, FtlError, IoCompletion, IoQueue, IoRequest, IoToken, Lba,
    NativeFlashDevice, Result, ShardedFtl,
};

/// The shared multi-channel device a fleet's tenant views sit over.
///
/// `Arc<ShardedFtl>` (no cell): the stripe is internally locked per die,
/// so tenant views on different host threads submit concurrently and
/// only serialize where the simulated hardware would — on a die or a
/// channel.
pub type SharedDevice = Arc<ShardedFtl>;

/// One tenant's window onto the shared device.
pub struct TenantDevice {
    shared: SharedDevice,
    base: Lba,
    pages: u64,
}

impl TenantDevice {
    pub fn new(shared: SharedDevice, base: Lba, pages: u64) -> Self {
        TenantDevice {
            shared,
            base,
            pages,
        }
    }

    /// First shared-space LBA of this tenant's window.
    pub fn base(&self) -> Lba {
        self.base
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
            IoRequest::HighPriorityReadV(lbas) => IoRequest::HighPriorityReadV(
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
            IoRequest::Trim(lba) => IoRequest::Trim(self.map(lba)?),
            IoRequest::Flush => IoRequest::Flush,
        })
    }
}

impl BlockDevice for TenantDevice {
    fn page_size(&self) -> usize {
        self.shared.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.pages
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        let lba = self.map(lba)?;
        self.shared.read_shared(lba, buf)
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        let lba = self.map(lba)?;
        self.shared.write_shared(lba, data)
    }

    fn trim(&mut self, lba: Lba) -> Result<()> {
        let lba = self.map(lba)?;
        self.shared.trim_shared(lba)
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        lba < self.pages && self.shared.is_mapped(self.base + lba)
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        if lba >= self.pages {
            return None;
        }
        self.shared.layout_for(self.base + lba)
    }

    fn device_stats(&self) -> DeviceStats {
        self.shared.device_stats()
    }

    fn flash_stats(&self) -> FlashStats {
        self.shared.flash_stats()
    }

    fn elapsed_ns(&self) -> u64 {
        self.shared.elapsed_ns()
    }

    fn max_erase_count(&self) -> u32 {
        self.shared.max_erase_count()
    }

    fn raw_blocks(&self) -> u32 {
        self.shared.raw_blocks()
    }

    fn controller(&self) -> Option<&Arc<FlashController>> {
        Some(self.shared.controller())
    }

    fn set_submission_clock_ns(&mut self, ns: u64) {
        self.shared.controller().set_host_ns(ns);
    }

    fn submission_clock_ns(&self) -> u64 {
        self.shared.submission_clock_ns()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl IoQueue for TenantDevice {
    fn submit(&mut self, req: IoRequest) -> Result<IoToken> {
        let req = self.translate(req)?;
        self.shared.submit_io(req)
    }

    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion> {
        self.shared.poll_io_checked(token)
    }

    fn sync(&mut self) -> u64 {
        ShardedFtl::sync(&self.shared)
    }

    fn forget(&mut self, token: IoToken) {
        self.shared.forget_io(token);
    }
}

impl NativeFlashDevice for TenantDevice {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()> {
        let lba = self.map(lba)?;
        self.shared.write_delta_shared(lba, offset, delta_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_controller::ControllerConfig;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
    use ipa_ftl::{FtlConfig, StripePolicy};

    fn shared() -> SharedDevice {
        let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none())
            .with_seed(3);
        Arc::new(ShardedFtl::new(
            ControllerConfig::new(2, 2, chip),
            FtlConfig::traditional(),
            StripePolicy::RoundRobin,
        ))
    }

    #[test]
    fn windows_translate_and_isolate() {
        let dev = shared();
        let mut a = TenantDevice::new(Arc::clone(&dev), 0, 8);
        let mut b = TenantDevice::new(Arc::clone(&dev), 8, 8);
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
        assert!(dev.is_mapped(0) && dev.is_mapped(8));

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
}
