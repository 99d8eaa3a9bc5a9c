//! A completion the device lost is an error on every host path — never
//! "nothing to report".
//!
//! The test double below accepts every submission and then forgets its
//! token before the host can poll it, which is what a lost completion
//! looks like from the host side. The buffer pool's batched-delta evict
//! path used to read the missing completion as "every member accepted"
//! and commit delta records the device may have rejected; the WAL flush
//! ignored it and acknowledged a flush it never saw complete.

use ipa_core::{NmScheme, PageLayout};
use ipa_flash::{FlashChip, FlashStats};
use ipa_ftl::{
    BlockDevice, DeviceStats, Ftl, FtlConfig, FtlError, IoCompletion, IoQueue, IoRequest, IoToken,
    Lba, NativeFlashDevice, WriteStrategy,
};
use ipa_storage::{
    standard_layout, BufferPool, SlottedPage, StorageError, Wal, WalKind, WalRecord,
};
use ipa_testkit::quiet_slc;

/// A single-chip FTL whose queue loses every completion.
struct Lossy(Ftl);

impl BlockDevice for Lossy {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn capacity_pages(&self) -> u64 {
        self.0.capacity_pages()
    }
    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> ipa_ftl::Result<()> {
        self.0.read(lba, buf)
    }
    fn write(&mut self, lba: Lba, data: &[u8]) -> ipa_ftl::Result<()> {
        self.0.write(lba, data)
    }
    fn trim(&mut self, lba: Lba) -> ipa_ftl::Result<()> {
        self.0.trim(lba)
    }
    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        self.0.layout_for(lba)
    }
    fn device_stats(&self) -> DeviceStats {
        self.0.device_stats()
    }
    fn flash_stats(&self) -> FlashStats {
        self.0.flash_stats()
    }
    fn elapsed_ns(&self) -> u64 {
        self.0.elapsed_ns()
    }
    fn max_erase_count(&self) -> u32 {
        self.0.max_erase_count()
    }
    fn raw_blocks(&self) -> u32 {
        self.0.raw_blocks()
    }
}

impl IoQueue for Lossy {
    fn submit(&mut self, req: IoRequest) -> ipa_ftl::Result<IoToken> {
        let token = self.0.submit(req)?;
        self.0.forget(token);
        Ok(token)
    }
    fn poll_checked(&mut self, token: IoToken) -> ipa_ftl::Result<IoCompletion> {
        self.0.poll_checked(token)
    }
    fn sync(&mut self) -> u64 {
        self.0.sync()
    }
    fn forget(&mut self, token: IoToken) {
        self.0.forget(token)
    }
}

impl NativeFlashDevice for Lossy {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta: &[u8]) -> ipa_ftl::Result<()> {
        self.0.write_delta(lba, offset, delta)
    }
}

fn lossy(config: FtlConfig) -> Box<Lossy> {
    Box::new(Lossy(Ftl::new(
        FlashChip::new(quiet_slc(32, 8, 11)),
        config,
    )))
}

#[test]
fn batched_delta_evict_surfaces_a_lost_completion() {
    let layout = standard_layout(2048, NmScheme::new(2, 4));
    let device = lossy(FtlConfig::ipa_native(layout));
    let mut pool = BufferPool::new(device, WriteStrategy::IpaNative, 8);
    for pid in 0..3u64 {
        pool.new_page(pid).unwrap();
        pool.with_page_mut(pid, None, |pm| {
            let mut sp = SlottedPage::new(pm);
            sp.format(pid as u32);
            sp.insert(&[pid as u8; 32]).unwrap();
        })
        .unwrap();
    }
    // First flush: brand-new pages go out of place through the sync
    // write path — no queued submission, nothing to lose.
    pool.flush_all().unwrap();
    for pid in 0..3u64 {
        pool.with_page_mut(pid, None, |pm| {
            SlottedPage::new(pm).update_field(0, 4, &[9, 9]).unwrap();
        })
        .unwrap();
    }
    // Second flush: three in-place verdicts batch into one `WriteDeltaV`
    // whose completion — the per-member rejection list — never arrives.
    let err = pool.flush_all().expect_err("a lost completion is an error");
    assert!(
        matches!(err, StorageError::Device(FtlError::TokenRetired { .. })),
        "typed device error expected, got {err}"
    );
    assert_eq!(
        pool.stats().evict_in_place,
        0,
        "no member may be committed as accepted without its completion"
    );
}

#[test]
fn wal_flush_surfaces_a_lost_completion() {
    let mut wal = Wal::with_device(lossy(FtlConfig::traditional()), 16, 2048);
    let lsn = wal.next_lsn();
    let rec = WalRecord {
        lsn,
        tx: 1,
        kind: WalKind::Commit,
    };
    wal.append(&rec).unwrap();
    let err = wal
        .flush()
        .expect_err("a flush whose completion is lost is not durable");
    assert!(
        matches!(err, StorageError::Device(FtlError::TokenRetired { .. })),
        "typed device error expected, got {err}"
    );
}
