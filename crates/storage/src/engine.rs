//! The storage engine facade: tables + buffer pool + WAL + transactions
//! over a simulated flash device.
//!
//! One [`StorageEngine`] is the moral equivalent of the paper's Shore-MT
//! instance: the benchmark drivers create tables, run transactions, and
//! read the same counters the demo GUI displays.

use std::collections::HashSet;

use ipa_core::NmScheme;
use ipa_flash::{DeviceConfig, FlashChip, FlashStats};
use ipa_ftl::{
    DeviceStats, Ftl, FtlConfig, FtlError, NativeFlashDevice, Region, RegionTable, WriteStrategy,
};

use crate::btree;
use crate::buffer::{BufferPool, PageId, PoolStats};
use crate::catalog::{Catalog, TableId, TableInfo, TableKind, TableSpec};
use crate::error::{Result, StorageError};
use crate::heap::{self, Rid};
use crate::page::{insert_capture_bound, standard_layout, write_ops};
use crate::tx::{TxId, TxManager};
use crate::wal::{Wal, WalKind, WalRecord, UPDATE_HEADER_LEN};

/// Engine-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// How dirty pages reach the device (the demo's three scenarios).
    pub strategy: WriteStrategy,
    /// The N×M scheme for IPA-formatted regions.
    pub scheme: NmScheme,
    /// Buffer-pool frames.
    pub buffer_frames: usize,
    /// WAL capacity in log pages (at least 1: the engine always logs).
    pub wal_pages: u64,
    /// Commits per WAL flush (group commit). 1 = flush every commit
    /// (strict durability); benchmark runs model a loaded multi-client
    /// system with a deeper group.
    pub group_commit: u32,
    /// Buffer-pool read-ahead window (pages posted past a sequential
    /// miss); 0 disables read-ahead.
    pub readahead_window: usize,
    /// Stripe the WAL over its own small multi-channel controller
    /// (`channels × dies_per_channel`) instead of a single SLC chip, so
    /// group-commit flushes go out as one vectored write across
    /// channels. `None` keeps the historic single-chip log device.
    pub wal_stripe: Option<(u32, u32)>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: WriteStrategy::Traditional,
            scheme: NmScheme::disabled(),
            buffer_frames: 256,
            wal_pages: 1024,
            group_commit: 1,
            readahead_window: 0,
            wal_stripe: None,
        }
    }
}

impl EngineConfig {
    /// Enable IPA with the given scheme using the native (`write_delta`)
    /// strategy.
    pub fn with_ipa(mut self, scheme: NmScheme) -> Self {
        self.strategy = WriteStrategy::IpaNative;
        self.scheme = scheme;
        self
    }

    pub fn with_strategy(mut self, strategy: WriteStrategy, scheme: NmScheme) -> Self {
        assert_eq!(
            strategy.needs_layout(),
            !scheme.is_disabled(),
            "strategy/scheme mismatch: {strategy:?} with {scheme}"
        );
        self.strategy = strategy;
        self.scheme = scheme;
        self
    }

    pub fn with_buffer_frames(mut self, frames: usize) -> Self {
        self.buffer_frames = frames;
        self
    }

    pub fn with_group_commit(mut self, group: u32) -> Self {
        assert!(group >= 1);
        self.group_commit = group;
        self
    }

    /// Enable stripe-aware read-ahead with the given window.
    pub fn with_readahead(mut self, window: usize) -> Self {
        self.readahead_window = window;
        self
    }

    /// Stripe the WAL over a `channels × dies_per_channel` controller.
    pub fn with_striped_wal(mut self, channels: u32, dies_per_channel: u32) -> Self {
        assert!(channels >= 1 && dies_per_channel >= 1);
        self.wal_stripe = Some((channels, dies_per_channel));
        self
    }
}

/// Combined statistics snapshot.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    pub pool: PoolStats,
    pub device: DeviceStats,
    pub flash: FlashStats,
    /// The log device's counters. Always `Some` — the engine always
    /// logs; the `Option` is a shape frozen by `benchmark/`.
    pub wal_device: Option<DeviceStats>,
    pub committed: u64,
    pub aborted: u64,
    /// Simulated time: data and log devices operate in parallel, so the
    /// run takes as long as the busier one.
    pub elapsed_ns: u64,
    /// The log device's own horizon — the `wal_ns` leg of `elapsed_ns`,
    /// exposed so WAL-bound configs are identifiable.
    pub wal_elapsed_ns: u64,
    pub max_erase_count: u32,
}

/// What recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    pub records_scanned: usize,
    pub updates_redone: usize,
    pub updates_skipped_uncommitted: usize,
}

/// The storage engine.
pub struct StorageEngine {
    pool: BufferPool,
    catalog: Catalog,
    wal: Wal,
    tx: TxManager,
    /// Commits since the last WAL flush (group commit).
    commits_since_flush: u32,
    /// Page-write capture buffer, `mem::take`n around each logged operation.
    capture: Vec<u8>,
    config: EngineConfig,
}

impl StorageEngine {
    /// Build an engine over a fresh device. Tables are laid out in order;
    /// index tables get their root created. Returns the engine — resolve
    /// tables by name with [`StorageEngine::table`].
    pub fn build(
        device_config: DeviceConfig,
        config: EngineConfig,
        tables: &[TableSpec],
    ) -> Result<StorageEngine> {
        let page_size = device_config.geometry.page_size;
        Self::build_with_device(page_size, config, tables, |regions, ftl_config| {
            Box::new(Ftl::with_regions(
                FlashChip::new(device_config),
                ftl_config,
                regions,
            ))
        })
    }

    /// Like [`StorageEngine::build`], but the caller supplies the device.
    /// The factory receives the table-derived [`RegionTable`] (host LBA
    /// ranges, one region per table) and the [`FtlConfig`] implied by the
    /// engine's write strategy — enough to build a plain [`Ftl`], a
    /// die-striped `ShardedFtl`, or anything else that speaks
    /// [`NativeFlashDevice`].
    pub fn build_with_device<F>(
        page_size: usize,
        config: EngineConfig,
        tables: &[TableSpec],
        make_device: F,
    ) -> Result<StorageEngine>
    where
        F: FnOnce(RegionTable, FtlConfig) -> Box<dyn NativeFlashDevice>,
    {
        let layout = config
            .strategy
            .needs_layout()
            .then(|| standard_layout(page_size, config.scheme));

        let mut catalog = Catalog::new();
        let mut regions = RegionTable::new();
        for spec in tables {
            // Inserting one row must fit one log record (old + new bytes):
            // refuse the schema, not the transaction that trips over it.
            let bytes = UPDATE_HEADER_LEN + insert_capture_bound(spec.row_len);
            let max = Wal::max_record_len(page_size);
            if spec.kind == TableKind::Heap && bytes > max {
                return Err(StorageError::LogRecordTooLarge { bytes, max });
            }
            let id = catalog.add(spec.clone());
            let info = catalog.get(id);
            regions.add(Region {
                name: info.spec.name.clone(),
                lbas: info.first_page..info.first_page + info.spec.pages,
                layout: if info.spec.ipa { layout } else { None },
            });
        }

        let ftl_config = match config.strategy {
            WriteStrategy::Traditional => FtlConfig::traditional(),
            WriteStrategy::IpaConventional => FtlConfig {
                in_place_detection: true,
                ..FtlConfig::traditional()
            },
            WriteStrategy::IpaNative => FtlConfig::traditional(),
        };
        let device = make_device(regions, ftl_config);
        assert_eq!(
            device.page_size(),
            page_size,
            "device page size disagrees with the engine layout"
        );
        assert!(
            catalog.pages_used() <= device.capacity_pages(),
            "tables need {} pages but the device exports {}",
            catalog.pages_used(),
            device.capacity_pages()
        );

        let mut pool = BufferPool::new(device, config.strategy, config.buffer_frames);
        if config.readahead_window > 0 {
            pool.enable_readahead(config.readahead_window);
        }
        assert!(
            config.wal_pages > 0,
            "the engine always logs: wal_pages = 0"
        );
        let wal = match config.wal_stripe {
            Some((channels, dies)) => Wal::striped(config.wal_pages, page_size, channels, dies),
            None => Wal::new(config.wal_pages, page_size),
        };

        let mut engine = StorageEngine {
            pool,
            catalog,
            wal,
            tx: TxManager::new(),
            commits_since_flush: 0,
            capture: Vec::new(),
            config,
        };
        // Create index roots.
        for id in 0..engine.catalog.len() {
            if engine.catalog.get(id).spec.kind == TableKind::Index {
                let lsn = engine.wal.next_lsn();
                btree::create(&mut engine.pool, engine.catalog.get_mut(id), lsn)?;
            }
        }
        Ok(engine)
    }

    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    #[inline]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    #[inline]
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Reach the concrete device behind the pool, when it opted into the
    /// [`ipa_ftl::BlockDevice::as_any`] escape hatch. This is how layered
    /// devices wired in through [`StorageEngine::build_with_device`] — a
    /// maintenance-scheduled FTL, for instance — surface their subsystem
    /// stats to benchmark drivers without widening the device trait.
    pub fn device_as<T: 'static>(&self) -> Option<&T> {
        self.pool
            .device()
            .as_any()
            .and_then(|any| any.downcast_ref::<T>())
    }

    pub fn table(&self, name: &str) -> Result<TableId> {
        self.catalog.resolve(name)
    }

    pub fn table_info(&self, id: TableId) -> &TableInfo {
        self.catalog.get(id)
    }

    /// Log what a page operation captured in `ops` (the capture buffer,
    /// handed back cleared): undo first, so a failed append can still abort.
    fn log_update(&mut self, tx: TxId, lsn: u64, page: PageId, mut ops: Vec<u8>) -> Result<()> {
        let logged = if ops.is_empty() {
            Ok(())
        } else {
            (self.tx.log_undo(tx, page, &ops))
                .and_then(|()| self.wal.append_update(lsn, tx, page, &ops))
        };
        ops.clear();
        self.capture = ops;
        logged
    }

    /// Log a transaction-control record at the next LSN.
    fn log_control(&mut self, tx: TxId, kind: WalKind) -> Result<()> {
        let lsn = self.wal.next_lsn();
        self.wal.append(&WalRecord { lsn, tx, kind })
    }

    // ----- transactions ---------------------------------------------------

    pub fn begin(&mut self) -> TxId {
        let tx = self.tx.begin();
        // Begin records need no durability on their own.
        let _ = self.log_control(tx, WalKind::Begin);
        tx
    }

    pub fn commit(&mut self, tx: TxId) -> Result<()> {
        self.log_control(tx, WalKind::Commit)?;
        self.commits_since_flush += 1;
        if self.commits_since_flush >= self.config.group_commit {
            // Group-commit durability point, charged to the committing
            // client: the flush submits at the client's logical now and
            // the client resumes at its completion. Concurrent clients'
            // flushes land on different dies of a striped log and
            // overlap; a single-chip log (whose submission clock IS its
            // device clock) serialises them.
            let now = self.pool.device().submission_clock_ns();
            self.wal.set_submission_clock_ns(now);
            self.wal.flush()?;
            let done = self.wal.submission_clock_ns();
            if done > now {
                self.pool.device_mut().set_submission_clock_ns(done);
            }
            self.commits_since_flush = 0;
        }
        self.tx.commit(tx)
    }

    pub fn abort(&mut self, tx: TxId) -> Result<()> {
        let undo = self.tx.take_undo(tx)?;
        for (page, offset, old) in undo.newest_first() {
            self.pool
                .with_page_mut(page, None, |pm| pm.write(offset as usize, old))?;
        }
        self.log_control(tx, WalKind::Abort)
    }

    // ----- heap operations ------------------------------------------------

    pub fn insert(&mut self, tx: TxId, table: TableId, row: &[u8]) -> Result<Rid> {
        let lsn = self.wal.next_lsn();
        let mut ops = std::mem::take(&mut self.capture);
        let info = self.catalog.get_mut(table);
        let rid = heap::insert(&mut self.pool, info, row, lsn, Some(&mut ops))?;
        self.log_update(tx, lsn, rid.page, ops)?;
        Ok(rid)
    }

    pub fn get(&mut self, table: TableId, rid: Rid) -> Result<Vec<u8>> {
        heap::get(&mut self.pool, self.catalog.get(table), rid)
    }

    pub fn update_field(
        &mut self,
        tx: TxId,
        _table: TableId,
        rid: Rid,
        offset: usize,
        bytes: &[u8],
    ) -> Result<()> {
        let lsn = self.wal.next_lsn();
        let mut ops = std::mem::take(&mut self.capture);
        heap::update_field(&mut self.pool, rid, offset, bytes, lsn, Some(&mut ops))?;
        self.log_update(tx, lsn, rid.page, ops)
    }

    pub fn update_row(&mut self, tx: TxId, _table: TableId, rid: Rid, row: &[u8]) -> Result<()> {
        let lsn = self.wal.next_lsn();
        let mut ops = std::mem::take(&mut self.capture);
        heap::update_row(&mut self.pool, rid, row, lsn, Some(&mut ops))?;
        self.log_update(tx, lsn, rid.page, ops)
    }

    pub fn delete(&mut self, tx: TxId, table: TableId, rid: Rid) -> Result<()> {
        let lsn = self.wal.next_lsn();
        let mut ops = std::mem::take(&mut self.capture);
        let info = self.catalog.get_mut(table);
        heap::delete(&mut self.pool, info, rid, lsn, Some(&mut ops))?;
        self.log_update(tx, lsn, rid.page, ops)
    }

    pub fn scan(&mut self, table: TableId, f: impl FnMut(Rid, &[u8])) -> Result<()> {
        heap::scan(&mut self.pool, self.catalog.get(table), f)
    }

    // ----- index operations -------------------------------------------------

    /// Index page changes are not WAL-logged (`tx` is accepted for call
    /// symmetry with the heap operations): an index survives a crash only
    /// as far as its pages were flushed.
    pub fn index_insert(&mut self, _tx: TxId, index: TableId, key: u64, rid: Rid) -> Result<()> {
        let lsn = self.wal.next_lsn();
        btree::insert(&mut self.pool, self.catalog.get_mut(index), key, rid, lsn)
    }

    pub fn index_lookup(&mut self, index: TableId, key: u64) -> Result<Option<Rid>> {
        btree::lookup(&mut self.pool, self.catalog.get(index), key)
    }

    /// Not WAL-logged — see [`StorageEngine::index_insert`].
    pub fn index_delete(&mut self, _tx: TxId, index: TableId, key: u64) -> Result<bool> {
        let lsn = self.wal.next_lsn();
        btree::delete(&mut self.pool, self.catalog.get(index), key, lsn)
    }

    pub fn index_range(
        &mut self,
        index: TableId,
        lo: u64,
        hi: u64,
        f: impl FnMut(u64, Rid),
    ) -> Result<()> {
        btree::range(&mut self.pool, self.catalog.get(index), lo, hi, f)
    }

    // ----- lifecycle --------------------------------------------------------

    /// Flush all dirty pages (checkpoint).
    pub fn flush_all(&mut self) -> Result<()> {
        self.pool.flush_all()?;
        self.wal.flush()
    }

    /// Sharp checkpoint: force every dirty page to flash, then write a
    /// durable checkpoint record and recycle the log pages it makes dead
    /// — recovery afterwards starts from this point, and the reclaimed
    /// stripes go back into the WAL's free pool. (Requires no active
    /// transactions; their undo would be lost with the log.)
    pub fn checkpoint(&mut self) -> Result<()> {
        assert_eq!(
            self.tx.active_count(),
            0,
            "checkpoint with active transactions would orphan their undo"
        );
        self.pool.flush_all()?;
        self.wal.checkpoint()?;
        self.commits_since_flush = 0;
        Ok(())
    }

    /// Flush and empty the buffer pool (clean restart).
    pub fn restart_clean(&mut self) -> Result<()> {
        self.pool.drop_cache()?;
        Ok(())
    }

    /// Drop all buffered (unflushed) state — a crash.
    pub fn crash(&mut self) {
        self.pool.drop_cache_without_flush();
    }

    /// Redo committed work from the WAL (call after [`StorageEngine::crash`]).
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let records = self.wal.replay()?;
        let committed: HashSet<u64> = records
            .iter()
            .filter(|r| matches!(r.kind, WalKind::Commit))
            .map(|r| r.tx)
            .collect();
        let mut report = RecoveryReport {
            records_scanned: records.len(),
            updates_redone: 0,
            updates_skipped_uncommitted: 0,
        };
        for rec in records {
            let WalKind::Update { page, ops } = rec.kind else {
                continue;
            };
            if !committed.contains(&rec.tx) {
                report.updates_skipped_uncommitted += 1;
                continue;
            }
            self.redo_page(page, &ops)?;
            report.updates_redone += 1;
        }
        self.pool.flush_all()?;
        Ok(report)
    }

    fn redo_page(&mut self, page: PageId, ops: &[u8]) -> Result<()> {
        let apply = |pm: &mut crate::page::PageMut<'_>| {
            for (offset, _, new) in write_ops(ops) {
                pm.write(offset as usize, new);
            }
        };
        match self.pool.with_page_mut(page, None, apply) {
            Ok(()) => Ok(()),
            Err(StorageError::Device(FtlError::UnmappedLba(_))) => {
                // Page never reached flash before the crash: rebuild it
                // from the log alone.
                self.pool.new_page(page)?;
                self.pool.with_page_mut(page, None, apply)
            }
            Err(e) => Err(e),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        // `readahead_hits` is host attribution: the pool knows which
        // fetches a read-ahead completion served, the device does not.
        let device = DeviceStats {
            readahead_hits: self.pool.stats().readahead_hits,
            ..self.pool.device().device_stats()
        };
        let flash = self.pool.device().flash_stats();
        EngineStats {
            pool: *self.pool.stats(),
            device,
            flash,
            wal_device: Some(self.wal.device_stats()),
            committed: self.tx.committed,
            aborted: self.tx.aborted,
            elapsed_ns: self.elapsed_ns(),
            wal_elapsed_ns: self.wal.elapsed_ns(),
            max_erase_count: self.pool.device().max_erase_count(),
        }
    }

    /// Simulated time so far — the later of the data and log device
    /// clocks ([`EngineStats::elapsed_ns`] without the rest of the snapshot).
    pub fn elapsed_ns(&self) -> u64 {
        self.pool.device().elapsed_ns().max(self.wal.elapsed_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::{DisturbRates, FlashMode, Geometry};

    impl StorageEngine {
        /// The engine's log, for `wal::tests::golden_log_image`.
        pub(crate) fn wal_mut(&mut self) -> &mut Wal {
            &mut self.wal
        }
    }

    fn device() -> DeviceConfig {
        DeviceConfig::new(Geometry::new(128, 16, 2048, 64), FlashMode::PSlc)
            .with_disturb(DisturbRates::none())
    }

    fn engine(config: EngineConfig) -> StorageEngine {
        StorageEngine::build(
            device(),
            config,
            &[
                TableSpec::heap("accounts", 64, 64),
                TableSpec::heap("history", 32, 32).without_ipa(),
                TableSpec::index("accounts_pk", 32),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_resolve() {
        let e = engine(EngineConfig::default());
        assert!(e.table("accounts").is_ok());
        assert!(e.table("accounts_pk").is_ok());
        assert!(e.table("nope").is_err());
    }

    #[test]
    fn insert_get_update_cycle() {
        let mut e = engine(EngineConfig::default().with_ipa(NmScheme::new(2, 4)));
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &[0u8; 64]).unwrap();
        e.update_field(tx, t, rid, 8, &[1, 2, 3]).unwrap();
        e.commit(tx).unwrap();
        let row = e.get(t, rid).unwrap();
        assert_eq!(&row[8..11], &[1, 2, 3]);
    }

    #[test]
    fn abort_restores_old_values() {
        let mut e = engine(EngineConfig::default());
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &[7u8; 64]).unwrap();
        e.commit(tx).unwrap();

        let tx2 = e.begin();
        e.update_field(tx2, t, rid, 0, &[9, 9]).unwrap();
        assert_eq!(&e.get(t, rid).unwrap()[..2], &[9, 9]);
        e.abort(tx2).unwrap();
        assert_eq!(&e.get(t, rid).unwrap()[..2], &[7, 7]);
    }

    #[test]
    fn abort_restores_newest_first_across_pages() {
        let mut e = engine(EngineConfig::default().with_ipa(NmScheme::new(2, 4)));
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rids: Vec<Rid> = (0..40u8)
            .map(|i| e.insert(tx, t, &[i; 64]).unwrap())
            .collect();
        e.commit(tx).unwrap();
        let (a, b) = (rids[0], rids[39]);
        assert_ne!(a.page, b.page, "two pages");
        let images = |e: &mut StorageEngine| {
            [a.page, b.page].map(|p| e.pool_mut().with_page(p, <[u8]>::to_vec).unwrap())
        };
        let before = images(&mut e);

        // Overlapping ranges written twice on each page, interleaved:
        // only newest-first undo puts the oldest bytes back last.
        let tx = e.begin();
        e.update_field(tx, t, a, 0, &[0xA1; 8]).unwrap();
        e.update_field(tx, t, b, 4, &[0xB1; 8]).unwrap();
        e.update_field(tx, t, a, 4, &[0xA2; 8]).unwrap();
        e.update_row(tx, t, b, &[0xB2; 64]).unwrap();
        e.update_field(tx, t, a, 2, &[0xA3; 4]).unwrap();
        assert_ne!(images(&mut e), before);
        e.abort(tx).unwrap();
        assert_eq!(images(&mut e), before, "byte-identical, page LSN included");
    }

    #[test]
    fn oversize_row_is_a_typed_error_not_a_panic() {
        // Physical logging stores old + new: a 1 100-byte row fits a
        // 2 KiB page but its insert record (2 295 B) fits no log page.
        // Refused when the table is declared, not mid-transaction.
        let build = |row_len| {
            StorageEngine::build(
                DeviceConfig::new(Geometry::new(64, 32, 2048, 64), FlashMode::PSlc),
                EngineConfig::default(),
                &[TableSpec::heap("t", row_len, 16)],
            )
        };
        assert_eq!(
            build(1100).err(),
            Some(StorageError::LogRecordTooLarge {
                bytes: 2295,
                max: 2028
            })
        );
        // The largest loggable row inserts, updates and aborts cleanly.
        let row_len = (2028 - 95) / 2;
        assert!(build(row_len + 1).is_err());
        let mut e = build(row_len).unwrap();
        let t = e.table("t").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &vec![7; row_len]).unwrap();
        e.update_row(tx, t, rid, &vec![8; row_len]).unwrap();
        e.abort(tx).unwrap();
        assert!(e.get(t, rid).is_err(), "the insert was undone");
    }

    #[test]
    fn index_and_heap_together() {
        let mut e = engine(EngineConfig::default());
        let t = e.table("accounts").unwrap();
        let idx = e.table("accounts_pk").unwrap();
        let tx = e.begin();
        for key in 0..100u64 {
            let mut row = [0u8; 64];
            row[..8].copy_from_slice(&key.to_le_bytes());
            let rid = e.insert(tx, t, &row).unwrap();
            e.index_insert(tx, idx, key, rid).unwrap();
        }
        e.commit(tx).unwrap();
        let rid = e.index_lookup(idx, 42).unwrap().expect("key present");
        let row = e.get(t, rid).unwrap();
        assert_eq!(u64::from_le_bytes(row[..8].try_into().unwrap()), 42);
    }

    #[test]
    fn data_survives_clean_restart() {
        let mut e = engine(EngineConfig::default().with_ipa(NmScheme::new(2, 4)));
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &[1u8; 64]).unwrap();
        e.update_field(tx, t, rid, 4, &[0xAB]).unwrap();
        e.commit(tx).unwrap();
        e.restart_clean().unwrap();
        assert_eq!(e.get(t, rid).unwrap()[4], 0xAB);
    }

    #[test]
    fn wal_recovery_redoes_committed_updates() {
        let mut e = engine(EngineConfig::default());
        let t = e.table("accounts").unwrap();

        // Committed + flushed baseline row.
        let tx = e.begin();
        let rid = e.insert(tx, t, &[0u8; 64]).unwrap();
        e.commit(tx).unwrap();
        e.flush_all().unwrap();

        // Committed but unflushed update, plus an uncommitted one.
        let tx2 = e.begin();
        e.update_field(tx2, t, rid, 0, &[0x55]).unwrap();
        e.commit(tx2).unwrap();
        let tx3 = e.begin();
        e.update_field(tx3, t, rid, 1, &[0x66]).unwrap();
        // no commit for tx3

        e.crash();
        let report = e.recover().unwrap();
        assert!(report.updates_redone >= 1);
        assert!(report.updates_skipped_uncommitted >= 1);

        let row = e.get(t, rid).unwrap();
        assert_eq!(row[0], 0x55, "committed update must survive the crash");
        assert_eq!(row[1], 0x00, "uncommitted update must not be redone");
    }

    #[test]
    fn recovery_rebuilds_never_flushed_pages() {
        let mut e = engine(EngineConfig::default());
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &[3u8; 64]).unwrap();
        e.commit(tx).unwrap();
        // Crash before any flush: the page exists only in WAL.
        e.crash();
        e.recover().unwrap();
        assert_eq!(e.get(t, rid).unwrap(), vec![3u8; 64]);
    }

    #[test]
    fn checkpoint_truncates_recovery_scope() {
        let mut e = engine(EngineConfig::default());
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &[0u8; 64]).unwrap();
        e.commit(tx).unwrap();
        e.checkpoint().unwrap();

        // Post-checkpoint committed update, unflushed.
        let tx = e.begin();
        e.update_field(tx, t, rid, 0, &[0x77]).unwrap();
        e.commit(tx).unwrap();

        e.crash();
        let report = e.recover().unwrap();
        // Only post-checkpoint records exist in the log.
        assert!(report.records_scanned < 10, "log not truncated: {report:?}");
        assert_eq!(e.get(t, rid).unwrap()[0], 0x77);
    }

    #[test]
    #[should_panic(expected = "the engine always logs")]
    fn an_engine_without_a_log_is_rejected() {
        let _ = engine(EngineConfig {
            wal_pages: 0,
            ..EngineConfig::default()
        });
    }

    #[test]
    fn stats_expose_device_counters() {
        let mut e = engine(EngineConfig::default());
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &[0u8; 64]).unwrap();
        e.update_field(tx, t, rid, 0, &[1]).unwrap();
        e.commit(tx).unwrap();
        e.flush_all().unwrap();
        let s = e.stats();
        assert!(s.device.total_host_writes() > 0);
        assert!(s.elapsed_ns > 0);
        assert_eq!(s.committed, 1);
        assert!(s.wal_device.is_some());
    }

    #[test]
    fn striped_wal_survives_crash_recovery() {
        let mut e = StorageEngine::build(
            device(),
            EngineConfig::default().with_striped_wal(2, 1),
            &[TableSpec::heap("accounts", 64, 64)],
        )
        .unwrap();
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        let rid = e.insert(tx, t, &[0u8; 64]).unwrap();
        e.commit(tx).unwrap();
        e.flush_all().unwrap();
        let tx2 = e.begin();
        e.update_field(tx2, t, rid, 0, &[0x5A]).unwrap();
        e.commit(tx2).unwrap();
        e.crash();
        let report = e.recover().unwrap();
        assert!(report.updates_redone >= 1);
        assert_eq!(e.get(t, rid).unwrap()[0], 0x5A);
        let s = e.stats();
        assert!(s.wal_device.is_some());
        assert!(s.wal_elapsed_ns > 0, "log clock is reported");
    }

    #[test]
    fn readahead_config_reaches_the_pool() {
        let mut e = StorageEngine::build(
            device(),
            EngineConfig::default().with_readahead(4),
            &[TableSpec::heap("accounts", 64, 64)],
        )
        .unwrap();
        let t = e.table("accounts").unwrap();
        let tx = e.begin();
        for i in 0..400u64 {
            let mut row = [0u8; 64];
            row[..8].copy_from_slice(&i.to_le_bytes());
            e.insert(tx, t, &row).unwrap();
        }
        e.commit(tx).unwrap();
        e.restart_clean().unwrap();
        e.scan(t, |_, _| {}).unwrap();
        let s = e.stats();
        assert!(
            s.pool.readahead_hits > 0,
            "a post-restart table scan must ride read-ahead: {:?}",
            s.pool
        );
        assert_eq!(s.device.readahead_hits, s.pool.readahead_hits);
    }

    #[test]
    fn ipa_strategy_reduces_invalidations_for_update_workload() {
        let run = |config: EngineConfig| -> DeviceStats {
            let mut e = engine(config);
            let t = e.table("accounts").unwrap();
            let tx = e.begin();
            let mut rids = Vec::new();
            for i in 0..50u64 {
                let mut row = [0u8; 64];
                row[..8].copy_from_slice(&i.to_le_bytes());
                rids.push(e.insert(tx, t, &row).unwrap());
            }
            e.commit(tx).unwrap();
            e.flush_all().unwrap();

            // Many small updates with periodic checkpoints (evictions).
            for round in 0..40u64 {
                let tx = e.begin();
                for (i, rid) in rids.iter().enumerate() {
                    e.update_field(tx, t, *rid, 16, &[(round as u8).wrapping_add(i as u8)])
                        .unwrap();
                }
                e.commit(tx).unwrap();
                e.flush_all().unwrap();
            }
            e.stats().device
        };
        let trad = run(EngineConfig::default());
        let ipa = run(EngineConfig::default().with_ipa(NmScheme::new(4, 16)));
        assert!(
            ipa.page_invalidations < trad.page_invalidations / 2,
            "IPA {} vs traditional {} invalidations",
            ipa.page_invalidations,
            trad.page_invalidations
        );
        assert!(ipa.in_place_appends > 0);
    }
}
