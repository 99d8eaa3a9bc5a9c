//! The buffer pool: clock replacement, dirty bookkeeping, and the
//! eviction paths of the three write strategies.
//!
//! This is where the paper's §3 "Page operations" live:
//!
//! * **fetch** — read the page straight into the buffer its frame will
//!   keep (the one the last eviction freed), apply any delta records
//!   ([`ipa_core::apply_and_collect`]), wipe the area, seed the tracker.
//! * **modify** — all mutations flow through [`crate::page::PageMut`],
//!   which feeds the tracker's conformance check.
//! * **evict** — consult [`ChangeTracker::verdict`]:
//!   [`IpaVerdict::Clean`] drops the frame, [`IpaVerdict::InPlace`] sends
//!   delta records (`write_delta` for the native strategy, a full
//!   overwrite-compatible image for the conventional strategy), and
//!   [`IpaVerdict::OutOfPlace`] resets the delta area and writes the whole
//!   page out of place.

use ipa_core::{apply_and_collect, ChangeTracker, IpaVerdict, NmScheme, PageLayout};
use ipa_ftl::{FtlError, IoRequest, IoToken, Lba, NativeFlashDevice, WriteStrategy};

use crate::error::{Result, StorageError};
use crate::page::{standard_layout, PageMut};
use crate::IdMap;

/// Logical page identifier; maps 1:1 onto the device LBA.
pub type PageId = u64;

/// Histogram of net modified bytes per evicted dirty page (Figure 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetBytesHistogram {
    /// Bucket upper bounds: ≤10, ≤50, ≤100, ≤500, ≤1000, >1000.
    pub buckets: [u64; 6],
    /// Total dirty evictions recorded.
    pub count: u64,
    /// Sum of net modified bytes.
    pub total_bytes: u64,
}

impl NetBytesHistogram {
    pub fn record(&mut self, bytes: usize) {
        let idx = match bytes {
            0..=10 => 0,
            11..=50 => 1,
            51..=100 => 2,
            101..=500 => 3,
            501..=1000 => 4,
            _ => 5,
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_bytes += bytes as u64;
    }

    /// Fraction of dirty evictions with at most 100 net modified bytes —
    /// the paper reports >70 % across the OLTP benchmarks.
    pub fn fraction_under_100b(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.buckets[0] + self.buckets[1] + self.buckets[2]) as f64 / self.count as f64
    }

    /// Mean net modified bytes per dirty eviction.
    pub fn mean_bytes(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.count as f64
        }
    }
}

/// One recorded page-level event, for trace-driven comparisons (the paper
/// compares IPA against In-Page Logging by replaying traces recorded from
/// benchmark runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The page was read from the device (buffer miss).
    Fetch { lba: PageId },
    /// A dirty page was persisted with `changed_bytes` net modified bytes
    /// relative to its last persisted image.
    Evict { lba: PageId, changed_bytes: u32 },
}

/// Buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Dirty evictions that appended delta records in place.
    pub evict_in_place: u64,
    /// Dirty evictions written out of place.
    pub evict_out_of_place: u64,
    /// Clean evictions (no write).
    pub evict_clean: u64,
    /// In-place attempts the device rejected (odd-MLC MSB pages, NOP
    /// exhaustion) that fell back to out-of-place writes.
    pub in_place_fallbacks: u64,
    /// Neighbour pages posted as read-ahead on sequential misses.
    pub readahead_issued: u64,
    /// Fetches served from a read-ahead completion instead of a fresh
    /// synchronous device read.
    pub readahead_hits: u64,
    /// Net modified bytes per dirty eviction (needs [`BufferPool::enable_net_write_measurement`]).
    pub net_bytes: NetBytesHistogram,
}

struct Frame {
    page_id: PageId,
    data: Vec<u8>,
    tracker: ChangeTracker,
    /// Raw flash image at fetch (conventional IPA strategy only).
    original: Option<Vec<u8>>,
    /// At-fetch snapshot for net-write measurement (Figure 1 mode).
    snapshot: Option<Vec<u8>>,
    dirty: bool,
    referenced: bool,
}

/// An in-flight read-ahead vector: one posted `ReadV` covering
/// `members`, whose completion data (indexed by member position) has not
/// been claimed yet.
struct Prefetch {
    token: IoToken,
    members: Vec<PageId>,
}

/// Buffer pool over a native flash device.
pub struct BufferPool {
    device: Box<dyn NativeFlashDevice>,
    strategy: WriteStrategy,
    frames: Vec<Option<Frame>>,
    map: IdMap<PageId, usize>,
    hand: usize,
    measure_net_writes: bool,
    trace: Option<Vec<TraceEvent>>,
    /// Read-ahead window (pages prefetched past a sequential miss);
    /// 0 disables read-ahead.
    readahead: usize,
    /// The previous miss, for sequential-pattern detection.
    last_miss: Option<PageId>,
    /// Posted read-ahead vectors not yet polled.
    pending_prefetch: Vec<Prefetch>,
    /// Polled read-ahead images awaiting consumption.
    ready_prefetch: IdMap<PageId, Vec<u8>>,
    /// The last evicted frame's page buffer, kept for the next miss: the
    /// device read (or `new_page`'s `0xFF` fill) overwrites all of it, so
    /// a steady-state miss allocates nothing.
    spare: Option<Vec<u8>>,
    stats: PoolStats,
}

impl BufferPool {
    pub fn new(device: Box<dyn NativeFlashDevice>, strategy: WriteStrategy, frames: usize) -> Self {
        assert!(frames >= 2, "buffer pool needs at least two frames");
        BufferPool {
            device,
            strategy,
            frames: (0..frames).map(|_| None).collect(),
            map: IdMap::with_capacity_and_hasher(frames, Default::default()),
            hand: 0,
            measure_net_writes: false,
            trace: None,
            readahead: 0,
            last_miss: None,
            pending_prefetch: Vec::new(),
            ready_prefetch: IdMap::default(),
            spare: None,
            stats: PoolStats::default(),
        }
    }

    /// Record net modified bytes per dirty eviction (Figure 1 experiment).
    pub fn enable_net_write_measurement(&mut self) {
        self.measure_net_writes = true;
    }

    /// Enable stripe-aware read-ahead: when two consecutive misses are
    /// neighbour LBAs, the next `window` neighbours are posted as one
    /// vectored read. Under a round-robin stripe those members sit on
    /// consecutive dies/channels, so a sequential scan keeps every
    /// channel busy instead of paying each page's sense + transfer
    /// serially.
    pub fn enable_readahead(&mut self, window: usize) {
        self.readahead = window;
    }

    /// Start recording fetch/evict events (implies net-write measurement,
    /// which provides the per-eviction byte diff).
    pub fn enable_tracing(&mut self) {
        self.measure_net_writes = true;
        self.trace = Some(Vec::new());
    }

    /// Take the recorded trace (tracing continues with an empty buffer).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    #[inline]
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    #[inline]
    pub fn strategy(&self) -> WriteStrategy {
        self.strategy
    }

    #[inline]
    pub fn device(&self) -> &dyn NativeFlashDevice {
        self.device.as_ref()
    }

    #[inline]
    pub fn device_mut(&mut self) -> &mut dyn NativeFlashDevice {
        self.device.as_mut()
    }

    /// Page size of the underlying device.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.device.page_size()
    }

    /// The layout governing a page: the device's region format, or a
    /// disabled-scheme layout for plain regions.
    pub fn layout_of(&self, pid: PageId) -> PageLayout {
        self.device
            .layout_for(pid)
            .unwrap_or_else(|| standard_layout(self.device.page_size(), NmScheme::disabled()))
    }

    /// Run `f` over a read-only view of the page.
    pub fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let idx = self.ensure_cached(pid, false)?;
        let frame = self.frames[idx].as_mut().expect("frame present");
        frame.referenced = true;
        Ok(f(&frame.data))
    }

    /// Run `f` over a mutable, change-tracked view; marks the frame dirty
    /// if `f` performed any writes.
    pub fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        capture: Option<&mut Vec<u8>>,
        f: impl FnOnce(&mut PageMut<'_>) -> R,
    ) -> Result<R> {
        let idx = self.ensure_cached(pid, false)?;
        let frame = self.frames[idx].as_mut().expect("frame present");
        frame.referenced = true;
        let was_dirty = frame.tracker.dirty();
        let mut pm = PageMut::new(&mut frame.data, &mut frame.tracker, capture);
        let r = f(&mut pm);
        if frame.tracker.dirty() || was_dirty {
            frame.dirty = true;
        }
        Ok(r)
    }

    /// Materialise a brand-new page (never on flash) in the pool. The
    /// caller formats it afterwards.
    pub fn new_page(&mut self, pid: PageId) -> Result<()> {
        let _ = self.ensure_cached(pid, true)?;
        Ok(())
    }

    /// Flush every dirty page.
    ///
    /// Under the native strategy, dirty frames whose verdict is an
    /// in-place append are gathered into **one vectored `WriteDeltaV`
    /// submission**: on a striped device the members land on distinct
    /// dies and their delta programs overlap, instead of each eviction
    /// paying its own synchronous round trip. Members the device rejects
    /// (odd-MLC MSB pages, NOP exhaustion) surface per-index in the
    /// completion and fall back to out-of-place writes, exactly like the
    /// scalar path. Clean and out-of-place frames take the scalar path
    /// unchanged.
    pub fn flush_all(&mut self) -> Result<()> {
        if !matches!(self.strategy, WriteStrategy::IpaNative) {
            for idx in 0..self.frames.len() {
                if self.frames[idx].is_some() {
                    self.write_back(idx)?;
                }
            }
            return Ok(());
        }
        // Pass 1: split dirty frames into delta-batch members and
        // everything else.
        let mut batch: Vec<(usize, u16)> = Vec::new();
        let mut members: Vec<(Lba, usize, Vec<u8>)> = Vec::new();
        for idx in 0..self.frames.len() {
            let Some(frame) = self.frames[idx].as_mut() else {
                continue;
            };
            if !frame.dirty {
                continue;
            }
            if !matches!(frame.tracker.verdict(), IpaVerdict::InPlace { .. }) {
                self.write_back(idx)?;
                continue;
            }
            let (records, offset, bytes) = Self::encode_new_records(frame);
            members.push((frame.page_id, offset, bytes));
            batch.push((idx, records));
        }
        match batch.len() {
            0 => return Ok(()),
            // A lone member gains nothing from vectoring; the scalar
            // path recomputes its records and keeps its counters.
            1 => return self.write_back(batch[0].0),
            _ => {}
        }
        for (idx, _) in &batch {
            let frame = self.frames[*idx].as_ref().expect("frame present");
            Self::note_dirty_writeback(frame, &mut self.stats, &mut self.trace);
        }
        // Pass 2: one vectored submission; the completion wait ends at
        // the max of the per-die delta programs. A poll error is never
        // "every member accepted": committing the records of a member
        // the device rejected would drop its update.
        let token = self.device.submit(IoRequest::WriteDeltaV(members))?;
        let rejected = self.device.poll_checked(token)?.rejected;
        for (i, (idx, records)) in batch.into_iter().enumerate() {
            let frame = self.frames[idx].as_mut().expect("frame present");
            if rejected.contains(&i) {
                self.stats.in_place_fallbacks += 1;
                Self::write_out_of_place(&mut *self.device, frame, &mut self.stats, self.strategy)?;
            } else {
                frame.tracker.commit_in_place(records);
                self.stats.evict_in_place += 1;
            }
            frame.dirty = false;
            if let Some(snap) = &mut frame.snapshot {
                snap.copy_from_slice(&frame.data);
            }
        }
        Ok(())
    }

    /// Flush everything and empty the pool (clean restart).
    pub fn drop_cache(&mut self) -> Result<()> {
        self.flush_all()?;
        self.map.clear();
        self.frames.iter_mut().for_each(|f| *f = None);
        self.clear_prefetch();
        Ok(())
    }

    /// Empty the pool *without* flushing — simulates a crash that loses
    /// buffered updates (WAL recovery tests).
    pub fn drop_cache_without_flush(&mut self) {
        self.map.clear();
        self.frames.iter_mut().for_each(|f| *f = None);
        self.clear_prefetch();
    }

    fn ensure_cached(&mut self, pid: PageId, fresh: bool) -> Result<usize> {
        if let Some(&idx) = self.map.get(&pid) {
            self.stats.hits += 1;
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = self.find_victim_slot()?;
        let layout = self.layout_of(pid);
        let frame = if fresh {
            // A stale prefetch of this LBA (issued before the page was
            // re-created) must never be consumed later.
            self.drop_prefetch(pid);
            let mut data = self.take_page_buffer();
            data.fill(0xFF);
            Frame {
                page_id: pid,
                data,
                tracker: ChangeTracker::new_unflashed(layout),
                original: None,
                snapshot: self
                    .measure_net_writes
                    .then(|| vec![0xFF; self.device.page_size()]),
                dirty: false,
                referenced: true,
            }
        } else {
            let mut data = match self.claim_prefetch(pid)? {
                Some(img) => {
                    // Served from a posted read-ahead completion; the
                    // poll inside `claim_prefetch` charged the wait (if
                    // the data was still in flight).
                    self.stats.readahead_hits += 1;
                    img
                }
                None => {
                    // The device reads straight into the frame's buffer;
                    // a failed read hands it back instead of installing it.
                    let mut data = self.take_page_buffer();
                    if let Err(e) = self.device.read(pid, &mut data) {
                        self.spare = Some(data);
                        return Err(e.into());
                    }
                    data
                }
            };
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent::Fetch { lba: pid });
            }
            let original =
                matches!(self.strategy, WriteStrategy::IpaConventional).then(|| data.clone());
            let records = apply_and_collect(&mut data, &layout);
            Frame {
                page_id: pid,
                snapshot: self.measure_net_writes.then(|| data.clone()),
                tracker: ChangeTracker::new(layout, records),
                original,
                data,
                dirty: false,
                referenced: true,
            }
        };
        self.frames[idx] = Some(frame);
        self.map.insert(pid, idx);
        if !fresh {
            self.maybe_readahead(pid);
            self.last_miss = Some(pid);
        }
        Ok(idx)
    }

    /// A page-sized buffer for a new frame: the spare if an eviction left
    /// one, a fresh allocation otherwise. Contents are unspecified — the
    /// caller overwrites every byte.
    fn take_page_buffer(&mut self) -> Vec<u8> {
        self.spare
            .take()
            .unwrap_or_else(|| vec![0u8; self.device.page_size()])
    }

    /// Take a page image out of the read-ahead pipeline, polling its
    /// vector's completion if it is still pending. Sibling members of the
    /// polled vector move to the ready set for their own consumption.
    fn claim_prefetch(&mut self, pid: PageId) -> Result<Option<Vec<u8>>> {
        if let Some(img) = self.ready_prefetch.remove(&pid) {
            return Ok(Some(img));
        }
        let Some(at) = self
            .pending_prefetch
            .iter()
            .position(|g| g.members.contains(&pid))
        else {
            return Ok(None);
        };
        let group = self.pending_prefetch.remove(at);
        let completion = self.device.poll_checked(group.token)?;
        for (member, img) in group.members.iter().zip(completion.data) {
            self.ready_prefetch.insert(*member, img);
        }
        Ok(self.ready_prefetch.remove(&pid))
    }

    /// Drop any in-flight or ready prefetch of `pid` (and, for a pending
    /// vector, its whole group — correctness over thrift on this cold
    /// path; dropping the token abandons the completion).
    fn drop_prefetch(&mut self, pid: PageId) {
        self.ready_prefetch.remove(&pid);
        self.pending_prefetch.retain(|g| !g.members.contains(&pid));
    }

    /// On a sequential miss (`pid` directly follows the previous miss),
    /// post the next `readahead` neighbours as one vectored read.
    fn maybe_readahead(&mut self, pid: PageId) {
        if self.readahead == 0 || pid == 0 || self.last_miss != Some(pid - 1) {
            return;
        }
        let cap = self.device.capacity_pages();
        let targets: Vec<PageId> = (pid + 1..=pid + self.readahead as u64)
            .filter(|p| {
                *p < cap
                    && self.device.is_mapped(*p)
                    && !self.map.contains_key(p)
                    && !self.ready_prefetch.contains_key(p)
                    && !self.pending_prefetch.iter().any(|g| g.members.contains(p))
            })
            .collect();
        if targets.is_empty() {
            return;
        }
        self.trim_prefetch_backlog();
        // A failed member (e.g. an uncorrectable page) kills its vector;
        // read-ahead is advisory, so the miss path will surface the
        // error if the page is ever actually fetched.
        if let Ok(token) = self.device.submit(IoRequest::ReadV(targets.clone())) {
            self.stats.readahead_issued += targets.len() as u64;
            self.pending_prefetch.push(Prefetch {
                token,
                members: targets,
            });
        }
    }

    /// Bound the read-ahead pipeline: a scan that outruns consumption
    /// (or turns random) must not grow unpolled completions without
    /// limit. Oldest pending vectors are abandoned first.
    fn trim_prefetch_backlog(&mut self) {
        let budget = self.readahead * 4;
        while !self.pending_prefetch.is_empty()
            && self
                .pending_prefetch
                .iter()
                .map(|g| g.members.len())
                .sum::<usize>()
                > budget
        {
            self.pending_prefetch.remove(0);
        }
        // Evict only the overflow from the ready set — its images are
        // already paid for in device time, so dropping all of them would
        // make the scan re-read (and re-pay for) pages it owns. The victim
        // is the lowest page id, never the map's iteration order: an
        // ascending scan has most likely passed it.
        while self.ready_prefetch.len() > budget {
            let victim = *self
                .ready_prefetch
                .keys()
                .min()
                .expect("non-empty over budget");
            self.ready_prefetch.remove(&victim);
        }
    }

    /// Abandon the whole read-ahead pipeline (cache drops, crashes).
    fn clear_prefetch(&mut self) {
        self.pending_prefetch.clear();
        self.ready_prefetch.clear();
        self.last_miss = None;
    }

    /// Clock replacement: find a free or evictable slot. Nothing pins a
    /// frame, so the hand's second lap always finds a victim.
    fn find_victim_slot(&mut self) -> Result<usize> {
        // Free slot first.
        if let Some(idx) = self.frames.iter().position(|f| f.is_none()) {
            return Ok(idx);
        }
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = self.frames[idx].as_mut().expect("full pool");
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            self.evict(idx)?;
            return Ok(idx);
        }
    }

    fn evict(&mut self, idx: usize) -> Result<()> {
        self.write_back(idx)?;
        let frame = self.frames[idx].take().expect("frame present");
        self.map.remove(&frame.page_id);
        self.spare = Some(frame.data);
        self.stats.evictions += 1;
        Ok(())
    }

    /// The strategy dispatch of §3: clean / in-place append / out-of-place.
    fn write_back(&mut self, idx: usize) -> Result<()> {
        let frame = self.frames[idx].as_mut().expect("frame present");
        if !frame.dirty {
            return Ok(());
        }
        Self::note_dirty_writeback(frame, &mut self.stats, &mut self.trace);

        match frame.tracker.verdict() {
            IpaVerdict::Clean => {
                self.stats.evict_clean += 1;
            }
            IpaVerdict::InPlace { .. } => match self.strategy {
                WriteStrategy::IpaNative => {
                    let (records, offset, bytes) = Self::encode_new_records(frame);
                    match self.device.write_delta(frame.page_id, offset, &bytes) {
                        Ok(()) => {
                            frame.tracker.commit_in_place(records);
                            self.stats.evict_in_place += 1;
                        }
                        Err(FtlError::InPlaceRejected { .. }) => {
                            // odd-MLC MSB page or NOP exhausted: paper
                            // behaviour is a traditional write.
                            self.stats.in_place_fallbacks += 1;
                            Self::write_out_of_place(
                                &mut *self.device,
                                frame,
                                &mut self.stats,
                                self.strategy,
                            )?;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                WriteStrategy::IpaConventional => {
                    let original = frame
                        .original
                        .as_ref()
                        .expect("conventional strategy keeps originals");
                    let records = frame.tracker.build_new_records(&frame.data);
                    let image = frame
                        .tracker
                        .build_conventional_image(original, &frame.data);
                    self.device
                        .write(frame.page_id, &image)
                        .map_err(StorageError::from)?;
                    frame.tracker.commit_in_place(records.len() as u16);
                    frame.original = Some(image);
                    self.stats.evict_in_place += 1;
                }
                WriteStrategy::Traditional => {
                    unreachable!("disabled scheme never yields an in-place verdict")
                }
            },
            IpaVerdict::OutOfPlace => {
                Self::write_out_of_place(&mut *self.device, frame, &mut self.stats, self.strategy)?;
            }
        }
        frame.dirty = false;
        if let Some(snap) = &mut frame.snapshot {
            snap.copy_from_slice(&frame.data);
        }
        Ok(())
    }

    /// The native strategy's in-place payload: how many new delta records
    /// the frame has, the page offset they append at, and their encoding.
    fn encode_new_records(frame: &Frame) -> (u16, usize, Vec<u8>) {
        let layout = frame.tracker.layout();
        let records = frame.tracker.build_new_records(&frame.data);
        let mut bytes = Vec::with_capacity(records.len() * layout.record_size());
        for r in &records {
            bytes.extend_from_slice(&r.encode(layout));
        }
        let offset = layout.record_offset(frame.tracker.records_on_flash());
        (records.len() as u16, offset, bytes)
    }

    /// Figure 1 accounting: net modified bytes vs the at-fetch snapshot.
    fn note_dirty_writeback(
        frame: &Frame,
        stats: &mut PoolStats,
        trace: &mut Option<Vec<TraceEvent>>,
    ) {
        if let Some(snap) = &frame.snapshot {
            let net = frame
                .data
                .iter()
                .zip(snap.iter())
                .filter(|(a, b)| a != b)
                .count();
            stats.net_bytes.record(net);
            if let Some(t) = trace {
                t.push(TraceEvent::Evict {
                    lba: frame.page_id,
                    changed_bytes: net as u32,
                });
            }
        }
    }

    fn write_out_of_place(
        device: &mut dyn NativeFlashDevice,
        frame: &mut Frame,
        stats: &mut PoolStats,
        strategy: WriteStrategy,
    ) -> Result<()> {
        // The buffered image keeps its delta area erased, so the written
        // page starts with a clean area as the paper requires.
        debug_assert!(frame.tracker.layout().delta_area_is_clean(&frame.data));
        device
            .write(frame.page_id, &frame.data)
            .map_err(StorageError::from)?;
        frame.tracker.commit_out_of_place();
        if matches!(strategy, WriteStrategy::IpaConventional) {
            frame.original = Some(frame.data.clone());
        }
        stats.evict_out_of_place += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{SlottedPage, HEADER_LEN};
    use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
    use ipa_ftl::{Ftl, FtlConfig};

    fn device(strategy: WriteStrategy) -> Box<dyn NativeFlashDevice> {
        let chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(32, 8, 2048, 64), FlashMode::PSlc)
                .with_disturb(DisturbRates::none()),
        );
        let layout = standard_layout(2048, NmScheme::new(2, 4));
        let cfg = match strategy {
            WriteStrategy::Traditional => FtlConfig::traditional(),
            WriteStrategy::IpaConventional => FtlConfig::ipa_conventional(layout),
            WriteStrategy::IpaNative => FtlConfig::ipa_native(layout),
        };
        Box::new(Ftl::new(chip, cfg))
    }

    fn pool(strategy: WriteStrategy, frames: usize) -> BufferPool {
        BufferPool::new(device(strategy), strategy, frames)
    }

    fn format_with_row(pool: &mut BufferPool, pid: PageId, row: &[u8]) {
        pool.new_page(pid).unwrap();
        pool.with_page_mut(pid, None, |pm| {
            let mut sp = SlottedPage::new(pm);
            sp.format(pid as u32);
            sp.insert(row).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn fetch_miss_then_hit() {
        let mut p = pool(WriteStrategy::Traditional, 4);
        format_with_row(&mut p, 0, &[1u8; 16]);
        p.flush_all().unwrap();
        p.drop_cache().unwrap();
        p.with_page(0, |b| assert_eq!(b.len(), 2048)).unwrap();
        assert_eq!(p.stats().misses, 2); // new_page + refetch
        p.with_page(0, |_| ()).unwrap();
        assert_eq!(p.stats().hits, 2); // with_page_mut + second read
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let mut p = pool(WriteStrategy::Traditional, 2);
        // Three pages through a two-frame pool forces eviction.
        for pid in 0..3u64 {
            format_with_row(&mut p, pid, &[pid as u8; 8]);
        }
        p.flush_all().unwrap();
        p.drop_cache().unwrap();
        for pid in 0..3u64 {
            p.with_page(pid, |b| {
                let layout = standard_layout(2048, NmScheme::disabled());
                let r = crate::page::PageRef::new(b, layout);
                assert_eq!(r.tuple(0).unwrap(), &[pid as u8; 8]);
            })
            .unwrap();
        }
        assert!(p.stats().evictions >= 1);
    }

    /// The evicted frame's buffer serves the next miss; nothing of the
    /// victim may survive in it.
    #[test]
    fn a_recycled_buffer_holds_exactly_what_the_miss_put_there() {
        let mut p = pool(WriteStrategy::Traditional, 2);
        for pid in 0..3u64 {
            format_with_row(&mut p, pid, &[pid as u8; 8]);
        }
        p.flush_all().unwrap();
        let device_image = |p: &mut BufferPool, pid: PageId| {
            let mut img = vec![0u8; 2048];
            p.device_mut().read(pid, &mut img).unwrap();
            img
        };

        // Dirty both resident pages end to end, so whichever the clock
        // evicts leaves a distinctive spare behind.
        let resident: Vec<PageId> = p.map.keys().copied().collect();
        for &pid in &resident {
            p.with_page_mut(pid, None, |pm| {
                pm.write(HEADER_LEN, &[0xA7; 2048 - HEADER_LEN])
            })
            .unwrap();
        }
        let absent = (0..3u64).find(|pid| !resident.contains(pid)).unwrap();
        let evictions = p.stats().evictions;
        let frame = p.with_page(absent, <[u8]>::to_vec).unwrap();
        assert_eq!(p.stats().evictions, evictions + 1);
        assert_eq!(frame, device_image(&mut p, absent), "evict -> miss");

        // A brand-new page built in a recycled buffer starts erased.
        p.new_page(7).unwrap();
        assert!(p.spare.is_none(), "new_page took the spare");
        p.with_page(7, |b| assert!(b.iter().all(|&x| x == 0xFF)))
            .unwrap();

        // A miss whose device read fails installs nothing, keeps the
        // buffer, and the next miss is served from it correctly.
        assert!(p.with_page(9, |_| ()).is_err(), "LBA 9 was never written");
        assert!(!p.map.contains_key(&9));
        assert_eq!(p.map.len(), 1, "the failed miss had already evicted");
        assert!(p.spare.is_some(), "the buffer went back to the spare");
        let pid = (0..3u64).find(|pid| !p.map.contains_key(pid)).unwrap();
        let frame = p.with_page(pid, <[u8]>::to_vec).unwrap();
        assert_eq!(frame, device_image(&mut p, pid), "miss after a failed miss");
    }

    /// Evictions remove from the page map and misses insert into it, far
    /// more often than the pool has frames; the map must still name
    /// exactly the resident frames, each at its slot.
    #[test]
    fn the_page_map_names_exactly_the_resident_frames() {
        let mut p = pool(WriteStrategy::Traditional, 4);
        for pid in 0..24u64 {
            format_with_row(&mut p, pid, &[pid as u8; 8]);
        }
        for round in 0..4u64 {
            for pid in (0..24u64).rev().skip(round as usize).step_by(3) {
                p.with_page(pid, |_| ()).unwrap();
            }
        }
        assert!(p.stats().evictions > 40, "{:?}", p.stats());
        let mut resident: Vec<(PageId, usize)> = p
            .frames
            .iter()
            .enumerate()
            .filter_map(|(idx, f)| f.as_ref().map(|f| (f.page_id, idx)))
            .collect();
        let mut mapped: Vec<(PageId, usize)> =
            p.map.iter().map(|(&pid, &idx)| (pid, idx)).collect();
        resident.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(resident.len(), 4);
        assert_eq!(mapped, resident);
    }

    #[test]
    fn native_strategy_appends_deltas() {
        let mut p = pool(WriteStrategy::IpaNative, 4);
        format_with_row(&mut p, 0, &[0u8; 32]);
        p.flush_all().unwrap(); // first flush: out-of-place (new page)
                                // Small field update → in-place eviction.
        p.with_page_mut(0, None, |pm| {
            let mut sp = SlottedPage::new(pm);
            sp.update_field(0, 4, &[9, 9]).unwrap();
            sp.set_lsn(1);
        })
        .unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.stats().evict_in_place, 1);
        let ds = p.device().device_stats();
        assert_eq!(ds.host_write_deltas, 1);
        assert_eq!(ds.page_invalidations, 0);

        // The update survives a cold re-read.
        p.drop_cache().unwrap();
        p.with_page(0, |b| {
            let layout = standard_layout(2048, NmScheme::new(2, 4));
            let r = crate::page::PageRef::new(b, layout);
            assert_eq!(&r.tuple(0).unwrap()[4..6], &[9, 9]);
            assert_eq!(r.lsn(), 1);
        })
        .unwrap();
    }

    #[test]
    fn conventional_strategy_appends_via_block_writes() {
        let mut p = pool(WriteStrategy::IpaConventional, 4);
        format_with_row(&mut p, 0, &[7u8; 32]);
        p.flush_all().unwrap();
        p.with_page_mut(0, None, |pm| {
            let mut sp = SlottedPage::new(pm);
            sp.update_field(0, 0, &[1]).unwrap();
            sp.set_lsn(2);
        })
        .unwrap();
        p.flush_all().unwrap();
        let ds = p.device().device_stats();
        assert_eq!(ds.in_place_appends, 1, "FTL detected the append");
        assert_eq!(ds.page_invalidations, 0);
        assert_eq!(ds.host_write_deltas, 0, "block interface only");

        p.drop_cache().unwrap();
        p.with_page(0, |b| {
            let layout = standard_layout(2048, NmScheme::new(2, 4));
            let r = crate::page::PageRef::new(b, layout);
            assert_eq!(r.tuple(0).unwrap()[0], 1);
        })
        .unwrap();
    }

    #[test]
    fn budget_overflow_falls_back_to_out_of_place() {
        let mut p = pool(WriteStrategy::IpaNative, 4);
        format_with_row(&mut p, 0, &[0u8; 64]);
        p.flush_all().unwrap();
        // 20 changed bytes >> N×M=8 ⇒ out-of-place.
        p.with_page_mut(0, None, |pm| {
            let mut sp = SlottedPage::new(pm);
            sp.update_field(0, 0, &[0xAA; 20]).unwrap();
        })
        .unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.stats().evict_in_place, 0);
        assert_eq!(p.stats().evict_out_of_place, 2); // initial + overflow
        assert_eq!(p.device().device_stats().page_invalidations, 1);
    }

    #[test]
    fn clean_pages_are_not_rewritten() {
        let mut p = pool(WriteStrategy::IpaNative, 4);
        format_with_row(&mut p, 0, &[0u8; 16]);
        p.flush_all().unwrap();
        let writes_before = p.device().device_stats().total_host_writes();
        p.with_page(0, |_| ()).unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.device().device_stats().total_host_writes(), writes_before);
    }

    #[test]
    fn net_write_measurement() {
        let mut p = pool(WriteStrategy::Traditional, 4);
        p.enable_net_write_measurement();
        format_with_row(&mut p, 0, &[0u8; 128]);
        p.flush_all().unwrap();
        p.with_page_mut(0, None, |pm| {
            let mut sp = SlottedPage::new(pm);
            sp.update_field(0, 0, &[1, 2, 3]).unwrap();
        })
        .unwrap();
        p.flush_all().unwrap();
        let h = p.stats().net_bytes;
        assert_eq!(h.count, 2); // format eviction + update eviction
        assert_eq!(h.buckets[0], 1, "3-byte update lands in ≤10 bucket");
    }

    #[test]
    fn capture_plumbs_through() {
        let mut p = pool(WriteStrategy::Traditional, 4);
        format_with_row(&mut p, 0, &[5u8; 16]);
        let mut ops = Vec::new();
        p.with_page_mut(0, Some(&mut ops), |pm| {
            let mut sp = SlottedPage::new(pm);
            sp.update_field(0, 1, &[6]).unwrap();
        })
        .unwrap();
        let at = (HEADER_LEN + 1) as u16;
        assert_eq!(
            crate::page::write_ops(&ops).collect::<Vec<_>>(),
            [(at, &[5u8][..], &[6u8][..])]
        );
    }

    #[test]
    fn histogram_buckets() {
        let mut h = NetBytesHistogram::default();
        for b in [5usize, 30, 80, 300, 800, 5000] {
            h.record(b);
        }
        assert_eq!(h.buckets, [1, 1, 1, 1, 1, 1]);
        assert!((h.fraction_under_100b() - 0.5).abs() < 1e-12);
        assert!(h.mean_bytes() > 1000.0);
    }

    mod batched_evict {
        use super::*;
        use ipa_controller::ControllerConfig;
        use ipa_ftl::{FtlConfig, ShardedFtl, StripePolicy};

        fn native_striped_pool(mode: FlashMode, frames: usize) -> BufferPool {
            let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), mode)
                .with_disturb(DisturbRates::none());
            let layout = standard_layout(2048, NmScheme::new(2, 4));
            let dev = ShardedFtl::new(
                ControllerConfig::new(4, 1, chip),
                FtlConfig::ipa_native(layout),
                StripePolicy::RoundRobin,
            );
            BufferPool::new(Box::new(dev), WriteStrategy::IpaNative, frames)
        }

        #[test]
        fn flush_all_batches_deltas_into_one_vector() {
            let mut p = native_striped_pool(FlashMode::PSlc, 8);
            for pid in 0..4u64 {
                format_with_row(&mut p, pid, &[pid as u8; 32]);
            }
            p.flush_all().unwrap(); // out-of-place initial writes
            for pid in 0..4u64 {
                p.with_page_mut(pid, None, |pm| {
                    let mut sp = SlottedPage::new(pm);
                    sp.update_field(0, 4, &[9, 9]).unwrap();
                })
                .unwrap();
            }
            p.flush_all().unwrap();
            assert_eq!(p.stats().evict_in_place, 4, "all four appended in place");
            let ds = p.device().device_stats();
            assert_eq!(ds.host_write_deltas, 4);
            assert_eq!(
                ds.vectored_deltas, 1,
                "the four deltas went out as one vector: {ds:?}"
            );
            // The appends survive a cold re-read.
            p.drop_cache().unwrap();
            for pid in 0..4u64 {
                p.with_page(pid, |b| {
                    let layout = standard_layout(2048, NmScheme::new(2, 4));
                    let r = crate::page::PageRef::new(b, layout);
                    assert_eq!(&r.tuple(0).unwrap()[4..6], &[9, 9], "page {pid}");
                })
                .unwrap();
            }
        }

        #[test]
        fn single_dirty_frame_stays_on_the_scalar_path() {
            let mut p = native_striped_pool(FlashMode::PSlc, 8);
            format_with_row(&mut p, 0, &[0u8; 32]);
            p.flush_all().unwrap();
            p.with_page_mut(0, None, |pm| {
                let mut sp = SlottedPage::new(pm);
                sp.update_field(0, 4, &[7]).unwrap();
            })
            .unwrap();
            p.flush_all().unwrap();
            let ds = p.device().device_stats();
            assert_eq!(ds.host_write_deltas, 1);
            assert_eq!(ds.vectored_deltas, 0, "no vector for a lone member");
        }

        #[test]
        fn rejected_members_fall_back_out_of_place() {
            // Odd-MLC: delta appends to MSB physical pages are rejected,
            // so a batch over several LBAs sees per-member rejections;
            // each must fall back without disturbing accepted siblings.
            let mut p = native_striped_pool(FlashMode::OddMlc, 12);
            for pid in 0..8u64 {
                format_with_row(&mut p, pid, &[pid as u8; 32]);
            }
            p.flush_all().unwrap();
            for pid in 0..8u64 {
                p.with_page_mut(pid, None, |pm| {
                    let mut sp = SlottedPage::new(pm);
                    sp.update_field(0, 2, &[0xEE]).unwrap();
                })
                .unwrap();
            }
            p.flush_all().unwrap();
            let s = *p.stats();
            assert_eq!(
                s.evict_in_place + s.in_place_fallbacks,
                8,
                "every member either committed or fell back: {s:?}"
            );
            assert!(
                s.in_place_fallbacks > 0,
                "MLC MSB pages must reject some members: {s:?}"
            );
            p.drop_cache().unwrap();
            for pid in 0..8u64 {
                p.with_page(pid, |b| {
                    let layout = standard_layout(2048, NmScheme::new(2, 4));
                    let r = crate::page::PageRef::new(b, layout);
                    assert_eq!(r.tuple(0).unwrap()[2], 0xEE, "page {pid}");
                })
                .unwrap();
            }
        }
    }

    mod readahead {
        use super::*;
        use ipa_controller::ControllerConfig;
        use ipa_ftl::{BlockDevice, ShardedFtl, StripePolicy};

        /// A 4-die round-robin striped device preloaded with `pages`
        /// recognisable pages, plus a small pool over it.
        fn striped_pool(pages: u64, window: usize) -> BufferPool {
            let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::PSlc)
                .with_disturb(DisturbRates::none());
            let mut dev = ShardedFtl::new(
                ControllerConfig::new(4, 1, chip),
                FtlConfig::traditional(),
                StripePolicy::RoundRobin,
            );
            for lba in 0..pages {
                dev.write(lba, &vec![(lba % 251) as u8; 2048]).unwrap();
            }
            dev.sync();
            let mut pool = BufferPool::new(Box::new(dev), WriteStrategy::Traditional, 8);
            if window > 0 {
                pool.enable_readahead(window);
            }
            pool
        }

        #[test]
        fn sequential_misses_trigger_prefetch_hits() {
            let mut p = striped_pool(32, 4);
            for pid in 0..32u64 {
                p.with_page(pid, |b| {
                    assert!(
                        b.iter().all(|&x| x == (pid % 251) as u8),
                        "page {pid} corrupted through the prefetch path"
                    );
                })
                .unwrap();
            }
            let s = *p.stats();
            assert!(s.readahead_issued > 0, "sequential scan must prefetch");
            assert!(
                s.readahead_hits * 2 > 32,
                "most fetches ride read-ahead: {s:?}"
            );
            let d = p.device().device_stats();
            assert!(d.vectored_reads > 0, "prefetches were vectored");
        }

        #[test]
        fn random_access_never_prefetches() {
            let mut p = striped_pool(32, 4);
            for pid in [5u64, 17, 2, 29, 11, 23, 8, 26] {
                p.with_page(pid, |_| ()).unwrap();
            }
            assert_eq!(p.stats().readahead_issued, 0);
            assert_eq!(p.stats().readahead_hits, 0);
        }

        #[test]
        fn disabled_readahead_stays_cold() {
            let mut p = striped_pool(32, 0);
            for pid in 0..16u64 {
                p.with_page(pid, |_| ()).unwrap();
            }
            assert_eq!(p.stats().readahead_issued, 0);
            assert_eq!(p.stats().readahead_hits, 0);
        }

        #[test]
        fn crash_drop_clears_the_pipeline() {
            let mut p = striped_pool(32, 4);
            for pid in 0..6u64 {
                p.with_page(pid, |_| ()).unwrap();
            }
            p.drop_cache_without_flush();
            // The scan continues correctly from scratch.
            for pid in 0..12u64 {
                p.with_page(pid, |b| assert_eq!(b[0], (pid % 251) as u8))
                    .unwrap();
            }
        }

        /// Six 3-page sequential bursts: each burst's third miss claims its
        /// read-ahead vector, parking three siblings in the ready set, and —
        /// sequential itself — posts one more read-ahead, whose trim finds
        /// the sixth burst's 18 ready images over the budget of 16. The
        /// lowest page ids must go, on every pool alike, so identical access
        /// sequences end identically.
        #[test]
        fn the_read_ahead_victim_is_the_lowest_page_id() {
            let bases: Vec<PageId> = (0..60).step_by(10).collect();
            let drive = || {
                let mut p = striped_pool(80, 4);
                let fetch = |p: &mut BufferPool, pids: std::ops::Range<PageId>| {
                    for pid in pids {
                        p.with_page(pid, |b| assert_eq!(b[0], (pid % 251) as u8))
                            .unwrap();
                    }
                };
                for &base in &bases {
                    fetch(&mut p, base..base + 3);
                }
                let mut ready: Vec<PageId> = p.ready_prefetch.keys().copied().collect();
                ready.sort_unstable();
                let mut want: Vec<PageId> = bases.iter().flat_map(|b| b + 3..b + 6).collect();
                want.retain(|&pid| pid != 3 && pid != 4);
                assert_eq!(ready, want, "the trim dropped pages 3 and 4");
                // The rest of every burst's window.
                for &base in &bases {
                    fetch(&mut p, base + 3..base + 6);
                }
                (*p.stats(), p.device().device_stats())
            };
            let (stats, device) = drive();
            assert!(stats.readahead_hits > 0, "{stats:?}");
            for _ in 0..3 {
                assert_eq!(drive(), (stats, device));
            }
        }

        /// Re-creating a page while a read-ahead vector covering it is in
        /// flight abandons the vector: the stale image never surfaces, and
        /// its other pages come back intact from the device.
        #[test]
        fn a_page_created_under_a_pending_prefetch_never_reads_it() {
            let mut p = striped_pool(32, 4);
            p.with_page(0, |_| ()).unwrap();
            p.with_page(1, |_| ()).unwrap();
            assert_eq!(p.pending_prefetch[0].members, vec![2, 3, 4, 5]);
            p.new_page(3).unwrap();
            p.with_page_mut(3, None, |pm| pm.write(0, &[0xC3; 2048]))
                .unwrap();
            p.flush_all().unwrap();
            assert!(p.pending_prefetch.is_empty() && p.ready_prefetch.is_empty());
            // Cycle the whole pool through non-sequential misses.
            for i in 0..16u64 {
                p.with_page(16 + (i * 5) % 16, |_| ()).unwrap();
            }
            p.with_page(3, |b| assert!(b.iter().all(|&x| x == 0xC3)))
                .unwrap();
            for pid in [2u64, 4, 5] {
                p.with_page(pid, |b| assert!(b.iter().all(|&x| x == pid as u8)))
                    .unwrap();
            }
            assert_eq!(p.stats().readahead_hits, 0, "the vector served nothing");
        }

        #[test]
        fn scan_past_the_mapped_tail_is_harmless() {
            // Only 10 of the device's pages are written; prefetch windows
            // crossing the tail must skip the holes, not error.
            let mut p = striped_pool(10, 8);
            for pid in 0..10u64 {
                p.with_page(pid, |b| assert_eq!(b[0], (pid % 251) as u8))
                    .unwrap();
            }
            assert!(p.stats().readahead_hits > 0);
        }
    }
}
