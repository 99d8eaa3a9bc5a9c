//! Write-ahead log on a dedicated log device.
//!
//! Shore-MT keeps its log on a separate volume; we do the same — the WAL
//! gets its own small SLC device so log traffic does not distort the data
//! device's Table 1 counters (the paper's host-write numbers are data-page
//! writes). Records use physical byte-range logging (offset/old/new per
//! page write), which makes redo and undo trivially idempotent.
//!
//! An update record's payload is `[page u64][count u16]`, then the
//! page-write capture verbatim: [`crate::page::PageMut::write`] produced
//! those bytes, [`Wal::append_update`] copies them into the open log page,
//! and replay returns them once [`crate::page::write_ops`] has walked them
//! to the record's exact end.
//!
//! The log device is anything speaking [`ipa_ftl::BlockDevice`] +
//! [`ipa_ftl::IoQueue`]:
//! the historic single SLC chip ([`Wal::new`]) or a die-striped
//! multi-channel controller ([`Wal::striped`]). Sealed-but-unflushed log
//! pages accumulate between group-commit boundaries and go to the device
//! as **one vectored write** at [`Wal::flush`] — on a round-robin stripe
//! consecutive log pages sit on consecutive channels, so the flush's
//! members transfer and program concurrently instead of serialising
//! through one chip.
//!
//! Format, per log page (pages start erased at `0xFF`):
//!
//! ```text
//! [len u32][lsn u64][tx u64][tag u8][payload …]  repeated;  len=0xFFFF_FFFF ⇒ end
//! …                                 [batch_seq u64][batch_len u16][member_idx u16][crc u32]
//! ```
//!
//! The last 16 bytes of every flushed page are the **batch trailer**: the
//! monotone sequence number of the group-commit flush that wrote the
//! page, how many pages that flush spanned, this page's index within it,
//! and a CRC over everything before the CRC field. A vectored flush is
//! not atomic — a crash can persist some members and tear others — so
//! [`Wal::replay`] uses the trailers to tell a *torn tail* (the
//! highest-sequence batch is incomplete or fails CRC: dropped, recovery
//! proceeds from the last complete batch) from *corruption inside
//! committed history* (a CRC failure below the tail sequence:
//! [`StorageError::WalCorrupt`]).
//!
//! ## Page CRC
//!
//! Every flush CRCs each member page (≈ 8 KiB), so the CRC is on the
//! commit path. One slice-by-8 chain is latency-bound — each step's
//! register feeds the next step's table look-ups — so the kernel runs four
//! independent chains. The input splits into four lanes of
//! `q = ⌊len/32⌋·8` bytes plus a tail of `len mod 32`; lane 0 starts from
//! the CRC's `!0` register, lanes 1–3 from zero, and the four advance side
//! by side. CRC linearity joins them: feeding bytes `B` into register `s`
//! gives
//!
//! ```text
//! reg(A‖B, s) = reg(A, s) · x^(8|B|)  ⊕  reg(B, 0)        (mod P, over GF(2))
//! ```
//!
//! because the register update is linear in (register, data) jointly, and
//! `|B|` zero bytes multiply a register by `x^(8|B|)`. Folding left to
//! right, `crc = crc · x^(8q) ⊕ reg_lane`, turns the four lane registers
//! into the register of the whole `4q`-byte prefix; the tail runs byte by
//! byte from there. `x^(8q)` is the product of the compile-time powers
//! `x^(8·2^k)` for the set bits `k` of `q`. This is the GF(2) algebra
//! behind zlib's `crc32_combine` (M. Adler, `crc32.c`).

use ipa_controller::ControllerConfig;
use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
use ipa_ftl::{
    DeviceStats, Ftl, FtlConfig, IoRequest, Lba, QueuedBlockDevice, ShardedFtl, StripePolicy,
};

use crate::buffer::PageId;
use crate::error::{Result, StorageError};
use crate::page::{write_op_len, write_ops};

/// Log record kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalKind {
    Begin,
    Commit,
    Abort,
    /// Physical redo/undo for one page; `ops` is its page-write capture.
    Update {
        page: PageId,
        ops: Vec<u8>,
    },
    /// Checkpoint marker: every record with `lsn <= upto_lsn` protects
    /// data known durable. Replay discards records at or below the
    /// newest checkpoint's horizon, so sealed log pages holding only
    /// dead history can be recycled — and cannot resurrect even if a
    /// crash interrupts the recycling ([`Wal::checkpoint`]).
    Checkpoint {
        upto_lsn: u64,
    },
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub lsn: u64,
    pub tx: u64,
    pub kind: WalKind,
}

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const END_MARK: u32 = u32::MAX;
/// Bytes of the record header `[len u32][lsn u64][tx u64][tag u8]`.
const RECORD_HEADER_LEN: usize = 21;
/// Bytes of an update record before its page-write capture: the record
/// header, then `[page u64][count u16]`.
pub const UPDATE_HEADER_LEN: usize = RECORD_HEADER_LEN + 10;

/// Per-page batch trailer: `[batch_seq u64][batch_len u16][member_idx u16][crc u32]`.
const TRAILER_LEN: usize = 16;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — local
/// implementation so the log format has no dependency footprint. Four
/// slice-by-8 lanes joined by CRC linearity (module docs, "Page CRC");
/// same polynomial, same bytes on flash as the bitwise loop kept as the
/// test oracle `crc32_ref`.
fn crc32(bytes: &[u8]) -> u32 {
    let q = bytes.len() / 32 * 8;
    let (lanes, tail) = bytes.split_at(4 * q);
    let (l0, rest) = lanes.split_at(q);
    let (l1, rest) = rest.split_at(q);
    let (l2, l3) = rest.split_at(q);
    let mut reg = [!0u32, 0, 0, 0];
    for (((w0, w1), w2), w3) in l0
        .as_chunks::<8>()
        .0
        .iter()
        .zip(l1.as_chunks::<8>().0)
        .zip(l2.as_chunks::<8>().0)
        .zip(l3.as_chunks::<8>().0)
    {
        reg = [
            crc_step(reg[0], w0),
            crc_step(reg[1], w1),
            crc_step(reg[2], w2),
            crc_step(reg[3], w3),
        ];
    }
    let shift = x_pow_8n(q);
    let mut crc = reg[1..]
        .iter()
        .fold(reg[0], |crc, &lane| gf2_mul(crc, shift) ^ lane);
    for &b in tail {
        crc = crc >> 8 ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One slice-by-8 step: `CRC_TABLES[0]` is the classic byte table (the CRC
/// of each byte value, eight shift/xor rounds each), and `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the register with eight independent look-ups instead of 64
/// dependent shift/xor rounds.
#[inline(always)]
fn crc_step(crc: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][(lo >> 8 & 0xFF) as usize]
        ^ t[5][(lo >> 16 & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][w[4] as usize]
        ^ t[2][w[5] as usize]
        ^ t[1][w[6] as usize]
        ^ t[0][w[7] as usize]
}

/// `a · b mod P` in the reflected domain, where bit 31 holds the `x^0`
/// coefficient: for each coefficient of `a`, low to high, add the running
/// `b · x^i`, then step it to `b · x^(i+1)` (shift right, reduce by `P`).
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut i = 0;
    while i < 32 {
        p ^= b & (a >> (31 - i) & 1).wrapping_neg();
        b = (b >> 1) ^ (0xEDB8_8320 & (b & 1).wrapping_neg());
        i += 1;
    }
    p
}

/// `X8_POW2[k] = x^(8·2^k) mod P` (reflected): `x^8`, then repeated squaring.
static X8_POW2: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << (31 - 8);
    let mut k = 1;
    while k < 32 {
        t[k] = gf2_mul(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8n) mod P` (reflected): the register multiplier of `n` zero bytes,
/// one [`X8_POW2`] factor per set bit of `n`.
fn x_pow_8n(mut n: usize) -> u32 {
    debug_assert!((n as u64) >> 32 == 0, "a CRC input beyond 16 GiB");
    let mut p = 1 << 31;
    for &factor in &X8_POW2 {
        if n & 1 == 1 {
            p = gf2_mul(p, factor);
        }
        n >>= 1;
    }
    p
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            round += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// One log page on its way to the device: its log LBA and image.
type LogPage = (Lba, Vec<u8>);

/// A decoded page trailer plus whether the page contents matched its CRC.
#[derive(Debug, Clone, Copy)]
struct PageTrailer {
    batch_seq: u64,
    batch_len: u16,
    member_idx: u16,
    crc_ok: bool,
}

impl PageTrailer {
    /// Stamp `page`'s last [`TRAILER_LEN`] bytes; the CRC covers
    /// everything before the CRC field (so a torn trailer also fails it).
    fn stamp(page: &mut [u8], batch_seq: u64, batch_len: u16, member_idx: u16) {
        let t = page.len() - TRAILER_LEN;
        page[t..t + 8].copy_from_slice(&batch_seq.to_le_bytes());
        page[t + 8..t + 10].copy_from_slice(&batch_len.to_le_bytes());
        page[t + 10..t + 12].copy_from_slice(&member_idx.to_le_bytes());
        let crc = crc32(&page[..t + 12]);
        page[t + 12..t + 16].copy_from_slice(&crc.to_le_bytes());
    }

    fn parse(page: &[u8]) -> PageTrailer {
        let t = page.len() - TRAILER_LEN;
        let batch_seq = u64::from_le_bytes(page[t..t + 8].try_into().unwrap());
        let batch_len = u16::from_le_bytes(page[t + 8..t + 10].try_into().unwrap());
        let member_idx = u16::from_le_bytes(page[t + 10..t + 12].try_into().unwrap());
        let stored = u32::from_le_bytes(page[t + 12..t + 16].try_into().unwrap());
        PageTrailer {
            batch_seq,
            batch_len,
            member_idx,
            crc_ok: crc32(&page[..t + 12]) == stored,
        }
    }
}

impl WalRecord {
    /// Decode one record at the head of `buf`. Returns `(record, encoded
    /// length)`, or `None` at the end marker / erased tail.
    fn decode(buf: &[u8]) -> std::result::Result<Option<(WalRecord, usize)>, &'static str> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
        if len == END_MARK || len == 0 {
            return Ok(None);
        }
        let len = len as usize;
        if len < RECORD_HEADER_LEN || len > buf.len() {
            return Err("record length out of bounds");
        }
        let lsn = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        let tx = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let tag = buf[20];
        let kind = match tag {
            TAG_BEGIN => WalKind::Begin,
            TAG_COMMIT => WalKind::Commit,
            TAG_ABORT => WalKind::Abort,
            TAG_UPDATE => {
                if len < UPDATE_HEADER_LEN {
                    return Err("update record too short");
                }
                let page = u64::from_le_bytes(buf[21..29].try_into().unwrap());
                let count = u16::from_le_bytes(buf[29..31].try_into().unwrap()) as usize;
                let ops = &buf[UPDATE_HEADER_LEN..len];
                let (found, used) = write_ops(ops).fold((0, 0), |(n, used), (_, old, _)| {
                    (n + 1, used + write_op_len(old.len()))
                });
                if (found, used) != (count, ops.len()) {
                    return Err("op list disagrees with its count or the record length");
                }
                let ops = ops.to_vec();
                WalKind::Update { page, ops }
            }
            TAG_CHECKPOINT => {
                if len < 29 {
                    return Err("checkpoint record too short");
                }
                let upto_lsn = u64::from_le_bytes(buf[21..29].try_into().unwrap());
                WalKind::Checkpoint { upto_lsn }
            }
            _ => return Err("unknown record tag"),
        };
        Ok(Some((WalRecord { lsn, tx, kind }, len)))
    }
}

/// The write-ahead log.
pub struct Wal {
    device: Box<dyn QueuedBlockDevice>,
    page_size: usize,
    capacity: u64,
    cur_lba: u64,
    buf: Vec<u8>,
    cursor: usize,
    /// Sealed log pages not yet flushed: the group-commit batch that the
    /// next [`Wal::flush`] submits as one vectored write.
    sealed: Vec<LogPage>,
    /// Seal the current page after every flush instead of rewriting the
    /// partial page at the next one (write-once log pages — the striped
    /// log's policy; trades log space for never re-serialising flushes
    /// onto one die).
    seal_on_flush: bool,
    /// Immediate-completion log device (no scheduler): the WAL itself
    /// keeps the submission-side clock the device cannot. A bare chip's
    /// clock only accumulates its own busy time, so it lags the clients'
    /// timeline and — uncorrected — makes log waits look free whenever
    /// the log is lightly loaded (the `submission_clock_ns`/`elapsed_ns`
    /// conflation). `host_ns` is the issuing client's logical now;
    /// `busy_until_ns` the host-timeline instant the log falls idle.
    immediate: bool,
    host_ns: u64,
    busy_until_ns: u64,
    next_lsn: u64,
    /// Sequence number of the next group-commit flush — stamped into
    /// every member page's trailer so replay can find the tail batch.
    next_batch_seq: u64,
    /// Records appended since creation.
    pub records_appended: u64,
    /// Flushes whose batch went out as one multi-page vector.
    pub stripe_flushes: u64,
    /// Flushed log pages still holding live history, in first-flush
    /// order — the checkpoint's trim list.
    live: Vec<Lba>,
    /// Batch sequence of each log page's last write, indexed by log LBA;
    /// 0 (no batch has it) while the page is not in `live`. Makes the
    /// per-member bookkeeping of a flush O(1) however long the log runs
    /// between checkpoints.
    live_seq: Vec<u64>,
    /// Sealed log pages recycled by checkpoints since creation.
    stripes_reclaimed: u64,
}

impl Wal {
    /// Create a WAL with room for `pages` log pages of `page_size` bytes,
    /// on its own single SLC chip (the historic log device).
    pub fn new(pages: u64, page_size: usize) -> Self {
        // Size the backing device with ~2× slack so log-device GC stays
        // out of the way (the paper's log lives on a separate volume).
        let ppb = 64u32;
        let blocks = ((pages * 2) / ppb as u64 + 8) as u32;
        let chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(blocks, ppb, page_size, 64), FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        );
        let device = Ftl::new(chip, FtlConfig::traditional());
        Self::with_device(Box::new(device), pages, page_size)
    }

    /// Create a WAL striped over its own `channels × dies_per_channel`
    /// SLC controller. Round-robin striping puts consecutive log pages
    /// on consecutive channels, so a group-commit flush's vectored write
    /// fans out across all of them. Total raw capacity matches the
    /// single-chip sizing of [`Wal::new`] (divided across the dies, with
    /// a per-die floor for GC headroom), so the comparison measures
    /// parallelism, not slack.
    ///
    /// The striped log seals its page at every flush (write-once log
    /// pages): rewriting a partial page would pin consecutive flushes to
    /// one die, exactly the serialisation striping exists to break.
    pub fn striped(pages: u64, page_size: usize, channels: u32, dies_per_channel: u32) -> Self {
        let dies = channels * dies_per_channel;
        let ppb = 64u32;
        let total_blocks = ((pages * 2) / ppb as u64 + 8) as u32;
        let blocks_per_die = total_blocks.div_ceil(dies).max(8);
        let chip = DeviceConfig::new(
            Geometry::new(blocks_per_die, ppb, page_size, 64),
            FlashMode::Slc,
        )
        .with_disturb(DisturbRates::none());
        let device = ShardedFtl::new(
            ControllerConfig::new(channels, dies_per_channel, chip),
            FtlConfig::traditional(),
            StripePolicy::RoundRobin,
        );
        let mut wal = Self::with_device(Box::new(device), pages, page_size);
        wal.seal_on_flush = true;
        wal
    }

    /// Create a WAL over an arbitrary queued block device.
    pub fn with_device(device: Box<dyn QueuedBlockDevice>, pages: u64, page_size: usize) -> Self {
        assert_eq!(
            device.page_size(),
            page_size,
            "log device page size disagrees with the WAL"
        );
        let capacity = pages.min(device.capacity_pages());
        let immediate = device.controller().is_none();
        Wal {
            device,
            page_size,
            capacity,
            cur_lba: 0,
            buf: vec![0xFF; page_size],
            cursor: 0,
            sealed: Vec::new(),
            seal_on_flush: false,
            immediate,
            host_ns: 0,
            busy_until_ns: 0,
            next_lsn: 0,
            next_batch_seq: 1,
            records_appended: 0,
            stripe_flushes: 0,
            live: Vec::new(),
            live_seq: vec![0; capacity as usize],
            stripes_reclaimed: 0,
        }
    }

    /// Allocate the next LSN.
    pub fn next_lsn(&mut self) -> u64 {
        self.next_lsn += 1;
        self.next_lsn
    }

    /// Highest LSN handed out.
    pub fn current_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Append a record to the in-memory log tail (durable after
    /// [`Wal::flush`]).
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let (lsn, tx) = (rec.lsn, rec.tx);
        match &rec.kind {
            WalKind::Begin => self.put(lsn, tx, TAG_BEGIN, &[]),
            WalKind::Commit => self.put(lsn, tx, TAG_COMMIT, &[]),
            WalKind::Abort => self.put(lsn, tx, TAG_ABORT, &[]),
            WalKind::Update { page, ops } => self.append_update(lsn, tx, *page, ops),
            WalKind::Checkpoint { upto_lsn } => {
                self.put(lsn, tx, TAG_CHECKPOINT, &[&upto_lsn.to_le_bytes()])
            }
        }
    }

    /// Append the update record of one page-write capture, `ops`.
    pub fn append_update(&mut self, lsn: u64, tx: u64, page: PageId, ops: &[u8]) -> Result<()> {
        let count = write_ops(ops).count() as u16;
        let body: [&[u8]; 3] = [&page.to_le_bytes(), &count.to_le_bytes(), ops];
        self.put(lsn, tx, TAG_UPDATE, &body)
    }

    /// Largest record a log page of `page_size` bytes can hold: records
    /// share the page with the end-marker reservation (4 B) and the batch
    /// trailer stamped at flush time.
    pub fn max_record_len(page_size: usize) -> usize {
        page_size - TRAILER_LEN - 4
    }

    /// Write one record — `[len u32][lsn u64][tx u64][tag u8]`, then
    /// `body`'s parts back to back — straight into the open log page,
    /// sealing it first if the record does not fit the remainder.
    fn put(&mut self, lsn: u64, tx: u64, tag: u8, body: &[&[u8]]) -> Result<()> {
        let bytes = RECORD_HEADER_LEN + body.iter().map(|part| part.len()).sum::<usize>();
        let max = Self::max_record_len(self.page_size);
        if bytes > max {
            return Err(StorageError::LogRecordTooLarge { bytes, max });
        }
        if self.cursor + bytes > max {
            self.seal_page();
        }
        let len = (bytes as u32).to_le_bytes();
        let header: [&[u8]; 4] = [&len, &lsn.to_le_bytes(), &tx.to_le_bytes(), &[tag]];
        for part in header.iter().chain(body) {
            self.buf[self.cursor..self.cursor + part.len()].copy_from_slice(part);
            self.cursor += part.len();
        }
        self.records_appended += 1;
        self.next_lsn = self.next_lsn.max(lsn);
        Ok(())
    }

    /// Persist the group-commit batch: every sealed page since the last
    /// flush plus the current partial page, submitted as **one vectored
    /// write** and waited on (a flush is a durability point). On a
    /// striped log device the members fan out across channels and the
    /// wait ends at the max of the per-die completions — the whole point
    /// of striping the log.
    pub fn flush(&mut self) -> Result<()> {
        let Some((batch_seq, pages)) = self.stamp_batch() else {
            return Ok(());
        };
        let vectored = pages.len() > 1;
        // The sealed batch is only dropped once the device accepted it:
        // a failed submit keeps it queued for the next flush (page
        // writes are idempotent, so any members that did land are simply
        // rewritten).
        for &(lba, _) in &pages {
            let seq = &mut self.live_seq[lba as usize];
            if *seq == 0 {
                self.live.push(lba);
            }
            *seq = batch_seq;
        }
        let token = self
            .device
            .submit(IoRequest::WriteV(pages))
            .map_err(StorageError::from)?;
        self.sealed.clear();
        // The completion wait is the durability point: without the
        // completion the flush cannot be acknowledged.
        let c = self.device.poll_checked(token)?;
        if self.immediate {
            // The chip executed the batch on its own serial clock; map
            // that work onto the clients' timeline: it starts when both
            // the client and the (one) chip are ready, and the client
            // resumes when it is durable. This is what serialises
            // concurrent clients' group commits on a single-chip log.
            let dt = c.done_ns - c.submitted_ns;
            let start = self.host_ns.max(self.busy_until_ns);
            self.busy_until_ns = start + dt;
            self.host_ns = self.busy_until_ns;
        }
        if vectored {
            self.stripe_flushes += 1;
        }
        if self.seal_on_flush && self.cursor > 0 {
            // Write-once pages: the just-flushed image is final; later
            // records open a fresh page (and, striped, the next die).
            self.cur_lba = (self.cur_lba + 1) % self.capacity;
            self.buf.fill(0xFF);
            self.cursor = 0;
        }
        Ok(())
    }

    /// The pending batch — every sealed page plus the open partial one —
    /// as `(batch sequence, members)`, each member stamped with this
    /// flush's batch trailer; `None` when nothing is pending. The same
    /// sequence marks the whole vector, so replay can tell "the crash
    /// tore this batch" (incomplete tail sequence) from "history rotted
    /// underneath us" (CRC failure below the tail).
    fn stamp_batch(&mut self) -> Option<(u64, Vec<LogPage>)> {
        let mut pages = self.sealed.clone();
        if self.cursor > 0 {
            pages.push((self.cur_lba, self.buf.clone()));
        }
        if pages.is_empty() {
            return None;
        }
        let batch_seq = self.next_batch_seq;
        self.next_batch_seq += 1;
        let batch_len = pages.len() as u16;
        for (idx, (_, page)) in pages.iter_mut().enumerate() {
            PageTrailer::stamp(page, batch_seq, batch_len, idx as u16);
        }
        Some((batch_seq, pages))
    }

    /// Finish the current page and move to the next (wrapping circularly;
    /// recovery assumes checkpoints retire wrapped history). The sealed
    /// page joins the pending batch; no device I/O until the next flush.
    fn seal_page(&mut self) {
        let full = std::mem::replace(&mut self.buf, vec![0xFF; self.page_size]);
        self.sealed.push((self.cur_lba, full));
        self.cur_lba = (self.cur_lba + 1) % self.capacity;
        self.cursor = 0;
    }

    /// Checkpoint the log: every record appended so far protects data the
    /// caller knows durable, so write a [`WalKind::Checkpoint`] marker
    /// and recycle the sealed pages holding only dead history. Returns
    /// the number of log pages reclaimed (also counted in
    /// [`Wal::stripes_reclaimed`]).
    ///
    /// Crash safety: the marker batch is flushed *before* any trim, so a
    /// power cut mid-reclaim leaves stale pages behind at worst — and
    /// [`Wal::replay`] drops records at or below the newest checkpoint's
    /// horizon, so dead history cannot resurrect. This is the only way
    /// log history is discarded, and what bounds log space across
    /// kill/recover soak cycles.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.flush()?;
        // Everything flushed so far is dead once the marker is durable.
        let dead_seq = self.next_batch_seq - 1;
        let upto_lsn = self.next_lsn;
        let marker_lsn = self.next_lsn();
        self.append(&WalRecord {
            lsn: marker_lsn,
            tx: 0,
            kind: WalKind::Checkpoint { upto_lsn },
        })?;
        self.flush()?;
        let dead: Vec<Lba> = self
            .live
            .iter()
            .copied()
            .filter(|&lba| self.live_seq[lba as usize] <= dead_seq)
            .collect();
        let mut reclaimed = 0u64;
        for &lba in &dead {
            match self.device.trim(lba) {
                Ok(()) => {}
                Err(ipa_ftl::FtlError::UnmappedLba(_)) => {}
                Err(e) => return Err(e.into()),
            }
            reclaimed += 1;
        }
        for lba in dead {
            self.live_seq[lba as usize] = 0;
        }
        self.live.retain(|&lba| self.live_seq[lba as usize] != 0);
        self.stripes_reclaimed += reclaimed;
        Ok(reclaimed)
    }

    /// Sealed log pages recycled by checkpoints since creation.
    pub fn stripes_reclaimed(&self) -> u64 {
        self.stripes_reclaimed
    }

    /// Read every record in LSN order (flushes the tail first so the scan
    /// sees a consistent image).
    ///
    /// Torn-write handling: the vectored flush is not atomic, so the
    /// highest batch sequence on the device — the *tail batch* — may be
    /// incomplete (members missing or failing CRC) after a crash. Its
    /// surviving records are dropped and recovery proceeds from the last
    /// complete batch, exactly as if the flush had never been
    /// acknowledged (it never was — the completion wait is the
    /// durability point). A CRC failure on a page *below* the tail
    /// sequence is not a torn tail, it is corruption inside committed
    /// history, and replay refuses with [`StorageError::WalCorrupt`].
    pub fn replay(&mut self) -> Result<Vec<WalRecord>> {
        self.flush()?;
        // Pass 1: collect each mapped page's trailer and records.
        let mut pages: Vec<(Lba, PageTrailer, Vec<WalRecord>)> = Vec::new();
        let mut page = vec![0u8; self.page_size];
        for lba in 0..self.capacity {
            match self.device.read(lba, &mut page) {
                Ok(()) => {}
                Err(ipa_ftl::FtlError::UnmappedLba(_)) => continue,
                Err(e) => return Err(e.into()),
            }
            let trailer = PageTrailer::parse(&page);
            let mut recs = Vec::new();
            if trailer.crc_ok {
                let area = &page[..self.page_size - TRAILER_LEN];
                let mut off = 0usize;
                loop {
                    match WalRecord::decode(&area[off..]) {
                        Ok(Some((rec, len))) => {
                            recs.push(rec);
                            off += len;
                        }
                        Ok(None) => break,
                        Err(reason) => {
                            return Err(StorageError::WalCorrupt { lba, reason });
                        }
                    }
                }
            }
            pages.push((lba, trailer, recs));
        }
        // Pass 2: find the tail batch and judge it. Trailers of CRC-bad
        // pages are untrusted, so the tail is the max sequence over *any*
        // page — a torn page claiming the highest sequence is part of the
        // torn tail, while one claiming to sit inside history is treated
        // as corruption (its trailer lies, or the history rotted).
        let tail_seq = pages.iter().map(|(_, t, _)| t.batch_seq).max();
        let mut drop_tail = false;
        if let Some(tail_seq) = tail_seq {
            let members: Vec<&PageTrailer> = pages
                .iter()
                .filter(|(_, t, _)| t.batch_seq == tail_seq)
                .map(|(_, t, _)| t)
                .collect();
            let batch_len = members[0].batch_len;
            let complete = members.iter().all(|t| t.crc_ok && t.batch_len == batch_len)
                && members.len() == batch_len as usize
                && {
                    let mut idx: Vec<u16> = members.iter().map(|t| t.member_idx).collect();
                    idx.sort_unstable();
                    idx.iter().enumerate().all(|(i, &m)| m as usize == i)
                };
            drop_tail = !complete;
            for (lba, t, _) in &pages {
                if !t.crc_ok && t.batch_seq != tail_seq {
                    return Err(StorageError::WalCorrupt {
                        lba: *lba,
                        reason: "page failed CRC inside committed log history",
                    });
                }
            }
        }
        let mut records: Vec<WalRecord> = pages
            .into_iter()
            .filter(|(_, t, _)| !(drop_tail && t.batch_seq == tail_seq.unwrap()))
            .flat_map(|(_, _, recs)| recs)
            .collect();
        records.sort_by_key(|r| r.lsn);
        // Checkpoint horizon: records at or below the newest checkpoint's
        // `upto_lsn` protect data already durable. Even if a crash
        // mid-reclaim left their (trimmed-in-intent) pages behind, the
        // dead history must not resurrect.
        let horizon = records
            .iter()
            .filter_map(|r| match r.kind {
                WalKind::Checkpoint { upto_lsn } => Some(upto_lsn),
                _ => None,
            })
            .max();
        if let Some(horizon) = horizon {
            records.retain(|r| r.lsn > horizon);
        }
        Ok(records)
    }

    /// Host-level stats of the log device. The device cannot know what a
    /// write was for, so the two log-attribution counters are filled here
    /// from the WAL's own: `wal_stripe_writes` (group-commit batches that
    /// went out as one vector) and `wal_stripes_reclaimed`.
    pub fn device_stats(&self) -> DeviceStats {
        DeviceStats {
            wal_stripe_writes: self.stripe_flushes,
            wal_stripes_reclaimed: self.stripes_reclaimed,
            ..self.device.device_stats()
        }
    }

    /// Total simulated device time of the log: the horizon at which all
    /// submitted log writes are done (max over the stripe's die clocks
    /// on a striped log, the host-timeline busy tail on a single chip).
    /// Distinct from [`Wal::submission_clock_ns`] — see the
    /// [`ipa_ftl::IoQueue`] clock contract.
    pub fn elapsed_ns(&self) -> u64 {
        self.device.elapsed_ns().max(self.busy_until_ns)
    }

    /// The log writer's submission-side clock: where the last flush's
    /// completion wait left the issuing client.
    pub fn submission_clock_ns(&self) -> u64 {
        if self.immediate {
            self.host_ns
        } else {
            self.device.submission_clock_ns()
        }
    }

    /// Position the submission clock at the committing client's logical
    /// now before a flush, so concurrent clients' group commits overlap
    /// on a scheduled (striped) log device — and queue, honestly, on a
    /// single-chip one.
    pub fn set_submission_clock_ns(&mut self, ns: u64) {
        if self.immediate {
            self.host_ns = ns;
        } else {
            self.device.set_submission_clock_ns(ns);
        }
    }

    /// Flushes whose batch spanned more than one log page.
    pub fn stripe_flushes(&self) -> u64 {
        self.stripe_flushes
    }

    /// Crash mid-flush: stamp the whole batch but persist only its first
    /// `keep` members, then lose the in-memory state — what a power cut
    /// during the vectored write leaves behind.
    #[cfg(test)]
    fn flush_torn(&mut self, keep: usize) -> Result<()> {
        let (_, mut pages) = self.stamp_batch().expect("a batch to tear");
        pages.truncate(keep);
        if !pages.is_empty() {
            let token = self
                .device
                .submit(IoRequest::WriteV(pages))
                .map_err(StorageError::from)?;
            self.device.poll_checked(token)?;
        }
        self.sealed.clear();
        self.buf.fill(0xFF);
        self.cursor = 0;
        Ok(())
    }

    /// Flip one payload byte of a persisted log page, leaving its trailer
    /// untouched — bit rot inside committed history.
    #[cfg(test)]
    fn corrupt_payload_byte(&mut self, lba: Lba, offset: usize) {
        let mut page = vec![0u8; self.page_size];
        self.device.read(lba, &mut page).unwrap();
        page[offset] ^= 0x40;
        self.device.write(lba, &page).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn upd(lsn: u64, tx: u64, page: u64) -> WalRecord {
        WalRecord {
            lsn,
            tx,
            kind: WalKind::Update {
                page,
                // One write at offset 40: [0, 1] → [2, 3].
                ops: vec![40, 0, 2, 0, 0, 1, 2, 3],
            },
        }
    }

    /// The bytes `rec` occupies in the log: appended to a fresh log, read
    /// off its open page.
    fn encoded(rec: &WalRecord) -> Vec<u8> {
        let mut wal = Wal::new(4, 2048);
        wal.append(rec).unwrap();
        wal.buf[..wal.cursor].to_vec()
    }

    /// The bitwise definition of the page CRC — the oracle the table-
    /// driven `crc32` must equal: eight shift/xor rounds per byte.
    fn crc32_ref(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_is_ieee_and_equals_the_bitwise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "IEEE check value");
        // 8 188 = an 8 KiB log page up to its CRC field.
        let bytes: Vec<u8> = (0..8188u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 8188] {
            assert_eq!(crc32(&bytes[..len]), crc32_ref(&bytes[..len]), "len {len}");
        }
        // The erased log tail the flush actually stamps.
        assert_eq!(crc32(&[0xFF; 2044]), crc32_ref(&[0xFF; 2044]));
    }

    /// Every lane split the kernel can take: no lanes (under 32 bytes),
    /// every tail length against every small lane length, and the lengths
    /// around an 8 KiB page's CRC field.
    #[test]
    fn four_lane_crc32_equals_the_bitwise_reference_at_every_length() {
        let bytes: Vec<u8> = (0..8188u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..=1100).chain(8176..=8188) {
            assert_eq!(crc32(&bytes[..len]), crc32_ref(&bytes[..len]), "len {len}");
        }
    }

    proptest! {
        #[test]
        fn four_lane_crc32_equals_the_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..2100),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_ref(&bytes));
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for rec in [
            WalRecord {
                lsn: 7,
                tx: 3,
                kind: WalKind::Begin,
            },
            WalRecord {
                lsn: 8,
                tx: 3,
                kind: WalKind::Commit,
            },
            upd(9, 3, 123),
        ] {
            let bytes = encoded(&rec);
            let (back, len) = WalRecord::decode(&bytes).unwrap().unwrap();
            assert_eq!(back, rec);
            assert_eq!(len, bytes.len());
        }
    }

    #[test]
    fn decode_stops_at_erased_tail() {
        let buf = vec![0xFFu8; 64];
        assert_eq!(WalRecord::decode(&buf).unwrap(), None);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut bytes = encoded(&upd(1, 1, 1));
        bytes[0] = 200; // absurd length
        bytes[1] = 0;
        bytes[2] = 0;
        bytes[3] = 0;
        assert!(WalRecord::decode(&bytes).is_err());
    }

    /// The one write `upd` logs: `[0, 1]` → `[2, 3]` at offset 40.
    const OP: [u8; 8] = [40, 0, 2, 0, 0, 1, 2, 3];

    /// An update record claiming `count` writes, with `ops` as its op list.
    fn raw_update(count: u16, ops: &[u8]) -> Vec<u8> {
        let len = (UPDATE_HEADER_LEN + ops.len()) as u32;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.push(TAG_UPDATE);
        bytes.extend_from_slice(&123u64.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(ops);
        bytes
    }

    #[test]
    fn decode_validates_the_op_list() {
        assert_eq!(raw_update(1, &OP), encoded(&upd(9, 3, 123)));
        let two = [OP, OP].concat();
        let (rec, len) = WalRecord::decode(&raw_update(2, &two)).unwrap().unwrap();
        assert_eq!(len, UPDATE_HEADER_LEN + 16);
        assert_eq!(
            rec.kind,
            WalKind::Update {
                page: 123,
                ops: two.clone()
            }
        );
        // No writes at all is well-formed (the engine never logs one).
        assert!(WalRecord::decode(&raw_update(0, &[])).unwrap().is_some());
        for (count, ops, case) in [
            (1, &[][..], "count larger than the ops present (none)"),
            (3, &two[..], "count larger than the ops present"),
            (1, &two[..], "count smaller than the ops present"),
            (1, &OP[..3], "a 3-byte tail"),
            (2, &two[..12], "a header without its payload"),
            (1, &OP[..7], "a truncated new half"),
            (
                1,
                &[40, 0, 200, 0, 1, 2][..],
                "a len that runs past the end",
            ),
            (1, &[OP.as_slice(), &[0]].concat()[..], "a trailing byte"),
        ] {
            assert!(
                WalRecord::decode(&raw_update(count, ops)).is_err(),
                "{case}"
            );
        }
    }

    proptest! {
        /// Whatever comes off the device, `decode` answers — it never
        /// panics — and it accepts an op list exactly when the reader
        /// walks it to its end in `count` writes.
        #[test]
        fn decode_never_panics_on_hostile_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            small in proptest::collection::vec((0u8..5, any::<u8>()), 0..24),
            count in 0u16..6,
        ) {
            let _ = WalRecord::decode(&bytes);
            // Small `len` fields, so some lists are well-formed.
            let ops: Vec<u8> = small.iter().flat_map(|&(len, b)| [b, 0, len, 0]).collect();
            for ops in [&bytes, &ops] {
                let walked: Vec<usize> = write_ops(ops)
                    .map(|(_, old, _)| write_op_len(old.len()))
                    .collect();
                let sound =
                    walked.iter().sum::<usize>() == ops.len() && walked.len() == count as usize;
                prop_assert_eq!(WalRecord::decode(&raw_update(count, ops)).is_ok(), sound);
            }
        }
    }

    #[test]
    fn oversize_record_is_a_typed_error() {
        let mut wal = Wal::new(16, 2048);
        let max = Wal::max_record_len(2048);
        assert_eq!(max, 2048 - 16 - 4);
        // One write of `len` bytes: the largest that fits, then one more.
        let rec = |len: usize| {
            let mut ops = vec![0u8; write_op_len(len)];
            ops[2..4].copy_from_slice(&(len as u16).to_le_bytes());
            ops
        };
        let fits = (max - UPDATE_HEADER_LEN - 4) / 2;
        wal.append_update(1, 1, 0, &rec(fits)).unwrap();
        assert_eq!(
            wal.append_update(2, 1, 0, &rec(fits + 1)),
            Err(StorageError::LogRecordTooLarge {
                bytes: UPDATE_HEADER_LEN + write_op_len(fits + 1),
                max
            })
        );
        assert_eq!(wal.records_appended, 1, "the refused record left no trace");
        assert_eq!(wal.replay().unwrap().len(), 1);
    }

    #[test]
    fn append_flush_replay() {
        let mut wal = Wal::new(64, 2048);
        for i in 0..10u64 {
            wal.append(&WalRecord {
                lsn: i + 1,
                tx: 1,
                kind: WalKind::Begin,
            })
            .unwrap();
            wal.append(&upd(i + 100, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 20);
        assert!(records.windows(2).all(|w| w[0].lsn <= w[1].lsn));
    }

    #[test]
    fn unflushed_records_lost_on_replay_of_fresh_wal() {
        // Without flush, the tail page is only in memory; replay() flushes
        // first by design, so simulate the crash by rebuilding the Wal.
        let mut wal = Wal::new(64, 2048);
        wal.append(&upd(1, 1, 5)).unwrap();
        drop(wal);
        let mut wal2 = Wal::new(64, 2048);
        assert!(wal2.replay().unwrap().is_empty());
    }

    #[test]
    fn records_spanning_many_pages() {
        let mut wal = Wal::new(64, 2048);
        // Each update record ≈ 35 B ⇒ ~58 per page; write a few pages' worth.
        for i in 0..200u64 {
            wal.append(&upd(i + 1, i % 5, i)).unwrap();
        }
        wal.flush().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 200);
        assert!(wal.device_stats().host_writes > 2, "multiple log pages");
    }

    #[test]
    fn lsn_counter_monotone() {
        let mut wal = Wal::new(16, 2048);
        let a = wal.next_lsn();
        let b = wal.next_lsn();
        assert!(b > a);
        assert_eq!(wal.current_lsn(), b);
    }

    #[test]
    fn striped_wal_replay_round_trip() {
        let mut wal = Wal::striped(128, 2048, 2, 2);
        for i in 0..200u64 {
            wal.append(&upd(i + 1, i % 5, i)).unwrap();
        }
        wal.flush().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 200);
        assert!(records.windows(2).all(|w| w[0].lsn <= w[1].lsn));
        // A checkpoint retires all of it: only its marker survives.
        wal.checkpoint().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].kind, WalKind::Checkpoint { .. }));
    }

    #[test]
    fn group_commit_batch_goes_out_as_one_vector() {
        let mut wal = Wal::striped(128, 2048, 4, 1);
        // Enough records to seal several pages before the single flush.
        for i in 0..200u64 {
            wal.append(&upd(i + 1, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        assert_eq!(wal.stripe_flushes(), 1, "one multi-page batch");
        let d = wal.device_stats();
        assert_eq!(d.wal_stripe_writes, 1, "counted on the log device");
        assert!(
            d.vectored_writes >= 1,
            "the batch was submitted vectored: {d:?}"
        );
        assert!(d.host_writes > 2, "batch spanned several log pages");
    }

    #[test]
    fn striped_log_seals_pages_instead_of_rewriting_them() {
        // Two flushes with records in between: the single-chip log
        // rewrites its partial page (an invalidation); the striped log
        // seals and moves on (none).
        let drive = |mut wal: Wal| -> DeviceStats {
            for i in 0..4u64 {
                wal.append(&upd(i + 1, 1, i)).unwrap();
                wal.flush().unwrap();
            }
            wal.device_stats()
        };
        let single = drive(Wal::new(64, 2048));
        let striped = drive(Wal::striped(64, 2048, 2, 1));
        assert!(single.page_invalidations > 0, "partial-page rewrites");
        assert_eq!(striped.page_invalidations, 0, "write-once log pages");
        assert_eq!(single.host_writes, striped.host_writes);
    }

    #[test]
    fn torn_tail_batch_is_dropped_on_replay() {
        // Batch 1 commits whole; batch 2 tears mid-vector (only its first
        // member lands). Recovery keeps batch 1 and drops the torn tail —
        // including the member that did persist.
        let mut wal = Wal::striped(128, 2048, 2, 1);
        for i in 0..100u64 {
            wal.append(&upd(i + 1, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        for i in 100..200u64 {
            wal.append(&upd(i + 1, 2, i)).unwrap();
        }
        wal.flush_torn(1).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 100, "only the complete batch survives");
        assert!(records.iter().all(|r| r.lsn <= 100));
    }

    #[test]
    fn fully_torn_batch_leaves_history_intact() {
        let mut wal = Wal::striped(128, 2048, 2, 1);
        for i in 0..60u64 {
            wal.append(&upd(i + 1, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        for i in 60..120u64 {
            wal.append(&upd(i + 1, 2, i)).unwrap();
        }
        wal.flush_torn(0).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 60);
    }

    #[test]
    fn torn_tail_page_with_bad_crc_is_dropped() {
        // All of batch 2's members land, but one is torn mid-page (CRC
        // fails). The whole tail batch is discarded, batch 1 survives.
        let mut wal = Wal::striped(128, 2048, 2, 1);
        for i in 0..100u64 {
            wal.append(&upd(i + 1, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        let first_batch_pages = wal.device_stats().host_writes;
        for i in 100..200u64 {
            wal.append(&upd(i + 1, 2, i)).unwrap();
        }
        wal.flush().unwrap();
        wal.corrupt_payload_byte(first_batch_pages, 8);
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 100, "tail batch dropped wholesale");
        assert!(records.iter().all(|r| r.lsn <= 100));
    }

    #[test]
    fn corruption_inside_committed_history_is_rejected() {
        // A CRC failure *below* the tail sequence is not a torn tail:
        // replay must refuse rather than silently lose committed records.
        let mut wal = Wal::striped(128, 2048, 2, 1);
        for i in 0..100u64 {
            wal.append(&upd(i + 1, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        for i in 100..200u64 {
            wal.append(&upd(i + 1, 2, i)).unwrap();
        }
        wal.flush().unwrap();
        wal.corrupt_payload_byte(0, 8);
        match wal.replay() {
            Err(StorageError::WalCorrupt { lba: 0, .. }) => {}
            other => panic!("expected WalCorrupt at lba 0, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_record_round_trips() {
        let rec = WalRecord {
            lsn: 42,
            tx: 0,
            kind: WalKind::Checkpoint { upto_lsn: 41 },
        };
        let bytes = encoded(&rec);
        let (back, len) = WalRecord::decode(&bytes).unwrap().unwrap();
        assert_eq!(back, rec);
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn checkpoint_reclaims_sealed_pages_and_bounds_log_space() {
        let mut wal = Wal::striped(128, 2048, 2, 2);
        for i in 0..200u64 {
            wal.append(&upd(i + 1, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        let reclaimed = wal.checkpoint().unwrap();
        assert!(reclaimed > 2, "several sealed pages recycled: {reclaimed}");
        assert_eq!(wal.stripes_reclaimed(), reclaimed);
        assert_eq!(
            wal.device_stats().wal_stripes_reclaimed,
            reclaimed,
            "reclaim counted on the log device"
        );
        // Only the checkpoint marker survives replay.
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].kind, WalKind::Checkpoint { .. }));
        // The log stays usable: new records land and replay past the
        // horizon.
        let lsn = wal.next_lsn();
        wal.append(&upd(lsn, 2, 7)).unwrap();
        wal.flush().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 2, "marker + the new record");
        assert_eq!(records.last().unwrap().lsn, lsn);
    }

    #[test]
    fn repeated_checkpoints_keep_live_pages_bounded() {
        // The soak property in miniature: kill/recover cycles append and
        // checkpoint forever; live log pages must not grow monotonically.
        let mut wal = Wal::striped(256, 2048, 2, 1);
        let mut live_high = 0usize;
        let mut lsn = 0u64;
        for _round in 0..20 {
            for _ in 0..120 {
                lsn += 1;
                wal.append(&upd(lsn, 1, lsn)).unwrap();
            }
            wal.flush().unwrap();
            wal.checkpoint().unwrap();
            lsn = lsn.max(wal.current_lsn());
            live_high = live_high.max(wal.live.len());
        }
        assert!(
            live_high <= 4,
            "checkpointing must bound live log pages, saw {live_high}"
        );
        assert!(wal.stripes_reclaimed() >= 20);
    }

    #[test]
    fn replay_edge_cases_across_geometries() {
        // The striped-WAL replay contract, held on every log topology:
        // single chip, single channel, and two multi-channel shapes.
        for (channels, dies) in [(1u32, 1u32), (2, 1), (2, 2), (4, 2)] {
            let build = || {
                let mut w = Wal::striped(256, 2048, channels, dies);
                for i in 0..100u64 {
                    w.append(&upd(i + 1, 1, i)).unwrap();
                }
                w.flush().unwrap();
                w
            };

            // Torn-tail drop: the incomplete tail batch vanishes
            // wholesale, committed history survives.
            let mut torn = build();
            for i in 100..200u64 {
                torn.append(&upd(i + 1, 2, i)).unwrap();
            }
            torn.flush_torn(1).unwrap();
            let records = torn.replay().unwrap();
            assert_eq!(records.len(), 100, "{channels}x{dies}: torn tail kept");
            assert!(records.iter().all(|r| r.lsn <= 100));

            // WalCorrupt below the tail seq: corruption inside committed
            // history refuses replay rather than losing records.
            let mut rotten = build();
            for i in 100..200u64 {
                rotten.append(&upd(i + 1, 2, i)).unwrap();
            }
            rotten.flush().unwrap();
            rotten.corrupt_payload_byte(0, 8);
            assert!(
                matches!(
                    rotten.replay(),
                    Err(StorageError::WalCorrupt { lba: 0, .. })
                ),
                "{channels}x{dies}: sub-tail corruption must refuse"
            );

            // Replay-after-reclaim: checkpointed stripes must not
            // resurrect — not even when the crash skipped their trims.
            let mut cp = build();
            let dead_seq = cp.next_batch_seq - 1;
            cp.checkpoint().unwrap();
            for i in 200..230u64 {
                cp.append(&upd(i + 1, 3, i)).unwrap();
            }
            cp.flush().unwrap();
            let records = cp.replay().unwrap();
            assert!(
                records.iter().all(|r| r.lsn > 100),
                "{channels}x{dies}: reclaimed history resurrected"
            );
            assert_eq!(
                records
                    .iter()
                    .filter(|r| matches!(r.kind, WalKind::Update { .. }))
                    .count(),
                30,
                "{channels}x{dies}: post-checkpoint records all replay"
            );
            assert!(
                cp.live
                    .iter()
                    .all(|&lba| cp.live_seq[lba as usize] > dead_seq),
                "{channels}x{dies}: dead pages still listed live"
            );
        }
    }

    #[test]
    fn crash_mid_reclaim_does_not_resurrect_dead_records() {
        // Simulate the marker landing but the trims never running: stale
        // pages stay mapped, yet replay must hold the checkpoint horizon.
        let mut wal = Wal::striped(128, 2048, 2, 1);
        for i in 0..100u64 {
            wal.append(&upd(i + 1, 1, i)).unwrap();
        }
        wal.flush().unwrap();
        // Checkpoint by hand, minus the trim phase.
        let upto_lsn = wal.current_lsn();
        let marker_lsn = wal.next_lsn();
        wal.append(&WalRecord {
            lsn: marker_lsn,
            tx: 0,
            kind: WalKind::Checkpoint { upto_lsn },
        })
        .unwrap();
        wal.flush().unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 1, "stale pages must not resurrect");
        assert!(matches!(records[0].kind, WalKind::Checkpoint { .. }));
    }

    /// FNV-1a over every mapped log page (LBA, then image) as the device
    /// returns it.
    fn image_fnv(wal: &mut Wal) -> u64 {
        let fnv = |h: u64, bytes: &[u8]| {
            bytes.iter().fold(h, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        let mut page = vec![0u8; wal.page_size];
        let mut h = 0xCBF2_9CE4_8422_2325;
        for lba in 0..wal.capacity {
            if wal.device.read(lba, &mut page).is_ok() {
                h = fnv(fnv(h, &lba.to_le_bytes()), &page);
            }
        }
        h
    }

    /// The scripted engine run [`golden_log_image`] pins: a 120-row load in
    /// one transaction (a dozen log pages in one flush), then 90 small
    /// transactions — field updates, history inserts, whole-row updates,
    /// deletes, one abort, one checkpoint — under group commit 4 on 2 KiB
    /// log pages. Returns the log image hash and `[records_appended,
    /// log host_writes, log vectored_writes]`.
    fn golden_log_run() -> (u64, [u64; 3]) {
        use crate::{EngineConfig, StorageEngine, TableSpec};
        let device = DeviceConfig::new(Geometry::new(128, 16, 2048, 64), FlashMode::PSlc)
            .with_disturb(DisturbRates::none());
        let mut e = StorageEngine::build(
            device,
            EngineConfig::default()
                .with_ipa(ipa_core::NmScheme::new(2, 4))
                .with_group_commit(4),
            &[
                TableSpec::heap("accounts", 64, 64),
                TableSpec::heap("history", 24, 32).without_ipa(),
            ],
        )
        .unwrap();
        let (acc, hist) = (e.table("accounts").unwrap(), e.table("history").unwrap());
        let tx = e.begin();
        let rids: Vec<_> = (0..120u64)
            .map(|i| {
                let mut row = [0u8; 64];
                row[..8].copy_from_slice(&i.to_le_bytes());
                e.insert(tx, acc, &row).unwrap()
            })
            .collect();
        e.commit(tx).unwrap();
        for i in 0..90u64 {
            let tx = e.begin();
            let rid = rids[(i * 37 % 120) as usize];
            e.update_field(tx, acc, rid, 16, &(i * 1_000_003).to_le_bytes())
                .unwrap();
            e.update_field(tx, acc, rid, 40 + (i % 3) as usize, &[i as u8])
                .unwrap();
            let h = e.insert(tx, hist, &[i as u8; 24]).unwrap();
            match i % 10 {
                3 => e
                    .update_row(tx, acc, rids[(i * 53 % 120) as usize], &[i as u8; 64])
                    .unwrap(),
                6 => e.delete(tx, hist, h).unwrap(),
                _ => {}
            }
            if i == 41 {
                e.abort(tx).unwrap();
            } else {
                e.commit(tx).unwrap();
            }
            if i == 60 {
                e.checkpoint().unwrap();
            }
        }
        e.flush_all().unwrap();
        let log = e.stats().wal_device.unwrap();
        let wal = e.wal_mut();
        (
            image_fnv(wal),
            [wal.records_appended, log.host_writes, log.vectored_writes],
        )
    }

    /// Bit-identity of the log path: same log bytes, same record lengths
    /// (they decide where pages seal), same flush pattern. Constants
    /// captured by running this very test at the parent commit d796f0e
    /// (owned `WriteOp` capture, `WalRecord::encode` into a scratch `Vec`).
    #[test]
    fn golden_log_image() {
        assert_eq!(golden_log_run(), (4777407716231452261, [591, 53, 16]));
    }

    #[test]
    fn submission_clock_is_distinct_from_elapsed() {
        // The asymmetry fix: a flush submitted at a client's logical now
        // charges the wait from there, on the single-chip log too.
        let mut wal = Wal::new(64, 2048);
        wal.append(&upd(1, 1, 0)).unwrap();
        wal.flush().unwrap();
        let first_done = wal.submission_clock_ns();
        assert!(first_done > 0, "flush waits for the log write");

        // A client far in the future submits: its wait starts at its
        // now, not at the chip's lagging serial clock.
        let now = first_done + 10_000_000;
        wal.set_submission_clock_ns(now);
        wal.append(&upd(2, 1, 1)).unwrap();
        wal.flush().unwrap();
        let done = wal.submission_clock_ns();
        assert!(done > now, "the wait is charged from the client's now");
        assert!(
            done - now <= first_done,
            "an idle log does not queue the client behind history"
        );
        assert!(wal.elapsed_ns() >= done, "elapsed covers the busy tail");
    }
}
