//! Host-facing device interfaces.
//!
//! [`BlockDevice`] is the conventional SSD contract (read/write whole
//! pages by LBA). [`NativeFlashDevice`] extends it with the paper's new
//! command:
//!
//! ```text
//! write_delta( LBA, offset, delta_length, delta_bytes[ ] );
//! ```
//!
//! which appends `delta_bytes` to the *same physical flash page* backing
//! `LBA`, transferring only the delta.
//!
//! [`IoQueue`] is the queued (NVMe-style submission/completion) face of
//! the same devices: the host posts an [`IoRequest`] — possibly vectored
//! across many LBAs — receives an [`IoToken`] that *owns* the request's
//! completion, and later either moves the token into `poll_checked`
//! (waiting for the completion) or `sync`s the whole queue; the device
//! keeps no per-request state. The synchronous `read`/`write` calls drive
//! the same per-die machinery, so the two interfaces always agree on
//! device state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ipa_controller::{ControllerStats, FlashController};
use ipa_core::PageLayout;
use ipa_flash::FlashStats;

use crate::error::{Lba, Result};
use crate::stats::DeviceStats;

/// How the DBMS drives the device — the three configurations the demo
/// compares (plus IPL, which lives in its own crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteStrategy {
    /// Demo scenario 1: every dirty page eviction is a full out-of-place
    /// page write (`[0×0]`).
    Traditional,
    /// Demo scenario 2: IPA for conventional SSDs — the DBMS writes full
    /// `body + delta-record area` images through the block interface; the
    /// FTL detects overwrite-compatible images and programs them in place.
    IpaConventional,
    /// Demo scenario 3: IPA for native flash — the DBMS sends only delta
    /// records via `write_delta`.
    IpaNative,
}

impl WriteStrategy {
    /// Does this strategy require an IPA page layout?
    pub fn needs_layout(self) -> bool {
        !matches!(self, WriteStrategy::Traditional)
    }
}

/// The owner of a submitted [`IoRequest`]'s completion, redeemed by
/// moving it into [`IoQueue::poll_checked`] or [`IoQueue::forget`].
/// Deliberately neither `Clone` nor `Copy`: a second poll, or a poll
/// after `forget`, is a use of a moved value and does not compile.
#[must_use = "a token owns its completion: poll it or forget it"]
#[derive(Debug)]
pub struct IoToken {
    completion: IoCompletion,
    posted: bool,
}

impl IoToken {
    /// Token of a request that completed at submission: polling it
    /// waits for nothing and touches no device.
    pub fn immediate(completion: IoCompletion) -> Self {
        IoToken {
            completion,
            posted: false,
        }
    }

    /// Token of a request posted to a scheduler-backed device: the
    /// issuing device's poll is the wait for `done_ns`.
    pub fn posted(completion: IoCompletion) -> Self {
        IoToken {
            completion,
            posted: true,
        }
    }

    /// A layer that services some requests itself routes a poll by this:
    /// `false` is its own (immediate) token, `true` the device's below.
    pub fn is_posted(&self) -> bool {
        self.posted
    }

    /// Take the completion out — what a device's poll/forget ends with.
    pub fn into_completion(self) -> IoCompletion {
        self.completion
    }
}

/// One queued host command. Vectored variants carry any number of pages;
/// a one-element vector is exactly the classic single-page command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoRequest {
    /// Read whole pages; the completion returns one buffer per LBA, in
    /// request order. Posted: the submission clock does not wait for the
    /// data — [`IoQueue::poll_checked`] is the wait.
    ReadV(Vec<Lba>),
    /// Write whole pages (posted, like the sync `write`).
    WriteV(Vec<(Lba, Vec<u8>)>),
    /// Native IPA delta appends (`write_delta`) as a queued command, one
    /// `(lba, offset, delta)` per member — the evict path's analogue of
    /// a multi-page `WriteV`: members landing on distinct dies post and
    /// overlap like any vectored submission.
    /// A member the device rejects for in-place append (NOP budget, ECC
    /// verdict) does *not* fail the request: its index is reported in
    /// [`IoCompletion::rejected`] and the host falls back per member.
    WriteDeltaV(Vec<(Lba, usize, Vec<u8>)>),
}

/// What a finished [`IoRequest`] reports. Carries *both* clocks of the
/// submission/completion contract: `submitted_ns` is the issuing client's
/// logical now when the request was accepted, `done_ns` the device clock
/// at which the last member physically completes. On an immediate-
/// completion (single-chip) device the two describe the same walk; on a
/// scheduled device `done_ns - submitted_ns` is the request's true
/// device-side latency, which the old sync-only API could not express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoCompletion {
    /// Pages read (`ReadV` only), in request order; empty otherwise.
    pub data: Vec<Vec<u8>>,
    /// `WriteDeltaV` member indices the device rejected for in-place
    /// append (the host re-drives those members out of place); empty for
    /// every other request kind.
    pub rejected: Vec<usize>,
    /// Submission-side clock at acceptance.
    pub submitted_ns: u64,
    /// Device clock when the whole request is done (max over the per-die
    /// completion times of a fanned-out vector).
    pub done_ns: u64,
}

/// The `vectored_*` counters of a device whose queued face is reached
/// through `&self` (the stripe) or that services part of its traffic
/// itself (the heat layer); `device_stats()` folds them into
/// [`DeviceStats`]. Statistics only, so relaxed atomics and no lock.
#[derive(Debug, Default)]
pub struct VectoredCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    deltas: AtomicU64,
}

impl VectoredCounters {
    /// Tick the counter of an accepted request: a vector spanning more
    /// than one member (a one-element vector is the classic command).
    pub fn count_request(&self, req: &IoRequest) {
        let counter = match req {
            IoRequest::ReadV(v) if v.len() > 1 => &self.reads,
            IoRequest::WriteV(v) if v.len() > 1 => &self.writes,
            IoRequest::WriteDeltaV(v) if v.len() > 1 => &self.deltas,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Overlay the counters onto a stats snapshot.
    pub fn fold_into(&self, mut stats: DeviceStats) -> DeviceStats {
        stats.vectored_reads += self.reads.load(Ordering::Relaxed);
        stats.vectored_writes += self.writes.load(Ordering::Relaxed);
        stats.vectored_deltas += self.deltas.load(Ordering::Relaxed);
        stats
    }
}

/// The queued submission/completion face of a device: one NVMe-style
/// queue pair per device. A device keeps **no per-request completion
/// state** — `submit` hands the finished [`IoCompletion`] to the host
/// inside the [`IoToken`] — so devices shared across host threads
/// ([`crate::ShardedFtl`], and the tenant views over it) take no lock for
/// the queued face beyond the dies a request touches.
///
/// ## Contract
///
/// * `submit` accepts the request, applies its state transition, and
///   returns the token that owns its completion. Posted semantics: the
///   submission clock does not advance to the request's completion (it
///   may advance for queue-admission effects such as NCQ back-pressure,
///   exactly like the sync write path). Every member posts: the lane is
///   a context set on the die it lands on for that member only, and
///   `done_ns` is the max over the request's *own* members — a
///   concurrent submitter's reads neither run in this request's lane nor
///   extend its completion.
/// * `poll_checked` consumes the token and *waits* for its completion:
///   the submission clock advances to at least `done_ns` and the
///   completion (with any read data) is returned. The token is moved, so
///   a double poll or a poll after `forget` does not compile (see below).
///   There is no "not ready yet" and no "lost completion": a poll fails
///   only with a device/maintenance error of a layer working at poll time.
/// * `sync` is the barrier: every prior submission's completion time is
///   folded into the device's merged clock, which is returned. Tokens
///   the host still holds stay pollable.
/// * `forget` consumes a token without waiting (an unused read-ahead).
///   The device retires it from its completion horizon: an abandoned
///   completion is accounted exactly like a polled one in the
///   scheduler's posted-read bookkeeping, so `sync` never waits on behalf
///   of data nobody wants and the posted-read gauges cannot drift.
///   Merely dropping a token skips that accounting — hence `#[must_use]`.
///
/// What the type cannot catch: a token carries no device identity, so
/// redeeming it at a device other than its issuer is an unreported host
/// bug — the completion comes back, the wrong clock and gauges move.
///
/// ```
/// use ipa_ftl::{BlockDevice, Ftl, FtlConfig, IoQueue, IoRequest};
/// let chip = ipa_flash::FlashChip::new(ipa_flash::DeviceConfig::small());
/// let mut dev = Ftl::new(chip, FtlConfig::traditional());
/// let page = vec![7u8; dev.page_size()];
/// let write = dev.submit(IoRequest::WriteV(vec![(0, page.clone())]))?;
/// dev.poll_checked(write)?;
/// // Submit, hold the token across other work, then redeem it once.
/// let read = dev.submit(IoRequest::ReadV(vec![0]))?;
/// dev.sync();
/// let done = dev.poll_checked(read)?;
/// assert_eq!(done.data, vec![page]);
/// # Ok::<(), ipa_ftl::FtlError>(())
/// ```
///
/// Polling a token twice is a use of a moved value:
///
/// ```compile_fail,E0382
/// use ipa_ftl::{Ftl, FtlConfig, IoQueue, IoRequest};
/// let chip = ipa_flash::FlashChip::new(ipa_flash::DeviceConfig::small());
/// let mut dev = Ftl::new(chip, FtlConfig::traditional());
/// let token = dev.submit(IoRequest::ReadV(vec![0])).unwrap();
/// dev.poll_checked(token).unwrap();
/// dev.poll_checked(token).unwrap(); // error[E0382]: use of moved value: `token`
/// ```
///
/// So is polling after `forget` (a completion-losing device cannot be written):
///
/// ```compile_fail,E0382
/// use ipa_ftl::{Ftl, FtlConfig, IoQueue, IoRequest};
/// let chip = ipa_flash::FlashChip::new(ipa_flash::DeviceConfig::small());
/// let mut dev = Ftl::new(chip, FtlConfig::traditional());
/// let token = dev.submit(IoRequest::ReadV(vec![0])).unwrap();
/// dev.forget(token);
/// dev.poll_checked(token).unwrap(); // error[E0382]: use of moved value: `token`
/// ```
///
/// ## Reorder contract (QoS devices)
///
/// Completion order is **not** submission order. Within one die a
/// QoS-scheduled device may complete a later point read
/// ([`BlockDevice::read`], which travels the latency-priority lane)
/// before earlier-submitted posted programs/erases (erase-suspend,
/// reorder windows). Three guarantees survive reordering:
///
/// * **Read-your-writes per LBA**: a read submitted after a write to the
///   same LBA always returns that write's data — device state mutates in
///   submission order; only completion *times* reorder.
/// * **`sync` is the only barrier**: it waits for every prior
///   submission — promoted, suspended, or pushed out — and merges their
///   completion times into the returned device clock.
/// * **Bounded deferral**: posted work jumped by priority reads is pushed
///   out by exactly the reads' occupancy, and one erase can be suspended
///   at most its chip's `erase_resume_limit` times — no starvation.
///
/// Clock contract (the `submission_clock_ns`/`elapsed_ns` fix): after any
/// sequence of queued operations, [`BlockDevice::elapsed_ns`] is the
/// device-busy horizon — the time at which all submitted work is done —
/// while [`BlockDevice::submission_clock_ns`] is the issuing client's
/// logical now, which only polling and back-pressure move forward. On
/// devices with no scheduler the two coincide by construction.
pub trait IoQueue {
    /// Post a request; returns the token that owns its completion.
    fn submit(&mut self, req: IoRequest) -> Result<IoToken>;

    /// Wait for the token's completion and take it out of the token.
    /// Fails only with a device/maintenance error raised at poll time.
    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion>;

    /// Barrier over all prior submissions; returns the merged device
    /// time in nanoseconds.
    fn sync(&mut self) -> u64;

    /// Abandon a token without waiting on its completion, retiring it
    /// from the device's posted-read bookkeeping.
    fn forget(&mut self, token: IoToken);
}

/// A block device with a queued face — the bound host components (the
/// striped WAL, the read-ahead buffer pool) program against when they do
/// not need `write_delta`.
pub trait QueuedBlockDevice: BlockDevice + IoQueue {}
impl<T: BlockDevice + IoQueue> QueuedBlockDevice for T {}

/// A page-granular block device (conventional SSD contract).
pub trait BlockDevice {
    /// Page size in bytes (read/write granularity).
    fn page_size(&self) -> usize;

    /// Number of LBAs exported to the host (after over-provisioning and
    /// mode capacity factors).
    fn capacity_pages(&self) -> u64;

    /// Read one page into `buf` (must be exactly `page_size` long).
    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()>;

    /// Write one page (out-of-place unless the device detects an
    /// overwrite-compatible image and is configured to exploit it).
    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()>;

    /// Drop the mapping for an LBA (contents become unreadable).
    fn trim(&mut self, lba: Lba) -> Result<()>;

    /// Does `lba` currently hold readable data? Advisory (read-ahead
    /// uses it to skip never-written holes); the default claims
    /// everything in range is mapped.
    fn is_mapped(&self, lba: Lba) -> bool {
        lba < self.capacity_pages()
    }

    /// The IPA page layout in force for `lba` (from the low-level format /
    /// region table), if any. The DBMS buffer manager sizes its change
    /// tracking off this.
    fn layout_for(&self, lba: Lba) -> Option<PageLayout>;

    /// Host-level counters.
    fn device_stats(&self) -> DeviceStats;

    /// Raw flash counters of the underlying chip.
    fn flash_stats(&self) -> FlashStats;

    /// Simulated time spent on device operations so far, nanoseconds.
    fn elapsed_ns(&self) -> u64;

    /// Peak block erase count (wear) — drives the longevity experiment.
    fn max_erase_count(&self) -> u32;

    /// Raw erase blocks of the underlying silicon (longevity is wear per
    /// raw block, not per exported LBA).
    fn raw_blocks(&self) -> u32;

    /// The multi-channel controller the device sits behind, whichever
    /// layer holds it. Single-chip devices report `None`; a wrapping
    /// layer forwards to the device it wraps.
    fn controller(&self) -> Option<&Arc<FlashController>> {
        None
    }

    /// Scheduler counters of [`BlockDevice::controller`], if any.
    fn controller_stats(&self) -> Option<ControllerStats> {
        self.controller().map(|c| c.stats())
    }

    /// Multi-client hook: position the submission-side clock at a client
    /// thread's logical "now" before issuing its commands. A scheduled
    /// device starts subsequent commands at `max(now, die busy, channel
    /// busy)`, so independent clients overlap while contended hardware
    /// still queues. Single-chip devices (one implicit client) ignore it.
    fn set_submission_clock_ns(&mut self, _ns: u64) {}

    /// The submission-side clock after the last command — the issuing
    /// client's logical "now". Defaults to total device time for devices
    /// without a separate submission clock.
    fn submission_clock_ns(&self) -> u64 {
        self.elapsed_ns()
    }

    /// Concrete-type escape hatch: devices that carry extra subsystems
    /// (e.g. a maintenance scheduler wrapped around the FTL) return
    /// `Some(self)` so the engine can surface their stats without the
    /// device trait knowing about every layer above it.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The NoFTL-style native interface: everything a block device does —
/// including the queued submission/completion face — plus delta appends
/// to the physical page.
pub trait NativeFlashDevice: BlockDevice + IoQueue {
    /// Append `delta_bytes` at byte `offset` of the physical page backing
    /// `lba`. The offset must address a free record slot inside the
    /// region's delta-record area; the device adds the per-record ECC to
    /// the OOB area. Only `delta_bytes.len()` bytes cross the bus.
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_requirements() {
        assert!(!WriteStrategy::Traditional.needs_layout());
        assert!(WriteStrategy::IpaConventional.needs_layout());
        assert!(WriteStrategy::IpaNative.needs_layout());
    }

    #[test]
    fn vectored_counters_tick_only_for_multi_member_vectors() {
        let s = VectoredCounters::default();
        s.count_request(&IoRequest::ReadV(vec![1, 2]));
        s.count_request(&IoRequest::ReadV(vec![1]));
        s.count_request(&IoRequest::WriteV(vec![(1, vec![]), (2, vec![])]));
        s.count_request(&IoRequest::WriteDeltaV(vec![(3, 0, vec![])]));
        let folded = s.fold_into(DeviceStats {
            vectored_reads: 1,
            ..Default::default()
        });
        assert_eq!(folded.vectored_reads, 2, "overlay adds to the snapshot");
        assert_eq!(folded.vectored_writes, 1);
    }
}
