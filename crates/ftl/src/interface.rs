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
//! across many LBAs — receives an [`IoToken`], and later either polls
//! the token (`poll_checked`, waiting for the completion) or `sync`s the
//! whole queue. The synchronous `read`/`write` calls drive the same
//! per-die machinery, so the two interfaces always agree on device state.

use std::collections::HashMap;
use std::sync::Arc;

use ipa_controller::{ControllerStats, FlashController};
use ipa_core::PageLayout;
use ipa_flash::FlashStats;

use crate::error::{FtlError, Lba, Result};
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

/// Opaque handle for a submitted [`IoRequest`], redeemed at
/// [`IoQueue::poll_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoToken(pub u64);

/// One queued host command. Vectored variants carry any number of pages;
/// a one-element vector is exactly the classic single-page command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoRequest {
    /// Read whole pages; the completion returns one buffer per LBA, in
    /// request order. Posted: the submission clock does not wait for the
    /// data — [`IoQueue::poll_checked`] is the wait.
    ReadV(Vec<Lba>),
    /// [`IoRequest::ReadV`] on the latency-priority lane: on a
    /// QoS-scheduled device the members may be dispatched *ahead of*
    /// posted program/erase work already queued on their dies (suspending
    /// in-flight erases within the chip's resume budget). Host point
    /// reads travel this lane; bulk read-ahead stays on `ReadV` so
    /// streaming cannot starve posted writes. Devices without a QoS
    /// scheduler treat it exactly as `ReadV`.
    HighPriorityReadV(Vec<Lba>),
    /// Write whole pages (posted, like the sync `write`).
    WriteV(Vec<(Lba, Vec<u8>)>),
    /// Native IPA delta append (`write_delta`) as a queued command.
    WriteDelta {
        lba: Lba,
        offset: usize,
        delta: Vec<u8>,
    },
    /// Vectored native delta appends `(lba, offset, delta)` — the evict
    /// path's analogue of a multi-page `WriteV`: members landing on
    /// distinct dies post and overlap like any vectored submission.
    /// A member the device rejects for in-place append (NOP budget, ECC
    /// verdict) does *not* fail the request: its index is reported in
    /// [`IoCompletion::rejected`] and the host falls back per member.
    WriteDeltaV(Vec<(Lba, usize, Vec<u8>)>),
    /// Drop the mapping for an LBA.
    Trim(Lba),
    /// Settle acknowledged-but-unprogrammed device state (plane-pairing
    /// windows) without merging clocks — a write barrier, not a time
    /// barrier.
    Flush,
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
    pub token: IoToken,
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

/// Token allocation, completion buffering and the queued-path counters
/// shared by every native [`IoQueue`] implementation. The counters are
/// folded into [`DeviceStats`] by `device_stats()` so hosts see them
/// through the ordinary stats surface.
#[derive(Debug, Default)]
pub struct SubmissionState {
    next: u64,
    done: HashMap<u64, IoCompletion>,
    /// `ReadV` submissions spanning more than one page.
    pub vectored_reads: u64,
    /// `WriteV` submissions spanning more than one page.
    pub vectored_writes: u64,
    /// `WriteDeltaV` submissions spanning more than one member — the
    /// evict path's batched delta appends.
    pub vectored_deltas: u64,
}

impl SubmissionState {
    /// Record a finished request and hand out its token. `rejected`
    /// carries the per-member in-place rejections of a `WriteDeltaV`.
    pub fn complete_with_rejections(
        &mut self,
        data: Vec<Vec<u8>>,
        rejected: Vec<usize>,
        submitted_ns: u64,
        done_ns: u64,
    ) -> IoToken {
        let token = IoToken(self.next);
        self.next += 1;
        self.done.insert(
            token.0,
            IoCompletion {
                token,
                data,
                rejected,
                submitted_ns,
                done_ns,
            },
        );
        token
    }

    /// Take a completion out of the buffer. Tokens are allocated from a
    /// private monotone counter, so a miss below the watermark can only
    /// be a retired (polled/forgotten) token, and a miss at or above it a
    /// token this queue never issued.
    pub fn take_checked(&mut self, token: IoToken) -> Result<IoCompletion> {
        match self.done.remove(&token.0) {
            Some(c) => Ok(c),
            None if token.0 >= self.next => Err(FtlError::TokenUnknown { token: token.0 }),
            None => Err(FtlError::TokenRetired { token: token.0 }),
        }
    }

    /// Drop a completion without consuming it (abandoned read-ahead).
    /// Returns the completion so the device can retire it from any
    /// scheduler-side bookkeeping (the posted-read completion horizon) —
    /// dropping the buffer alone would leave those gauges drifting.
    pub fn forget(&mut self, token: IoToken) -> Option<IoCompletion> {
        self.done.remove(&token.0)
    }

    /// Tick the vectored counters for an accepted request.
    pub fn count_request(&mut self, req: &IoRequest) {
        match req {
            IoRequest::ReadV(lbas) | IoRequest::HighPriorityReadV(lbas) if lbas.len() > 1 => {
                self.vectored_reads += 1
            }
            IoRequest::WriteV(pages) if pages.len() > 1 => self.vectored_writes += 1,
            IoRequest::WriteDeltaV(members) if members.len() > 1 => self.vectored_deltas += 1,
            _ => {}
        }
    }

    /// Overlay the queued-path counters onto a stats snapshot.
    pub fn fold_into(&self, mut stats: DeviceStats) -> DeviceStats {
        stats.vectored_reads += self.vectored_reads;
        stats.vectored_writes += self.vectored_writes;
        stats.vectored_deltas += self.vectored_deltas;
        stats
    }
}

/// The queued submission/completion face of a device: one NVMe-style
/// queue pair per device. Devices that are shared across host threads
/// ([`crate::ShardedFtl`], and the tenant views over it) serialize the
/// completion buffer behind a small lock of their own, so concurrent
/// submitters interleave freely and tokens stay unique per device.
///
/// ## Contract
///
/// * `submit` accepts the request, applies its state transition, and
///   returns a token. Posted semantics: the submission clock does not
///   advance to the request's completion (it may advance for
///   queue-admission effects such as NCQ back-pressure, exactly like the
///   sync write path). How a member is scheduled (posted, priority lane)
///   is a context set on the die it lands on for that member only, and
///   `done_ns` is the max over the request's *own* members — a
///   concurrent submitter's reads neither run in this request's lane nor
///   extend its completion.
/// * `poll_checked` *waits* for the token's completion: the submission
///   clock advances to at least `done_ns` and the completion (with any
///   read data) is returned. A token can be redeemed once: polling a
///   token that was already polled or forgotten is a typed
///   [`FtlError::TokenRetired`], polling one this queue never issued a
///   typed [`FtlError::TokenUnknown`]; neither costs device time. There
///   is no "not ready yet" answer — every accepted request has a
///   completion — so a lost completion is always a host bug and is
///   reported, never papered over.
/// * `sync` is the barrier: every prior submission's completion time is
///   folded into the device's merged clock, which is returned. It does
///   not consume buffered completions — tokens stay pollable.
/// * `forget` abandons a token without waiting (an unused read-ahead).
///   The device retires the token from its completion horizon: an
///   abandoned completion is accounted exactly like a polled one in the
///   scheduler's posted-read bookkeeping, so `sync` never waits on behalf
///   of data nobody wants and the posted-read gauges cannot drift.
///
/// ## Reorder contract (QoS devices)
///
/// Completion order is **not** submission order. Within one die a
/// QoS-scheduled device may complete a later-submitted priority read
/// before earlier-submitted posted programs/erases (erase-suspend,
/// reorder windows). Three guarantees survive reordering:
///
/// * **Read-your-writes per LBA**: a read submitted after a write to the
///   same LBA always returns that write's data — device state mutates in
///   submission order; only completion *times* reorder.
/// * **`sync` is the only total barrier**: it waits for every prior
///   submission — promoted, suspended, or pushed out — and merges their
///   completion times into the returned device clock. `Flush` remains a
///   write barrier (plane-pairing windows), not an ordering fence.
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
    /// Post a request; returns its completion token.
    fn submit(&mut self, req: IoRequest) -> Result<IoToken>;

    /// Wait for (and take) a completion. A retired token (already polled
    /// or forgotten) is [`FtlError::TokenRetired`], a token the queue
    /// never issued [`FtlError::TokenUnknown`].
    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion>;

    /// Barrier over all prior submissions; returns the merged device
    /// time in nanoseconds.
    fn sync(&mut self) -> u64;

    /// Abandon a token without waiting on its completion.
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
    fn submission_state_tokens_and_counters() {
        let mut s = SubmissionState::default();
        let a = s.complete_with_rejections(vec![vec![1]], Vec::new(), 10, 20);
        let b = s.complete_with_rejections(Vec::new(), vec![2], 20, 25);
        assert_ne!(a, b, "tokens are unique");
        let ca = s.take_checked(a).expect("buffered completion");
        assert_eq!((ca.submitted_ns, ca.done_ns), (10, 20));
        assert_eq!(ca.data, vec![vec![1]]);
        assert!(
            matches!(
                s.take_checked(a),
                Err(FtlError::TokenRetired { token }) if token == a.0
            ),
            "double-take is a typed retired error"
        );
        assert!(
            matches!(
                s.take_checked(IoToken(999)),
                Err(FtlError::TokenUnknown { token: 999 })
            ),
            "never-issued token is unknown, not retired"
        );
        assert_eq!(s.forget(b).expect("buffered").rejected, vec![2]);
        assert!(
            matches!(s.take_checked(b), Err(FtlError::TokenRetired { .. })),
            "forget retires the token too"
        );

        s.count_request(&IoRequest::ReadV(vec![1, 2]));
        s.count_request(&IoRequest::ReadV(vec![1]));
        s.count_request(&IoRequest::WriteV(vec![(1, vec![]), (2, vec![])]));
        s.count_request(&IoRequest::Trim(3));
        let folded = s.fold_into(DeviceStats {
            vectored_reads: 1,
            ..Default::default()
        });
        assert_eq!(folded.vectored_reads, 2, "overlay adds to the snapshot");
        assert_eq!(folded.vectored_writes, 1);
    }
}
