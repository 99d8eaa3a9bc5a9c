//! `queued_parity` — the queued submission/completion API must be a pure
//! re-expression of the synchronous one.
//!
//! The same seeded operation stream (`ipa_testkit::QueuedOp`), driven
//! through `IoQueue` by `ipa_testkit::run_queued` (vectored
//! `ReadV`/`WriteV`/`WriteDeltaV` submissions, completions polled out of
//! order with respect to device time; point reads and trims through
//! their one entry point, `BlockDevice::read`/`trim`, on both sides) and
//! through the classic one-page-at-a-time `BlockDevice` loop on an
//! identical twin device, must produce byte-identical reads, an identical final logical
//! state, and identical host-level counters — for dies {1, 2, 4} ×
//! planes {1, 2} × all three write strategies. *Time* is exactly what
//! the queued path is allowed to change; *state* never.

use ipa_ftl::{
    BlockDevice, DeviceStats, IoQueue, IoRequest, NativeFlashDevice, ShardedFtl, WriteStrategy,
};
use ipa_testkit::{
    all_strategies, assert_same_final_state, run_ops, run_queued, striped_device, QueuedOp,
};
use proptest::prelude::*;

const DIE_COUNTS: [u32; 3] = [1, 2, 4];
const PLANE_COUNTS: [u32; 2] = [1, 2];

/// Execute one host request through the classic synchronous calls, one
/// page at a time.
fn issue_sync(dev: &mut ShardedFtl, req: IoRequest) -> Vec<Vec<u8>> {
    let mut reads = Vec::new();
    match req {
        IoRequest::WriteV(pages) => {
            for (lba, img) in pages {
                dev.write(lba, &img).unwrap();
            }
        }
        IoRequest::ReadV(lbas) => {
            for lba in lbas {
                let mut buf = vec![0u8; 2048];
                dev.read(lba, &mut buf).unwrap();
                reads.push(buf);
            }
        }
        IoRequest::WriteDeltaV(members) => {
            for (lba, offset, delta) in members {
                dev.write_delta(lba, offset, &delta).unwrap();
            }
        }
    }
    reads
}

/// Counters that must agree between the two drivers — everything except
/// the queued-path-only vectored markers.
fn comparable(mut s: DeviceStats) -> DeviceStats {
    s.vectored_reads = 0;
    s.vectored_writes = 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The full matrix: queued vectored I/O ≡ the sync loop for
    /// dies {1, 2, 4} × planes {1, 2} × all three write strategies.
    #[test]
    fn queued_equals_sync_full_matrix(
        seed in any::<u64>(),
        len in 40usize..90,
    ) {
        let ops = QueuedOp::stream(seed, len);
        for (strategy, _scheme) in all_strategies() {
            for dies in DIE_COUNTS {
                for planes in PLANE_COUNTS {
                    let label = format!("{strategy:?}/{dies}d/{planes}p(seed {seed})");
                    let mut queued = striped_device(strategy, seed, dies, planes);
                    let mut sync = striped_device(strategy, seed, dies, planes);
                    let qreads = run_queued(&mut queued, strategy, &ops);
                    let sreads = run_ops(&mut sync, strategy, &ops, issue_sync);
                    assert_eq!(qreads, sreads, "{label}: read streams diverged");
                    assert_same_final_state(&mut queued, &mut sync, &label);
                    // Host-level counters agree too (minus the final
                    // state readback, identical on both sides).
                    assert_eq!(
                        comparable(queued.device_stats()),
                        comparable(sync.device_stats()),
                        "{label}: counters diverged"
                    );
                }
            }
        }
    }
}

/// `sync()` is a barrier: every prior submission — including unpolled
/// posted writes still sitting in plane-pairing windows — is observable
/// afterwards, and the merged time covers every completion.
#[test]
fn sync_observes_all_prior_submissions() {
    let mut dev = striped_device(WriteStrategy::Traditional, 0xBA55, 4, 2);
    let mut tokens = Vec::new();
    for start in (0..32u64).step_by(4) {
        let pages = (0..4)
            .map(|i| (start + i, vec![start as u8; 2048]))
            .collect();
        tokens.push(dev.submit(IoRequest::WriteV(pages)).unwrap());
    }
    let merged = IoQueue::sync(&mut dev);
    // Every write is durable and readable after the barrier...
    let mut buf = vec![0u8; 2048];
    for lba in 0..32u64 {
        dev.read(lba, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == (lba / 4 * 4) as u8),
            "lba {lba} not observed after sync()"
        );
    }
    // ...and the barrier time covers every completion (tokens stay
    // pollable across the sync).
    for token in tokens {
        let c = dev.poll_checked(token).expect("completions survive sync");
        assert!(c.done_ns <= merged, "sync returned before {c:?}");
        assert!(c.submitted_ns <= c.done_ns);
    }
    let stats = dev.device_stats();
    assert_eq!(stats.vectored_writes, 8, "eight 4-page vectors submitted");
}

/// A vectored read across the stripe completes at the max of the per-die
/// clocks — faster than the sync loop paid for the same pages, never
/// faster than one read.
#[test]
fn vectored_read_overlaps_across_dies() {
    let mut dev = striped_device(WriteStrategy::Traditional, 0x5CA7, 8, 1);
    let n = 16u64;
    for lba in 0..n {
        dev.write(lba, &vec![lba as u8; 2048]).unwrap();
    }
    IoQueue::sync(&mut dev);

    // One solo read's wall time, for the lower bound.
    let t0 = dev.submission_clock_ns();
    let mut buf = vec![0u8; 2048];
    dev.read(0, &mut buf).unwrap();
    let solo = dev.submission_clock_ns() - t0;

    // The remaining 15 pages as one vector: must overlap.
    let t1 = dev.submission_clock_ns();
    let token = dev.submit(IoRequest::ReadV((1..n).collect())).unwrap();
    let c = dev.poll_checked(token).unwrap();
    let vectored = dev.submission_clock_ns() - t1;
    for (i, img) in c.data.iter().enumerate() {
        assert!(img.iter().all(|&b| b == (i + 1) as u8));
    }
    assert!(vectored >= solo, "cannot beat a single page read");
    assert!(
        vectored * 2 < solo * 15,
        "15 reads over 8 dies must overlap >2x: {vectored} vs 15x{solo} ns"
    );
    let c_stats = dev.controller().stats();
    assert!(c_stats.posted_reads >= 15, "members ran as posted reads");
}
