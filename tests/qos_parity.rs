//! `qos_parity` — the latency-QoS scheduler reorders *time*, never
//! *state*.
//!
//! The same seeded operation stream (`ipa_testkit::QueuedOp`), driven
//! through the queued interface (`ipa_testkit::run_queued` — identical on
//! both sides, only the controller's internal scheduling differs) on a
//! FIFO controller and on its QoS twin (per-die reorder windows,
//! read promotion over queued programs, erase-suspend), must produce
//! byte-identical reads, an identical final logical state, and identical
//! host-level counters — for dies {1, 2, 4} × planes {1, 2} × all three
//! write strategies. On top of the parity matrix, the deterministic
//! walls pin the three contract points of the `IoQueue` reorder
//! documentation: read-your-writes per LBA holds while programs for
//! that LBA are still queued, `sync()` is a total barrier over promoted
//! and non-promoted completions alike, and every suspended erase
//! resumes within `DeviceConfig::erase_resume_limit` suspensions.

use ipa_flash::DeviceConfig;
use ipa_ftl::{BlockDevice, IoQueue, IoRequest, WriteStrategy};
use ipa_testkit::{
    all_strategies, assert_same_final_state, run_queued, striped_device, striped_qos_device,
    QueuedOp, QUEUED_SPAN,
};
use proptest::prelude::*;

const DIE_COUNTS: [u32; 3] = [1, 2, 4];
const PLANE_COUNTS: [u32; 2] = [1, 2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The full matrix: a QoS controller ≡ its FIFO twin in every
    /// host-observable way, for dies {1, 2, 4} × planes {1, 2} × all
    /// three write strategies. State mutations are applied eagerly in
    /// submission order on both sides, so every counter — not just the
    /// read images — must agree exactly; only controller-side timing
    /// statistics may differ.
    #[test]
    fn qos_equals_fifo_full_matrix(
        seed in any::<u64>(),
        len in 40usize..90,
    ) {
        let ops = QueuedOp::stream(seed, len);
        let resume_limit = DeviceConfig::tiny().erase_resume_limit as u64;
        for (strategy, _scheme) in all_strategies() {
            for dies in DIE_COUNTS {
                for planes in PLANE_COUNTS {
                    let label = format!("{strategy:?}/{dies}d/{planes}p(seed {seed})");
                    let mut qos = striped_qos_device(strategy, seed, dies, planes);
                    let mut fifo = striped_device(strategy, seed, dies, planes);
                    let qreads = run_queued(&mut qos, strategy, &ops);
                    let freads = run_queued(&mut fifo, strategy, &ops);
                    assert_eq!(qreads, freads, "{label}: read streams diverged");
                    assert_same_final_state(&mut qos, &mut fifo, &label);
                    assert_eq!(
                        qos.device_stats(),
                        fifo.device_stats(),
                        "{label}: host counters diverged"
                    );
                    // The FIFO twin must never promote or suspend...
                    let cf = fifo.controller().stats();
                    assert_eq!(cf.reads_promoted, 0, "{label}: FIFO promoted");
                    assert_eq!(cf.erase_suspends, 0, "{label}: FIFO suspended");
                    // ...and the QoS side's suspensions stay within the
                    // per-erase resume budget.
                    let cq = qos.controller().stats();
                    assert!(
                        cq.erase_suspends <= cq.erases * resume_limit,
                        "{label}: {} suspends over {} erases breaks the \
                         x{resume_limit} resume budget",
                        cq.erase_suspends,
                        cq.erases,
                    );
                }
            }
        }
    }
}

/// Read-your-writes per LBA under reorder: with a deep queue of posted
/// programs parked on every die, a priority read of any just-written LBA
/// must return the new image — the mapping mutates at submission, the
/// scheduler only moves the read's *time* forward past the programs.
#[test]
fn priority_read_sees_queued_writes() {
    let mut dev = striped_qos_device(WriteStrategy::Traditional, 0x9057EED, 4, 1);
    // Post 32 programs without polling — every die ends up with a queue.
    let pages: Vec<(u64, Vec<u8>)> = (0..32u64).map(|l| (l, vec![l as u8; 2048])).collect();
    let token = dev.submit(IoRequest::WriteV(pages)).unwrap();

    let mut buf = vec![0u8; 2048];
    for lba in 0..32u64 {
        dev.read(lba, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == lba as u8),
            "lba {lba}: priority read missed a queued program's data"
        );
    }
    let c = dev.controller().stats();
    assert!(
        c.reads_promoted > 0,
        "reads against queued programs never promoted"
    );

    // The posted writes are still pollable, and sync stays a barrier.
    let merged = IoQueue::sync(&mut dev);
    let done = dev.poll_checked(token).unwrap();
    assert!(done.done_ns <= merged, "sync returned before {done:?}");
}

/// `sync()` is a total barrier on the QoS device too: promoted reads
/// never let a posted program escape the merged completion horizon.
#[test]
fn sync_is_total_barrier_under_promotion() {
    let mut dev = striped_qos_device(WriteStrategy::Traditional, 0xBA55, 4, 2);
    let mut buf = vec![0u8; 2048];
    let mut tokens = Vec::new();
    for start in (0..32u64).step_by(4) {
        let pages = (0..4)
            .map(|i| (start + i, vec![start as u8; 2048]))
            .collect();
        tokens.push(dev.submit(IoRequest::WriteV(pages)).unwrap());
        // A priority read between every batch keeps the reorder windows
        // actively shuffling the queues while the barrier forms.
        dev.read(start, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == start as u8));
    }
    let merged = IoQueue::sync(&mut dev);
    for lba in 0..32u64 {
        dev.read(lba, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == (lba / 4 * 4) as u8),
            "lba {lba} not observed after sync()"
        );
    }
    for token in tokens {
        let c = dev.poll_checked(token).expect("completions survive sync");
        assert!(c.done_ns <= merged, "sync returned before {c:?}");
        assert!(c.submitted_ns <= c.done_ns);
    }
}

/// Erase-suspend is bounded: GC churn with priority reads landing on the
/// erasing dies suspends erases, but never more than
/// `erase_resume_limit` times per erase, and only on the QoS device.
#[test]
fn erase_suspends_are_bounded() {
    let resume_limit = DeviceConfig::tiny().erase_resume_limit as u64;
    let mut dev = striped_qos_device(WriteStrategy::Traditional, 0x6C_EA5E, 2, 1);
    let span = dev.capacity_pages().min(QUEUED_SPAN);
    let mut buf = vec![0u8; 2048];
    // Hot-loop overwrites with reads on the heels of every batch: the
    // churn forces reclaim erases, the reads give the scheduler a reason
    // to suspend them.
    for round in 0..60u64 {
        let pages: Vec<(u64, Vec<u8>)> = (0..span)
            .map(|l| (l, vec![(round as u8).wrapping_add(l as u8); 2048]))
            .collect();
        let token = dev.submit(IoRequest::WriteV(pages)).unwrap();
        for lba in (0..span).step_by(7) {
            dev.read(lba, &mut buf).unwrap();
        }
        dev.poll_checked(token).unwrap();
    }
    IoQueue::sync(&mut dev);
    let c = dev.controller().stats();
    assert!(c.erases > 0, "churn never reached GC — test is vacuous");
    assert!(
        c.erase_suspends <= c.erases * resume_limit,
        "{} suspends over {} erases breaks the x{resume_limit} budget",
        c.erase_suspends,
        c.erases,
    );
    dev.check_invariants();
}

/// Dropping a posted `ReadV` token is the whole abandon protocol: after
/// `sync`, a QoS stripe that dropped one equals, in every counter and
/// clock, its twin that polled it — abandonment never moves timing.
#[test]
fn a_dropped_read_token_equals_a_polled_one_after_sync() {
    let run = |poll_both: bool| {
        let mut dev = striped_qos_device(WriteStrategy::Traditional, 0xF063E7, 4, 1);
        for lba in 0..16u64 {
            dev.write(lba, &vec![lba as u8; 2048]).unwrap();
        }
        IoQueue::sync(&mut dev);
        let keep = dev.submit(IoRequest::ReadV((0..8).collect())).unwrap();
        let other = dev.submit(IoRequest::ReadV((8..16).collect())).unwrap();
        if poll_both {
            assert_eq!(dev.poll_checked(other).unwrap().data.len(), 8);
        }
        assert_eq!(dev.poll_checked(keep).unwrap().data.len(), 8);
        IoQueue::sync(&mut dev);
        let seen = (
            dev.controller().stats(),
            dev.device_stats(),
            dev.flash_stats(),
            dev.elapsed_ns(),
            dev.submission_clock_ns(),
        );
        (seen, dev)
    };
    let (dropped, mut dev) = run(false);
    assert_eq!(
        dropped,
        run(true).0,
        "abandoning a completion moved the device"
    );
    // The device remains fully usable: fresh reads of the dropped pages work.
    let mut buf = vec![0u8; 2048];
    dev.read(8, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 8));
}
