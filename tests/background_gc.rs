//! Acceptance for the background maintenance subsystem.
//!
//! 1. **Tail latency** — on the 4-channel × 2-die controller running the
//!    mixed OLTP sweep (TPC-B + TATP, 8 client streams) with an NCQ
//!    queue cap, scheduling reclaim on idle dies must beat inline
//!    low-water GC on p99.9 latency at equal throughput (within 5 %).
//!    The mechanism: inline GC posts its copy-backs and the erase from
//!    the host write path, so with a queue cap the submitting stream
//!    stalls behind its own firmware's reclaim burst; the scheduler's
//!    steps are cap-exempt, idle-placed and spread one command per poll.
//!    The comparison uses the traditional write strategy because that is
//!    the GC-heavy configuration — IPA-native barely garbage-collects,
//!    which is the paper's point, not a property of the scheduler.
//! 2. **GC parity** — `sharded_parity`-style: background-scheduled GC
//!    must reach the identical logical state as inline GC for die counts
//!    {1, 2, 4, 8}, across all three write strategies, with and without
//!    a queue cap. Scheduling may move *time*, never *state*.

use ipa_core::NmScheme;
use ipa_flash::FlashMode;
use ipa_ftl::{StripePolicy, WriteStrategy};
use ipa_storage::Rid;
use ipa_testkit::{heap_engine, maintained_heap_engine, ModelHarness};
use ipa_workloads::{
    Driver, DriverConfig, MaintMode, RunResult, StackSpec, Topology, WorkloadKind,
};
use proptest::prelude::*;

const DIE_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn run_mode(kind: WorkloadKind, maint: MaintMode) -> RunResult {
    let cfg = DriverConfig::default()
        .with_transactions(20_000)
        .with_streams(8);
    Driver::run_spec(
        kind,
        1,
        &StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
            .striped(Topology::new(4, 2, StripePolicy::RoundRobin), maint),
        &cfg,
    )
    .expect("maintained run")
}

#[test]
fn background_gc_with_queue_cap_beats_inline_on_p999() {
    let cap = 1usize;
    let mut p999_ratios = Vec::new();
    for kind in [WorkloadKind::TpcB, WorkloadKind::Tatp] {
        let inline = run_mode(kind, MaintMode::capped(cap));
        let bg = run_mode(kind, MaintMode::background(Some(cap)));

        // Equal throughput: the scheduler must not buy its tail win by
        // slowing the run down.
        let tps_delta = (bg.tps - inline.tps).abs() / inline.tps;
        assert!(
            tps_delta <= 0.05,
            "{}: throughput diverged by {:.1}% (inline {:.0} vs bg {:.0} tps)",
            kind.name(),
            tps_delta * 100.0,
            inline.tps,
            bg.tps
        );

        // The background arm must actually do its GC in the background.
        assert!(bg.maint.is_some(), "{}: no scheduler stats", kind.name());
        let d = &bg.device;
        assert_eq!(
            d.background_gc_erases,
            d.gc_erases,
            "{}: inline emergency GC fired in the background arm",
            kind.name()
        );

        p999_ratios.push(inline.latency.p999_ns as f64 / bg.latency.p999_ns as f64);

        if kind == WorkloadKind::TpcB {
            // The GC-heavy workload: the win must be individually visible.
            assert!(d.gc_erases > 0, "TPC-B run never garbage-collected");
            assert!(
                bg.latency.p999_ns < inline.latency.p999_ns,
                "TPC-B p99.9 must improve: inline {} vs bg {} ns",
                inline.latency.p999_ns,
                bg.latency.p999_ns
            );
            // The capped queue stalls the host less once reclaim posts
            // are out of the host's submission path.
            let (iw, bw) = (
                inline.controller.expect("controller").backpressure_wait_ns,
                bg.controller.expect("controller").backpressure_wait_ns,
            );
            assert!(
                bw < iw,
                "back-pressure must relax with background GC: {iw} -> {bw} ns"
            );
        }
    }
    // The mixed-sweep bar: geometric-mean p99.9 across TPC-B + TATP
    // improves.
    let gmean = (p999_ratios.iter().map(|r| r.ln()).sum::<f64>() / p999_ratios.len() as f64).exp();
    assert!(
        gmean > 1.0,
        "mixed-sweep p99.9 must improve with background GC ({p999_ratios:?} -> gmean {gmean:.3}x)"
    );
}

/// Run the harness on an engine, verify against its model across a
/// restart, and return the canonical logical state.
fn final_state(
    mut e: ipa_storage::StorageEngine,
    seed: u64,
    ops: usize,
    label: String,
) -> Vec<(Rid, Vec<u8>)> {
    let t = e.table("m").unwrap();
    let mut h = ModelHarness::new(seed, label);
    h.run(&mut e, t, ops);
    e.restart_clean().unwrap();
    h.assert_engine_matches(&mut e, t);
    h.canonical_rows()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Background-scheduled GC with an NCQ cap reaches the same logical
    /// state as a single inline-GC chip, under the native `write_delta`
    /// strategy, at every die count.
    #[test]
    fn background_gc_parity_ipa_native(seed in any::<u64>(), ops in 150usize..260) {
        let scheme = NmScheme::new(2, 4);
        let single = final_state(
            heap_engine(WriteStrategy::IpaNative, scheme, seed),
            seed,
            ops,
            format!("single(seed {seed})"),
        );
        for dies in DIE_COUNTS {
            let maintained = final_state(
                maintained_heap_engine(
                    WriteStrategy::IpaNative,
                    scheme,
                    seed,
                    dies,
                    StripePolicy::RoundRobin,
                    Some(2),
                ),
                seed,
                ops,
                format!("bg-{dies}-die(seed {seed})"),
            );
            prop_assert!(
                single == maintained,
                "{dies}-die background GC diverged from the single chip at seed {seed}"
            );
        }
    }
}

/// The traditional out-of-place path — the GC-heavy strategy — at a
/// fixed seed over the full die matrix, queues capped.
#[test]
fn background_gc_parity_traditional_fixed_seed() {
    let scheme = NmScheme::disabled();
    let seed = 0x00B6_06C5;
    let ops = 230;
    let single = final_state(
        heap_engine(WriteStrategy::Traditional, scheme, seed),
        seed,
        ops,
        "single-trad".into(),
    );
    for dies in DIE_COUNTS {
        let maintained = final_state(
            maintained_heap_engine(
                WriteStrategy::Traditional,
                scheme,
                seed,
                dies,
                StripePolicy::RoundRobin,
                Some(2),
            ),
            seed,
            ops,
            format!("bg-trad-{dies}-die"),
        );
        assert_eq!(single, maintained, "{dies}-die traditional GC diverged");
    }
}

/// The conventional-SSD IPA strategy (in-place detection in the FTL),
/// hash-striped, uncapped — exercises the third write path and the other
/// stripe policy through the maintained wrapper.
#[test]
fn background_gc_parity_ipa_conventional_fixed_seed() {
    let scheme = NmScheme::new(2, 4);
    let seed = 0x00BA_C60C;
    let ops = 210;
    let single = final_state(
        heap_engine(WriteStrategy::IpaConventional, scheme, seed),
        seed,
        ops,
        "single-conv".into(),
    );
    for dies in DIE_COUNTS {
        let maintained = final_state(
            maintained_heap_engine(
                WriteStrategy::IpaConventional,
                scheme,
                seed,
                dies,
                StripePolicy::Hash,
                None,
            ),
            seed,
            ops,
            format!("bg-conv-{dies}-die"),
        );
        assert_eq!(single, maintained, "{dies}-die conventional GC diverged");
    }
}
