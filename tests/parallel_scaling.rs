//! Acceptance: with the IPA-native configuration, a 4-channel × 2-die
//! controller delivers ≥ 2× the 1 × 1 baseline's simulated-time
//! throughput on the mixed workload sweep (TPC-B + TATP, geometric mean),
//! and scaling is accompanied by shorter queues — the whole point of the
//! controller subsystem. The plane tier rides the same bar: at equal
//! channels × dies, two planes must deliver ≥ 1.5× the single-plane
//! program throughput on a write-heavy sweep.

use ipa_controller::ControllerConfig;
use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
use ipa_ftl::{BlockDevice, FtlConfig, ShardedFtl, StripePolicy, WriteStrategy};
use ipa_workloads::{
    build, Driver, DriverConfig, MaintMode, RunResult, StackSpec, Topology, WorkloadKind,
};

/// A pSLC stripe over `topo` with inline GC: IPA-native 2×4, or the
/// traditional write path.
fn stripe(strategy: WriteStrategy, topo: Topology) -> StackSpec {
    StackSpec::paper(strategy, FlashMode::PSlc).striped(topo, MaintMode::inline())
}

fn run(kind: WorkloadKind, topo: Topology) -> RunResult {
    let cfg = DriverConfig {
        transactions: 600,
        warmup: 300,
        ..Default::default()
    }
    .with_streams(8);
    Driver::run_spec(kind, 1, &stripe(WriteStrategy::IpaNative, topo), &cfg).expect("sweep run")
}

#[test]
fn four_by_two_doubles_throughput_on_the_mixed_sweep() {
    let wide_topo = Topology::new(4, 2, StripePolicy::RoundRobin);
    let mut speedups = Vec::new();
    for kind in [WorkloadKind::TpcB, WorkloadKind::Tatp] {
        let base = run(kind, Topology::single());
        let wide = run(kind, wide_topo);
        let s = wide.tps / base.tps;
        assert!(s > 1.0, "{}: 8 dies slower than 1 ({:.2}x)", kind.name(), s);
        // Queueing must relax as the topology widens.
        let (bw, ww) = (
            base.controller.expect("sharded run").mean_wait_ns(),
            wide.controller.expect("sharded run").mean_wait_ns(),
        );
        assert!(
            ww < bw,
            "{}: mean queue wait grew with more dies ({bw:.0} -> {ww:.0} ns)",
            kind.name()
        );
        speedups.push(s);
    }
    let gmean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    assert!(
        gmean >= 2.0,
        "mixed-sweep speedup {gmean:.2}x below the 2x acceptance bar ({speedups:?})"
    );
}

#[test]
fn two_planes_deliver_1_5x_program_throughput_on_the_write_heavy_sweep() {
    // Device-level write-heavy sweep at equal channels × dies (1 × 1, so
    // every gain is plane pairing, none of it die overlap): sequential
    // fills plus overwrite churn, program throughput = programs / time.
    let run = |planes: u32| -> (f64, u64) {
        let chip = DeviceConfig::new(
            Geometry::new(64, 16, 2048, 64).with_planes(planes),
            ipa_flash::FlashMode::PSlc,
        )
        .with_disturb(DisturbRates::none());
        let mut dev = ShardedFtl::new(
            ControllerConfig::new(1, 1, chip),
            FtlConfig::traditional(),
            StripePolicy::RoundRobin,
        );
        let data = vec![0x5Au8; 2048];
        let span = dev.capacity_pages().min(192);
        for round in 0..3u64 {
            for lba in 0..span {
                dev.write((lba + round) % span, &data).unwrap();
            }
        }
        dev.check_invariants();
        let programs = dev.flash_stats().total_programs();
        let elapsed = dev.sync();
        (programs as f64 / (elapsed as f64 / 1e9), elapsed)
    };
    let (single_pps, _) = run(1);
    let (dual_pps, _) = run(2);
    assert!(
        dual_pps >= 1.5 * single_pps,
        "2 planes must lift program throughput ≥1.5× at equal channels×dies: \
         {dual_pps:.0} vs {single_pps:.0} programs/s"
    );
}

#[test]
fn plane_speedup_composes_with_die_parallelism() {
    // The engine-level view: the same TPC-B run on 2ch×2d, planes 1 vs 2.
    // Throughput must improve and the pairing counters must show why.
    let cfg = DriverConfig {
        transactions: 400,
        warmup: 100,
        ..Default::default()
    }
    .with_streams(4);
    let run = |planes: u32| {
        Driver::run_spec(
            WorkloadKind::TpcB,
            1,
            &stripe(
                WriteStrategy::Traditional,
                Topology::new(2, 2, StripePolicy::RoundRobin).with_planes(planes),
            ),
            &cfg,
        )
        .expect("plane run")
    };
    let base = run(1);
    let dual = run(2);
    assert_eq!(base.device.multi_plane_pairs, 0);
    assert!(
        dual.device.multi_plane_pairs > 0,
        "2-plane engine run must pair: {:?}",
        dual.device
    );
    assert!(
        dual.programs_per_sec() > base.programs_per_sec(),
        "plane pairing must lift end-to-end program throughput: {:.0} vs {:.0}",
        dual.programs_per_sec(),
        base.programs_per_sec()
    );
}

#[test]
fn readahead_scan_uses_all_channels() {
    // The queued API's read-side acceptance bar: a cold sequential scan
    // on 4ch×2d with stripe-aware read-ahead must run ≥ 1.5× faster
    // than the same scan without it (measured ~5–7×: neighbour LBAs sit
    // on neighbour channels, and the posted prefetch vectors keep all of
    // them sensing/transferring at once).
    let spec = stripe(
        WriteStrategy::Traditional,
        Topology::new(4, 2, StripePolicy::RoundRobin),
    );
    let scan = |cfg: DriverConfig| {
        let mut bench = build(WorkloadKind::TpcB, 1, 8 * 1024);
        let mut engine = spec.build(bench.as_mut(), 8 * 1024, &cfg).expect("engine");
        Driver::sequential_scan(bench.as_mut(), &mut engine, 2, &cfg).expect("scan")
    };
    let off = scan(DriverConfig::default());
    let on = scan(DriverConfig::default().with_readahead(8));
    assert_eq!(off.readahead_hits, 0, "read-ahead off means zero hits");
    assert_eq!(off.pages, on.pages, "same table, same fetches");
    assert!(
        on.readahead_hits * 2 > on.pages,
        "most fetches of a sequential scan should ride read-ahead: {on:?}"
    );
    assert!(
        on.vectored_reads > 0,
        "prefetches go out as vectors: {on:?}"
    );
    let speedup = off.elapsed_ns as f64 / on.elapsed_ns as f64;
    assert!(
        speedup >= 1.5,
        "read-ahead scan speedup {speedup:.2}x below the 1.5x bar ({off:?} vs {on:?})"
    );
}

#[test]
fn striped_wal_lifts_wal_bound_throughput() {
    // The queued API's log-side acceptance bar: with strict per-commit
    // durability (group commit 1) the log device gates TPC-B, and
    // striping the WAL over its own 4-channel controller — group-commit
    // flushes submitted as vectored writes, concurrent clients' flushes
    // overlapping across its dies — must lift throughput over the
    // single-chip log (measured ~1.8×).
    let cfg = DriverConfig {
        transactions: 500,
        warmup: 100,
        ..Default::default()
    }
    .with_streams(8)
    .with_group_commit(1);
    let run = |wal_stripe: Option<(u32, u32)>| {
        let mut cfg = cfg.clone();
        if let Some((c, d)) = wal_stripe {
            cfg = cfg.with_wal_stripe(c, d);
        }
        Driver::run_spec(
            WorkloadKind::TpcB,
            1,
            &stripe(
                WriteStrategy::IpaNative,
                Topology::new(4, 2, StripePolicy::RoundRobin),
            ),
            &cfg,
        )
        .expect("wal run")
    };
    let single = run(None);
    let striped = run(Some((4, 1)));
    assert!(
        striped.wal_device.is_some() && single.wal_device.is_some(),
        "runs report log-device counters"
    );
    let s = striped.tps / single.tps;
    assert!(
        s >= 1.15,
        "striped WAL must lift WAL-bound TPC-B ≥1.15x: {s:.2}x \
         ({} vs {} tps)",
        striped.tps,
        single.tps
    );
}

#[test]
fn tail_latency_tightens_with_parallelism() {
    let base = run(WorkloadKind::TpcB, Topology::single());
    let wide = run(
        WorkloadKind::TpcB,
        Topology::new(4, 2, StripePolicy::RoundRobin),
    );
    assert!(
        wide.latency.p999_ns < base.latency.p999_ns,
        "p99.9 should shrink with 8 dies: {} -> {} ns",
        base.latency.p999_ns,
        wide.latency.p999_ns
    );
    // Per-stream views exist and are internally consistent.
    assert_eq!(wide.per_stream.len(), 8);
    for s in &wide.per_stream {
        assert!(s.latency.p50_ns <= s.latency.p999_ns);
    }
    // And the cross-stream tail spread (max/min p99.9) is well-formed:
    // symmetric streams over a striped device should not diverge wildly.
    let spread = wide.p999_spread();
    assert!(spread >= 1.0 && spread.is_finite());
    assert_eq!(wide.per_stream_p999_ns().len(), 8);
}
