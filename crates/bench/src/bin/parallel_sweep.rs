//! Channel/die scaling sweep plus the maintenance sweep: the same mixed
//! OLTP workloads on wider and wider controller topologies, then — on the
//! widest topology — NCQ queue caps and background-vs-inline GC. Flags
//! append further sections; each section's doc comment says what it
//! measures and the bar it must clear.
//!
//! Usage:
//!   cargo run --release -p ipa-bench --bin parallel_sweep \
//!       [--tx=1200] [--streams=8] [--seed=N] [--scale=1] \
//!       [--maint-tx=N] [--cap=1] [--planes=N] [--readahead[=W]] \
//!       [--wal-stripe[=C]] [--wal-group=1] [--qos] [--heat[=theta]] \
//!       [--fleet] [--fleet-tenants=8] [--fleet-rounds=10] [--threads=N] \
//!       [--csv PATH] [--trace=<out.json>] [--metrics=<out.json>]
//!
//! * `--planes=N` (N > 1): [`plane_sweep`], planes over {1, 2, …, N}.
//! * `--readahead[=W]` (default window 8): [`scan_sweep`].
//! * `--wal-stripe[=C]` (default 4 channels): [`wal_sweep`].
//! * `--qos`: [`qos_sweep`]. `--heat[=theta]` (default θ = 0.99):
//!   [`heat_sweep`]. `--fleet`: [`fleet_soak`].
//! * `--threads=N`: [`threads_sweep`], threads over {1, 2, …, N}.
//! * `--trace=<path>` / `--metrics=<path>`: [`trace_capture`].
//! * `--csv` writes every row (all sections) as machine-readable CSV for
//!   the perf trajectory; [`ipa_bench::sweep_csv`] is its schema.
//!
//! Every section prints its title, the telling columns of its CSV rows
//! as a table, and one `-> …: PASS|FAIL` line per acceptance bar. Exits
//! non-zero if any bar fails — first of all the reproduction's scaling
//! bar: 4-channel × 2-die must deliver ≥ 2× the 1 × 1 throughput on the
//! mixed sweep.

use std::process::ExitCode;

use ipa_bench::experiments::{self, RunError};
use ipa_bench::sweep_csv::Row;
use ipa_bench::{flags, Args, Verdict};
use ipa_flash::FlashMode;
use ipa_fleet::SoakConfig;
use ipa_ftl::{StripePolicy, WriteStrategy};
use ipa_trace::{chrome_trace_dies, chrome_trace_json, MetricsSnapshot, TracePhase};
use ipa_workloads::{
    build, Driver, DriverConfig, HeatPolicy, MaintMode, RunResult, StackSpec, ThreadedConfig,
    ThreadedRunResult, Topology, WorkloadKind,
};

/// What one section of the sweep produced. `main` prints the title, the
/// `show` columns (space-separated names) of `rows` as an aligned table
/// and one PASS/FAIL line per bar; the rows go to the CSV whole.
struct Section {
    title: &'static str,
    show: &'static str,
    rows: Vec<Row>,
    /// Acceptance bars.
    bars: Vec<Verdict>,
}

impl Section {
    fn print(&self) {
        println!("{}", self.title);
        let show: Vec<&str> = self.show.split_whitespace().collect();
        let cells = |row: &Row| show.iter().map(|col| row.get(col).to_string()).collect();
        let mut table: Vec<Vec<String>> = vec![show.iter().map(|c| c.to_string()).collect()];
        table.extend(self.rows.iter().map(cells));
        for line in &table {
            let padded = line.iter().enumerate().map(|(i, cell)| {
                let widest = table.iter().map(|l| l[i].chars().count()).max();
                format!("{cell:>width$}", width = widest.unwrap_or(0) + 2)
            });
            println!("{}", padded.collect::<String>());
        }
        for bar in &self.bars {
            println!("  -> {}: {}", bar.what, bar.mark());
        }
        ipa_bench::rule(118);
    }
}

/// The parsed command line.
#[derive(Debug)]
struct SweepArgs {
    tx: u64,
    streams: u32,
    seed: u64,
    scale: u32,
    maint_tx: u64,
    cap: usize,
    planes: u32,
    readahead: usize,
    wal_stripe: u32,
    wal_group: u32,
    qos: bool,
    heat: Option<f64>,
    fleet: Option<(usize, usize)>,
    threads: u32,
    trace: Option<String>,
    metrics: Option<String>,
}

impl SweepArgs {
    /// The sweep's flags, as [`flags::PARALLEL_SWEEP`] declares them; an
    /// absent section switch reads 0 or `None`.
    fn from_args(a: &Args) -> SweepArgs {
        let tx = a.value("tx");
        let fleet = (a.value("fleet-tenants"), a.value("fleet-rounds"));
        SweepArgs {
            tx,
            streams: a.value("streams"),
            seed: a.value("seed"),
            scale: a.value("scale"),
            // The maintenance sweep needs enough churn to trip GC (onset
            // is around 8k transactions at the default sizing); default
            // to a much longer window than the topology sweep.
            maint_tx: a.given("maint-tx").unwrap_or(tx * 16),
            cap: a.value("cap"),
            planes: a.value("planes"),
            readahead: a.given::<u32>("readahead").unwrap_or(0) as usize,
            wal_stripe: a.given("wal-stripe").unwrap_or(0),
            wal_group: a.value("wal-group"),
            qos: a.is_set("qos"),
            heat: a.given("heat"),
            fleet: a.is_set("fleet").then_some(fleet),
            threads: a.given("threads").unwrap_or(0),
            trace: a.string("trace"),
            metrics: a.string("metrics"),
        }
    }

    /// The multi-stream driver config every engine section starts from.
    fn cfg(&self, transactions: u64) -> DriverConfig {
        DriverConfig::default()
            .with_transactions(transactions)
            .with_seed(self.seed)
            .with_streams(self.streams)
    }
}

const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::TpcB, WorkloadKind::Tatp];

/// The widest topology; every section past the topology sweep runs on it.
fn wide() -> Topology {
    Topology::new(4, 2, StripePolicy::RoundRobin)
}

/// A pSLC stripe under `strategy`: the paper's IPA-native 2×4 mechanism,
/// or the GC-heavy traditional write path.
fn stack(strategy: WriteStrategy, topo: Topology, maint: MaintMode) -> StackSpec {
    StackSpec::paper(strategy, FlashMode::PSlc).striped(topo, maint)
}

/// Run every workload × stack × host-config cell, workload-major. A
/// row's `speedup` is `metric` relative to its workload's first cell.
fn run_matrix(
    a: &SweepArgs,
    section: &str,
    kinds: &[WorkloadKind],
    specs: &[StackSpec],
    cfgs: &[DriverConfig],
    metric: fn(&RunResult) -> f64,
) -> Result<Vec<Row>, RunError> {
    let mut rows = Vec::new();
    for &kind in kinds {
        let mut base = None;
        for (spec, cfg) in specs.iter().flat_map(|s| cfgs.iter().map(move |c| (s, c))) {
            let r = experiments::run(section, kind, a.scale, spec, cfg)?;
            let speedup = metric(&r) / *base.get_or_insert(metric(&r));
            rows.push(Row::run(section, spec, kind, &r).num("speedup", speedup));
        }
    }
    Ok(rows)
}

/// The same mixed OLTP workloads, K interleaved client streams, on wider
/// and wider topologies: simulated-time throughput, speedup over the
/// 1 × 1 baseline, tail latencies (p99 / p99.9 — where queueing lives)
/// and the scheduler's own counters. Bar: 4ch × 2d round-robin ≥ 2× the
/// baseline across the mixed sweep (geometric mean).
fn topology_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let topologies = [
        Topology::single(),
        Topology::new(2, 1, StripePolicy::RoundRobin),
        Topology::new(4, 1, StripePolicy::RoundRobin),
        Topology::new(2, 2, StripePolicy::RoundRobin),
        wide(),
        Topology::new(4, 2, StripePolicy::Hash),
    ];
    let specs = topologies.map(|t| stack(WriteStrategy::IpaNative, t, MaintMode::inline()));
    let rows = run_matrix(a, "topology", &WORKLOADS, &specs, &[a.cfg(a.tx)], |r| r.tps)?;
    let wide = wide().to_string();
    let on_wide = rows.iter().filter(|r| r.get("topology") == wide);
    let gmean = (on_wide.map(|r| r.value("speedup").ln()).sum::<f64>() / 2.0).exp();
    Ok(Section {
        title: "parallel sweep — IPA-native 2×4 pSLC, mixed workloads on widening topologies",
        show: "topology workload tps speedup p50_ns p99_ns p999_ns mean_wait_ns depth_max \
               in_place_fraction",
        rows,
        bars: vec![Verdict::at_least(gmean, 2.0, "4ch×2d mixed-sweep speedup")],
    })
}

/// GC-heavy traditional writes on the widest topology: queue cap ×
/// background-vs-inline GC against the uncapped inline baseline (first
/// row of each workload) — the foreground-stall experiment of the
/// `ipa-maint` crate.
fn maintenance_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let modes = [
        MaintMode::inline(),
        MaintMode::capped(a.cap),
        MaintMode::background(None),
        MaintMode::background(Some(a.cap)),
    ];
    let specs = modes.map(|maint| stack(WriteStrategy::Traditional, wide(), maint));
    let cfg = a.cfg(a.maint_tx);
    Ok(Section {
        title: "maintenance sweep — traditional writes on 4ch×2d: queue cap × inline/background GC",
        show: "gc_mode queue_cap workload tps speedup p99_ns p999_ns gc_erases bg_gc_erases \
               ncq_stall_ns wear_spread",
        rows: run_matrix(a, "maintenance", &WORKLOADS, &specs, &[cfg], |r| r.tps)?,
        bars: Vec::new(),
    })
}

/// The write-heavy traditional path at fixed channels × dies, planes
/// swept over powers of two: program throughput (`speedup` is programs/s
/// over the single-plane row) must climb as the per-die allocator pairs
/// writes into multi-plane commands — the multi-plane command
/// subsystem's 2×-per-die bandwidth claim.
fn plane_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let planes = (0..).map(|k| 1u32 << k).take_while(|p| *p <= a.planes);
    let spec = |p| {
        let topo = Topology::new(2, 2, StripePolicy::RoundRobin).with_planes(p);
        stack(WriteStrategy::Traditional, topo, MaintMode::inline())
    };
    let (specs, cfg): (Vec<StackSpec>, _) = (planes.map(spec).collect(), a.cfg(a.tx));
    let pps = RunResult::programs_per_sec;
    Ok(Section {
        title: "plane sweep — traditional writes on 2ch×2d, planes per die swept",
        show: "topology workload tps programs_per_sec speedup p999_ns multi_plane_pairs",
        rows: run_matrix(a, "planes", &WORKLOADS, &specs, &[cfg], pps)?,
        bars: Vec::new(),
    })
}

/// Cold full-table scans on the widest topology, with and without the
/// buffer pool's stripe-aware read-ahead (`tps` is scanned pages/s with
/// it on). Round-robin striping puts LBA k+1 on the next channel, so the
/// posted prefetch vectors keep every channel busy — the all-channels
/// scan win of the queued I/O API. Bar: ≥ 1.5×.
fn scan_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let spec = stack(WriteStrategy::Traditional, wide(), MaintMode::inline());
    let (mut rows, mut bars) = (Vec::new(), Vec::new());
    for kind in WORKLOADS {
        let scan = |window: usize| {
            let cfg = DriverConfig::default()
                .with_seed(a.seed)
                .with_readahead(window);
            let what = format!("scan: {} read-ahead {window}", kind.name());
            let mut bench = build(kind, a.scale, 8 * 1024);
            let built = spec.build(bench.as_mut(), 8 * 1024, &cfg);
            let mut engine = built.map_err(RunError::at(&what))?;
            Driver::sequential_scan(bench.as_mut(), &mut engine, 2, &cfg)
                .map_err(RunError::at(&what))
        };
        let (off, on) = (scan(0)?, scan(a.readahead)?);
        let speedup = off.elapsed_ns as f64 / on.elapsed_ns as f64;
        let row = Row::new("scan", &wide(), kind.name())
            .num("tps", on.pages_per_sec())
            .num("speedup", speedup)
            .set("vectored_reads", on.vectored_reads)
            .set("readahead_hits", on.readahead_hits);
        rows.push(row);
        bars.push(Verdict::at_least(speedup, 1.5, "sequential-scan speedup"));
    }
    Ok(Section {
        title: "sequential-scan sweep — cold full-table scan on 4ch×2d, read-ahead off vs on",
        show: "workload tps speedup readahead_hits vectored_reads",
        rows,
        bars,
    })
}

/// A WAL-bound config (`--wal-group`, default 1: every commit waits on
/// the log) on the widest data topology: the historic single-chip log
/// device (first row of each workload) vs the log striped over its own
/// C-channel controller, group-commit flushes going out as one vectored
/// write across its channels. Bar: striping must lift throughput.
fn wal_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let spec = stack(WriteStrategy::IpaNative, wide(), MaintMode::inline());
    let cfg = a.cfg(a.tx).with_group_commit(a.wal_group);
    let striped = cfg.clone().with_wal_stripe(a.wal_stripe, 1);
    let rows = run_matrix(a, "wal", &WORKLOADS, &[spec], &[cfg, striped], |r| r.tps)?;
    let lifts = rows.chunks(2).map(|pair| {
        let (lift, name) = (pair[1].value("speedup"), pair[1].get("workload"));
        let what = format!("striped WAL lifts WAL-bound {name} throughput {lift:.2}x");
        Verdict::new(lift > 1.0, what)
    });
    Ok(Section {
        title: "WAL sweep — IPA-native on 4ch×2d, single-chip log vs striped log",
        show: "workload tps speedup p99_ns wal_stripe_writes",
        bars: lifts.collect(),
        rows,
    })
}

/// The foreground-read-tail experiment: GC-heavy traditional writes with
/// background reclaim on the widest topology, FIFO die queues vs the QoS
/// scheduler (short posted reads promoted over queued programs, reclaim
/// erases suspended for host reads). The row pair reports the p99.9
/// *device read* latency — the tail the reorder windows exist to cut.
/// The wall test (`tests/tail_latency_slo.rs`) enforces the ≥ 25% cut at
/// full scale; the smoke-sized bar only insists QoS never makes it worse.
fn qos_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let fifo = MaintMode::background(None);
    let specs = [fifo, fifo.with_qos()].map(|m| stack(WriteStrategy::Traditional, wide(), m));
    let cfg = a.cfg(a.maint_tx);
    let rows = run_matrix(a, "qos", &WORKLOADS, &specs, &[cfg], |r| r.tps)?;
    let tails = rows.chunks(2).map(|pair| {
        let ratio = pair[1].value("p999_read_ns") / pair[0].value("p999_read_ns").max(1.0);
        let name = pair[1].get("workload");
        let what = format!("QoS p99.9 read tail {ratio:.2}x of FIFO on {name}");
        Verdict::new(ratio <= 1.0, what)
    });
    Ok(Section {
        title: "latency-QoS sweep — traditional writes on 4ch×2d, background GC, FIFO vs QoS",
        show: "gc_mode workload tps p999_read_ns p99_ns reads_promoted erase_suspends \
               bg_gc_erases",
        bars: tails.collect(),
        rows,
    })
}

/// The wear-shifting experiment: TPC-B account draws uniform vs Zipf(θ),
/// each distribution run on the fixed round-robin stripe and again behind
/// the `ipa-heat` device (SLC hot tier absorbing the hot ranges, destage
/// and stripe-slot migration on the idle-die maintenance scheduler). The
/// interesting cell is zipf/tiered. Bar: the tier must soak up the hot
/// head and place it back, and the per-die erase spread must end no
/// wider than twice the fixed stripe's under the same skew.
fn heat_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let theta = a.heat.expect("section runs only with --heat");
    let heat_policy = HeatPolicy::default()
        .with_hot_threshold(2)
        .with_range_pages(4)
        .with_tier_fraction(0.01)
        .with_destage_high_water(0.5)
        .with_migrate_wear_delta(2);
    let maint = MaintMode::background(None);
    let spec = stack(WriteStrategy::IpaNative, wide(), maint);
    let (mut cfgs, mut labels) = (Vec::new(), Vec::new());
    for (dist, zipf_theta) in [("uniform", None), ("zipf", Some(theta))] {
        for (placement, tiered) in [("fixed", false), ("tiered", true)] {
            let mut cfg = a.cfg(a.maint_tx);
            cfg.zipf_theta = zipf_theta;
            cfg.heat = tiered.then(|| heat_policy.clone());
            cfgs.push(cfg);
            labels.push(format!("heat-{dist}-{placement}"));
        }
    }
    let rows = run_matrix(a, "heat", &[WorkloadKind::TpcB], &[spec], &cfgs, |_| 1.0)?;
    let relabel = |(row, label): (Row, String)| row.set("section", label);
    let rows: Vec<Row> = rows.into_iter().zip(labels).map(relabel).collect();
    let (fixed, tiered) = (&rows[2], &rows[3]);
    let (hits, moved) = (tiered.value("hot_hits"), tiered.value("migrations"));
    let destaged = tiered.value("destages");
    let (spread, fixed_spread) = (tiered.value("wear_spread"), fixed.value("wear_spread"));
    let what = format!(
        "heat placement: {hits} hot hits, {moved} migrations + {destaged} destages, \
         zipf spread {spread} (tiered) vs {fixed_spread} (fixed)"
    );
    let pass = hits > 0.0 && destaged + moved > 0.0 && spread <= fixed_spread.max(1.0) * 2.0;
    Ok(Section {
        title: "heat sweep — TPC-B on 4ch×2d, uniform vs Zipf draws, fixed stripe vs hot tier",
        show: "section tps p99_ns wear_spread hot_hits migrations destages",
        rows,
        bars: vec![Verdict::new(pass, what)],
    })
}

/// The multi-tenant crash/recovery soak at smoke scale: N tenants
/// (alternating TPC-B-/TATP-style streams) sharing one 4ch×2d device
/// under an NCQ cap with QoS scheduling, seeded kill/recover chaos
/// mid-run, checkpoint-driven WAL log-space reclamation. `run_soak`
/// itself panics if any tenant's post-recovery state diverges from its
/// model, so this section completing at all is the correctness half.
/// Bar (the bookkeeping half): every kill recovered, log space recycled,
/// and the cross-tenant p99.9 spread bounded.
fn fleet_soak(a: &SweepArgs) -> Result<Section, RunError> {
    let (tenants, rounds) = a.fleet.expect("section runs only with --fleet");
    let soak = SoakConfig {
        tenants,
        rounds,
        seed: a.seed,
    };
    let (channels, dies) = ipa_fleet::TOPOLOGY;
    let report = ipa_fleet::run_soak(&soak).map_err(RunError::at("fleet soak"))?;
    let p999_max = report.per_tenant.iter().map(|p| p.p999_ns).max();
    let spread = report.p999_spread();
    let (kills, recoveries) = (report.kills, report.recoveries);
    let reclaimed = report.wal_stripes_reclaimed;
    let c = report.controller.clone().unwrap_or_default();
    let topo = Topology::new(channels, dies, StripePolicy::RoundRobin);
    let row = Row::new("fleet", &topo, "mixed")
        .set("gc_mode", "inline+qos")
        .set("queue_cap", ipa_fleet::QUEUE_CAP)
        .num("tps", report.tps())
        .set("p999_ns", p999_max.unwrap_or(0))
        .num("mean_wait_ns", c.mean_wait_ns())
        .set("depth_max", c.max_queue_depth)
        .set("ncq_stalls", c.backpressure_stalls)
        .set("ncq_stall_ns", c.backpressure_wait_ns)
        .set("reads_promoted", c.reads_promoted)
        .set("erase_suspends", c.erase_suspends)
        .set("tenants", report.tenants)
        .set("kills", kills)
        .set("recoveries", recoveries)
        .set("wal_stripes_reclaimed", reclaimed)
        .num("die_util_max", c.die_util_max())
        .num("chan_util_max", c.chan_util_max());
    let pass =
        recoveries == kills && kills > 0 && reclaimed > 0 && spread.is_finite() && spread < 10.0;
    let what = format!(
        "fleet soak: {recoveries}/{kills} recoveries verified, {} records replayed, \
         {reclaimed} WAL pages reclaimed, spread {spread:.2}x",
        report.records_replayed
    );
    Ok(Section {
        title: "fleet soak — tenants on one shared 4ch×2d device, NCQ cap 4 + QoS, kill/recover",
        show: "tenants tps kills recoveries wal_stripes_reclaimed p999_ns",
        rows: vec![row],
        bars: vec![Verdict::new(pass, what)],
    })
}

/// Real host parallelism over the per-die-locked device core: the
/// deterministic multi-stream churn harness (`Driver::run_threaded`) on
/// the widest topology, thread counts swept over powers of two. The
/// workload is defined by its *streams*, so the final logical digest and
/// host-op counters are fixed and every row is also a parity bar against
/// the single-threaded reference; what scales is host wall-clock
/// simulated-ops/sec (`speedup`; `tps` is simulated ops/s).
fn threads_sweep(a: &SweepArgs) -> Result<Section, RunError> {
    let counts = (0..).map(|k| 1u32 << k).take_while(|t| *t <= a.threads);
    let run = |threads| {
        Driver::run_threaded(&ThreadedConfig {
            threads,
            seed: a.seed,
            topology: wide(),
            ..Default::default()
        })
    };
    let runs: Vec<_> = counts.map(run).collect();
    let base_rate = runs[0].wall_ops_per_sec().max(1e-9);
    let speedup = |r: &ThreadedRunResult| r.wall_ops_per_sec() / base_rate;
    let row = |r: &ThreadedRunResult| {
        Row::new("threads", &wide(), "threaded")
            .num("tps", r.ops as f64 / (r.sim_ns.max(1) as f64 / 1e9))
            .num("speedup", speedup(r))
            .set("gc_erases", r.device.gc_erases)
            .set("bg_gc_erases", r.device.background_gc_erases)
            .set("multi_plane_pairs", r.device.multi_plane_pairs)
            .set("vectored_reads", r.device.vectored_reads)
            .set("vectored_writes", r.device.vectored_writes)
            .set("threads", r.threads)
            .num("wall_ops_per_sec", r.wall_ops_per_sec())
    };
    let parity = |r: &ThreadedRunResult| {
        let (t, digest) = (r.threads, r.logical_digest);
        let what = format!("threads={t} logical digest {digest:016x} equals single-threaded");
        Verdict::new(digest == runs[0].logical_digest, what)
    };
    let mut bars: Vec<_> = runs.iter().map(parity).collect();
    // The scaling bar only applies when the sweep actually reaches a
    // parallel grade: ≥ 4 threads must beat the serial wall clock by 1.5×
    // on this 8-die geometry. Wall speedup needs real cores to run on —
    // on a smaller host the section still holds the digest parity bars
    // above, but the perf bar is skipped rather than reported as a
    // scaling failure.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if a.threads >= 4 && cores >= 4 {
        let top = speedup(runs.last().expect("at least the 1-thread run"));
        bars.push(Verdict::at_least(
            top,
            1.5,
            "top thread count's wall speedup",
        ));
    }
    Ok(Section {
        title: "threads sweep — 8 die-affine churn streams over shared 4ch×2d, OS threads swept",
        show: "threads tps wall_ops_per_sec speedup",
        rows: runs.iter().map(row).collect(),
        bars,
    })
}

/// One traced run of the QoS configuration (traditional writes,
/// background GC, QoS scheduling on the widest topology): the command
/// lifecycle goes to a Chrome trace-event JSON (`--trace=<path>`; open
/// it in Perfetto / `chrome://tracing`, one track per die,
/// erase-suspend/resume and promotion instants marked) and the unified
/// metrics tree to JSON (`--metrics=<path>`). Bars: the trace must parse
/// and cover every die, suspend/resume instants must pair, and the
/// metrics document must round-trip identically.
fn trace_capture(a: &SweepArgs) -> Result<Section, RunError> {
    let maint = MaintMode::background(None).with_qos();
    let spec = stack(WriteStrategy::Traditional, wide(), maint);
    let cfg = a.cfg(a.maint_tx).with_trace(1 << 20);
    let r = experiments::run("trace", WorkloadKind::TpcB, a.scale, &spec, &cfg)?;
    let count = |phase: TracePhase| r.trace.iter().filter(|e| e.phase == phase).count();
    let (suspended, resumed) = (count(TracePhase::Suspended), count(TracePhase::Resumed));
    let promoted = count(TracePhase::Promoted);
    let mut bars = Vec::new();
    if let Some(path) = &a.trace {
        let doc = chrome_trace_json(&r.trace, "parallel_sweep QoS trace");
        std::fs::write(path, &doc).map_err(RunError::at(format!("writing {path}")))?;
        let dies_seen = chrome_trace_dies(&doc).map_err(RunError::at("parsing the trace"))?;
        let dies = wide().dies() as u64;
        let covered = (0..dies).filter(|d| dies_seen.contains(d)).count() as u64;
        let what = format!(
            "trace: {} events ({} dropped by the ring) to {path}, {covered}/{dies} dies covered, \
             {promoted} promotions, {suspended} suspends / {resumed} resumes",
            r.trace.len(),
            r.trace_dropped
        );
        let pass = covered == dies && suspended == resumed && promoted > 0;
        bars.push(Verdict::new(pass, what));
    }
    if let Some(path) = &a.metrics {
        let doc = r.metrics.to_json_string();
        std::fs::write(path, &doc).map_err(RunError::at(format!("writing {path}")))?;
        let back = MetricsSnapshot::from_json_str(&doc).map_err(RunError::at("parsing metrics"))?;
        let sections = back.sections.len();
        let what = format!("metrics round-trip: {sections} sections to {path}");
        let pass = back == r.metrics && back.get("controller.commands").is_some();
        bars.push(Verdict::new(pass, what));
    }
    Ok(Section {
        title: "trace capture — traditional writes on 4ch×2d, background GC + QoS",
        show: "",
        rows: Vec::new(),
        bars,
    })
}

type SectionFn = fn(&SweepArgs) -> Result<Section, RunError>;

/// Every section with the condition that switches it on, in output order.
fn sections(a: &SweepArgs) -> Vec<SectionFn> {
    let table: [(bool, SectionFn); 10] = [
        (true, topology_sweep),
        (true, maintenance_sweep),
        (a.planes > 1, plane_sweep),
        (a.readahead > 0, scan_sweep),
        (a.wal_stripe > 0, wal_sweep),
        (a.qos, qos_sweep),
        (a.heat.is_some(), heat_sweep),
        (a.fleet.is_some(), fleet_soak),
        (a.threads >= 1, threads_sweep),
        (a.trace.is_some() || a.metrics.is_some(), trace_capture),
    ];
    let enabled = table.into_iter().filter_map(|(on, run)| on.then_some(run));
    enabled.collect()
}

fn main() -> ExitCode {
    let a = Args::from_env(flags::PARALLEL_SWEEP);
    let args = SweepArgs::from_args(&a);
    ipa_bench::exit_status(run(&args, a.string("csv")))
}

/// Print every enabled section and write the CSV; whether every bar held.
fn run(args: &SweepArgs, csv_path: Option<String>) -> Result<bool, RunError> {
    println!("{args:?}");
    ipa_bench::rule(118);
    let mut csv = Row::header() + "\n";
    let mut pass = true;
    for run in sections(args) {
        let section = run(args)?;
        section.print();
        pass &= section.bars.iter().all(|bar| bar.pass);
        for row in &section.rows {
            csv.push_str(&row.line());
            csv.push('\n');
        }
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, csv).map_err(RunError::at(format!("writing {path}")))?;
        println!("csv written to {path}");
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_section_emits_rows_shaped_like_the_header() {
        // Every section switched on, at the smallest sizes that still
        // produce rows.
        let argv = "parallel_sweep --tx=40 --streams=2 --seed=7 --maint-tx=60 --planes=2 \
                    --readahead=4 --wal-stripe=2 --qos --heat --fleet --fleet-tenants=2 \
                    --fleet-rounds=1 --threads=2";
        let argv = argv.split_whitespace().map(String::from).collect();
        let args = SweepArgs::from_args(&Args::new(argv, flags::PARALLEL_SWEEP).unwrap());
        assert_eq!(
            (args.heat, args.fleet, args.maint_tx),
            (Some(0.99), Some((2, 1)), 60)
        );
        let columns = Row::header().split(',').count();
        assert_eq!(columns, 42);
        let mut by_section = std::collections::BTreeMap::new();
        for run in sections(&args) {
            let section = run(&args).unwrap();
            section.print();
            for row in section.rows {
                let line = row.line();
                assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
                by_section.insert(row.get("section").to_string(), row);
            }
        }
        let names: Vec<&str> = by_section.keys().map(String::as_str).collect();
        let expected = "fleet heat-uniform-fixed heat-uniform-tiered heat-zipf-fixed \
                        heat-zipf-tiered maintenance planes qos scan threads topology wal";
        assert_eq!(names, expected.split(' ').collect::<Vec<_>>());
        // The cells CI reads resolve by name, wherever they sit.
        assert_eq!(by_section["threads"].get("threads"), "2");
        assert_eq!(by_section["topology"].get("threads"), "1");
        let hot_hits = by_section["heat-zipf-tiered"].get("hot_hits");
        assert!(hot_hits.parse::<u64>().is_ok(), "hot_hits = {hot_hits:?}");
    }
}
