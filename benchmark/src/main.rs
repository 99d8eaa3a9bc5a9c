//! The two-clock perf ledger: five closed-loop workloads over the IPA
//! stack, each reporting what the *model* predicts (simulated time) and
//! what the *simulator* costs (host wall-clock), end to end and by layer.
//! See `benchmark/README.md`.

mod cli;
mod layers;
mod probes;
mod report;
mod stats;
mod timed;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ipa_trace::chrome_trace_json;
use ipa_trace::json::{self, JsonValue};
use ipa_workloads::{LatencyPercentiles, RunResult, ThreadedRunResult};

use cli::Args;
use layers::{CallsPerOp, Metrics};
use probes::{Effort, Probe};
use report::{END_TO_END, PER_LAYER};
use stats::{percentile_supported, Fnv};
use workloads::{ChurnRun, EngineRun, EngineSpec, Kind, Sizes, Workload, CHURN_THREADS, WORKLOADS};

/// Result documents and traced artifacts land here (git-ignored).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Artifacts are a convenience; a read-only checkout must not fail a run.
fn write_artifact(name: &str, text: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(name), text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

/// FNV-1a over every simulated counter and latency figure the run
/// exposes: equal digests ⇔ the simulated columns are bit-identical.
fn engine_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.debug(&(r.transactions, r.elapsed_ns, r.max_erase_count));
    h.debug(&r.device);
    h.debug(&r.wal_device);
    h.debug(&r.flash);
    h.debug(&r.pool);
    h.debug(&(r.latency, r.read_latency));
    h.debug(&r.per_stream);
    h.debug(&r.controller);
    h.debug(&r.maint);
    h.finish()
}

/// The churn digest covers the two-thread run's final state, simulated
/// horizon and device counters. Threaded simulated timing is approximate
/// (ROADMAP open item 2), so unlike the engine digests it is not expected
/// to repeat between runs.
fn churn_digest(t2: &ThreadedRunResult) -> u64 {
    let mut h = Fnv::default();
    h.debug(&(t2.ops, t2.sim_ns, t2.logical_digest));
    h.debug(&t2.device);
    h.finish()
}

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn latency_json(l: &LatencyPercentiles) -> JsonValue {
    let n = l.count as usize;
    let entry = |ns: u64, q: f64| {
        JsonValue::Obj(vec![
            ("us".into(), num(ns as f64 / 1e3)),
            (
                "supported".into(),
                JsonValue::Bool(percentile_supported(n, q)),
            ),
        ])
    };
    JsonValue::Obj(vec![
        ("samples".into(), num(l.count as f64)),
        ("p50".into(), entry(l.p50_ns, 0.50)),
        ("p99".into(), entry(l.p99_ns, 0.99)),
        ("p999".into(), entry(l.p999_ns, 0.999)),
    ])
}

fn print_latency(l: &LatencyPercentiles) {
    let n = l.count as usize;
    let mark = |q| {
        if percentile_supported(n, q) {
            ""
        } else {
            " (fewer than 10 samples beyond)"
        }
    };
    println!("  simulated device time per transaction, {n} samples:");
    println!("    p50   {:>12.3} us{}", l.p50_ns as f64 / 1e3, mark(0.50));
    println!("    p99   {:>12.3} us{}", l.p99_ns as f64 / 1e3, mark(0.99));
    println!(
        "    p99.9 {:>12.3} us{}",
        l.p999_ns as f64 / 1e3,
        mark(0.999)
    );
}

/// What one workload run hands to the reporting code.
struct Outcome {
    attempted: u64,
    check: Result<(), String>,
    end_to_end: Metrics,
    per_layer: Option<Metrics>,
    sim_digest: u64,
    /// The simulated figures the end-to-end list cannot carry (they are
    /// zero or undefined on some workload), for the ledger.
    sim: JsonValue,
}

fn end_to_end(setup_s: f64, wall_us_per_op: f64, sim_tps: f64, write_amp: f64) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("wall_us_per_op", wall_us_per_op);
    m.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    m.set("sim_tps", sim_tps);
    m.set("sim_write_amp", write_amp);
    m
}

fn engine_sim_json(r: &RunResult) -> JsonValue {
    JsonValue::Obj(vec![
        ("latency".into(), latency_json(&r.latency)),
        (
            "migrations_per_host_write".into(),
            num(r.migrations_per_host_write()),
        ),
        (
            "erases_per_host_write".into(),
            num(r.erases_per_host_write()),
        ),
        ("peak_block_erases".into(), num(r.max_erase_count as f64)),
        ("elapsed_s".into(), num(r.elapsed_ns as f64 / 1e9)),
    ])
}

/// The passes of one engine workload, reduced: the first pass in full,
/// the others as what the steady estimates need.
struct EnginePasses {
    first: EngineRun,
    /// Best-of-passes host seconds of the measured window.
    window_s: f64,
    /// Fastest pass's set-up time.
    setup_s: f64,
    sim_digest: u64,
    check: Result<(), String>,
}

impl EnginePasses {
    fn wall_us_per_op(&self) -> f64 {
        self.window_s * 1e6 / self.first.ops as f64
    }
}

fn run_engine_passes(
    spec: &EngineSpec,
    sizes: &Sizes,
    seed: u64,
    traced: bool,
) -> Result<EnginePasses, String> {
    let mut first: Option<(EngineRun, u64)> = None;
    let (mut walls, mut setups, mut check) = (Vec::new(), Vec::new(), Ok(()));
    for _ in 0..sizes.passes {
        let run = workloads::run_engine(spec, sizes, seed, traced)?;
        walls.push(run.segment_walls.clone());
        setups.push(run.setup_s);
        if check.is_ok() {
            check = run.check.clone();
        }
        let digest = engine_digest(&run.result);
        match &first {
            None => first = Some((run, digest)),
            Some((_, d)) if *d != digest && check.is_ok() => {
                check = Err("identical passes disagree on the simulated counters".into());
            }
            Some(_) => {}
        }
    }
    let (first, sim_digest) = first.expect("a run has at least one pass");
    Ok(EnginePasses {
        first,
        window_s: workloads::best_of_passes(&walls),
        setup_s: stats::min_of(setups),
        sim_digest,
        check,
    })
}

fn run_engine_workload(
    name: &str,
    spec: &EngineSpec,
    sizes: &Sizes,
    seed: u64,
    ladder: Option<&[Probe]>,
) -> Result<Outcome, String> {
    let untraced = run_engine_passes(spec, sizes, seed, false)?;
    let r = &untraced.first.result;
    let e2e = end_to_end(
        untraced.setup_s,
        untraced.wall_us_per_op(),
        r.tps,
        layers::write_amp(&r.device),
    );
    let mut check = untraced.check.clone();
    print_latency(&r.latency);

    let per_layer = match ladder {
        None => None,
        Some(ladder) => {
            let traced = run_engine_passes(spec, sizes, seed, true)?;
            let mut m = Metrics::default();
            for p in ladder {
                m.set(p.name, p.ns);
            }
            layers::engine_counters(&mut m, &untraced.first, untraced.window_s);
            let wall = untraced.wall_us_per_op();
            layers::traced_metrics(&mut m, &traced.first, traced.wall_us_per_op(), wall);
            let calls = CallsPerOp::of_engine(&m, &untraced.first);
            layers::wall_share_est(&mut m, &calls, ladder, wall);
            if check.is_ok() {
                check = traced.check.clone();
            }
            if check.is_ok() && traced.sim_digest != untraced.sim_digest {
                check =
                    Err("traced run's simulated counters differ from the untraced run's".into());
            }
            write_traced_artifacts(name, &traced.first);
            Some(m)
        }
    };
    Ok(Outcome {
        attempted: untraced.first.ops * sizes.passes as u64,
        check,
        end_to_end: e2e,
        per_layer,
        sim_digest: untraced.sim_digest,
        sim: engine_sim_json(r),
    })
}

/// Chrome trace of the controller's ring (simulated time, one track per
/// die — opens in Perfetto), the end-of-run `MetricsSnapshot`, and the
/// slowest measured transactions by host wall time.
fn write_traced_artifacts(name: &str, traced: &EngineRun) {
    let r = &traced.result;
    if !r.trace.is_empty() {
        write_artifact(
            &format!("{name}.chrome_trace.json"),
            &chrome_trace_json(&r.trace, name),
        );
    }
    write_artifact(&format!("{name}.metrics.json"), &r.metrics.to_json_string());
    let slow = layers::slowest_spans(traced.timed.measured_spans(), 64)
        .into_iter()
        .map(|(i, s)| {
            JsonValue::Obj(vec![
                ("tx".into(), num(i as f64)),
                ("start_us".into(), num(s.start_ns as f64 / 1e3)),
                ("wall_us".into(), num(s.dur_ns as f64 / 1e3)),
            ])
        })
        .collect();
    let spans = JsonValue::Obj(vec![
        (
            "load_wall_us".into(),
            num(traced.timed.load_span.map(|s| s.dur_ns).unwrap_or(0) as f64 / 1e3),
        ),
        (
            "warmup_calls".into(),
            num(traced.timed.warmup_spans().len() as f64),
        ),
        (
            "measured_calls".into(),
            num(traced.timed.measured_spans().len() as f64),
        ),
        ("slowest_measured".into(), JsonValue::Arr(slow)),
    ]);
    write_artifact(&format!("{name}.tx_spans.json"), &spans.render());
}

fn run_churn_workload(
    sizes: &Sizes,
    seed: u64,
    ladder: Option<&[Probe]>,
) -> Result<Outcome, String> {
    let run: ChurnRun = workloads::run_churn(sizes, seed)?;
    let first = &run.t2[0];
    let ops = first.ops;
    // Threaded simulated timing is approximate: the median pass stands
    // for the run.
    let mut sim_tps: Vec<f64> = run
        .t2
        .iter()
        .map(|r| r.ops as f64 / (r.sim_ns as f64 / 1e9))
        .collect();
    let best_t2 = ChurnRun::best_wall_ns(&run.t2) as f64;
    let e2e = end_to_end(
        // One pass's own set-up plus one verification twin, fastest each.
        stats::min_of(run.setup_s.iter().copied()) + stats::min_of(run.twin_s.iter().copied()),
        best_t2 / 1e3 / ops as f64,
        stats::median(&mut sim_tps),
        layers::write_amp(&first.device),
    );
    let per_layer = ladder.map(|ladder| {
        let mut m = Metrics::default();
        for p in ladder {
            m.set(p.name, p.ns);
        }
        layers::churn_counters(&mut m, &run);
        // The ladder's geometry (8 KiB pSLC, a sparse heap page) is not
        // churn's (2 KiB SLC, dense fill bytes): no estimate is made.
        m.set("unattributed.wall_share_est", 100.0);
        m
    });
    Ok(Outcome {
        attempted: ops * run.t2.len() as u64,
        check: run.check.clone(),
        end_to_end: e2e,
        per_layer,
        sim_digest: churn_digest(first),
        sim: JsonValue::Obj(vec![
            (
                "migrations_per_host_write".into(),
                num(first.device.migrations_per_host_write()),
            ),
            (
                "erases_per_host_write".into(),
                num(first.device.erases_per_host_write()),
            ),
            ("elapsed_s".into(), num(first.sim_ns as f64 / 1e9)),
            (
                "thread_speedup".into(),
                num(ChurnRun::best_wall_ns(&run.t1) as f64 / best_t2),
            ),
        ]),
    })
}

fn detail_file(workload: &str, trace: bool) -> String {
    format!("{workload}.t{}.json", trace as u8)
}

/// Run one workload in this process; the result line goes last.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::for_seconds(args.seconds)
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{}: seed {:#x}, {} s sizes{}, {} identical passes, trace {}, host cores {cores}",
        w.name,
        args.seed,
        args.seconds,
        if args.quick {
            " (QUICK: not for reporting)"
        } else {
            ""
        },
        match w.kind {
            Kind::Engine(_) => sizes.passes,
            Kind::Churn => sizes.churn_passes,
        },
        args.trace as u8,
    );
    let ladder = args.trace.then(|| {
        let ladder = probes::run_ladder(Effort::new(args.quick));
        print_ladder(&ladder);
        ladder
    });
    let outcome = match w.kind {
        Kind::Engine(spec) => {
            run_engine_workload(w.name, &spec, &sizes, args.seed, ladder.as_deref())
        }
        Kind::Churn => run_churn_workload(&sizes, args.seed, ladder.as_deref()),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            // Nothing was measured: no result line, non-zero exit.
            eprintln!("{}: {e}", w.name);
            return ExitCode::from(1);
        }
    };

    // A failed end-of-run check fails every op the run attempted.
    let correct = outcome.check.is_ok();
    let failed = if correct { 0 } else { outcome.attempted };
    match &outcome.check {
        Ok(()) => println!("  end-of-run check: passed"),
        Err(e) => println!("  end-of-run check: FAILED: {e}"),
    }
    println!("  sim_digest {:#018x}", outcome.sim_digest);
    println!("  end to end (tracing off):");
    report::print_metrics(&END_TO_END, &outcome.end_to_end);
    if let Some(m) = &outcome.per_layer {
        println!("  per layer (0 where the stack has no such layer):");
        report::print_metrics(&PER_LAYER, m);
    }
    println!(
        "  operations: {} attempted, {failed} failed",
        outcome.attempted
    );

    let e2e_json = report::metrics_json(&END_TO_END, &outcome.end_to_end);
    let layer_json = outcome
        .per_layer
        .as_ref()
        .map(|m| report::metrics_json(&PER_LAYER, m));
    let mut detail = vec![
        ("workload".into(), JsonValue::Str(w.name.into())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds as f64)),
        ("quick".into(), JsonValue::Bool(args.quick)),
        ("host_cores".into(), num(cores as f64)),
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), num(outcome.attempted as f64)),
        ("failed".into(), num(failed as f64)),
        (
            "sim_digest".into(),
            JsonValue::Str(format!("{:#018x}", outcome.sim_digest)),
        ),
        ("sim".into(), outcome.sim),
        ("end_to_end".into(), e2e_json.clone()),
    ];
    if let Some(layers) = &layer_json {
        detail.push(("per_layer".into(), layers.clone()));
    }
    write_artifact(
        &detail_file(w.name, args.trace),
        &JsonValue::Obj(detail).render(),
    );

    let metrics = if args.trace {
        layer_json.expect("traced runs report per-layer metrics")
    } else {
        e2e_json
    };
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, failed, metrics).render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_ladder(ladder: &[Probe]) {
    println!(
        "  probe ladder (median ns/call over {} batches; self cost = rung − rung below):",
        probes::BATCHES
    );
    for p in ladder {
        println!(
            "    {:<32} {:>12.1} ns  ({} calls)",
            p.name, p.ns, p.samples
        );
    }
}

/// Without `--workload`: every workload in a child process of its own
/// (so each `peak_rss_mb` is that workload's), untraced then traced; the
/// ledger is assembled from the children's result documents.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut entries = Vec::new();
    let (mut attempted, mut failed, mut all_ok) = (0u64, 0u64, true);
    for w in &WORKLOADS {
        let mut docs = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.arg(format!("--workload={}", w.name))
                .arg(format!("--seed={}", args.seed))
                .arg(format!("--seconds={}", args.seconds))
                .arg(format!("--trace={}", trace as u8));
            if args.quick {
                cmd.arg("--quick");
            }
            // `status` waits for the child to end.
            let ok = cmd.status().map(|s| s.success()).unwrap_or(false);
            let doc = std::fs::read_to_string(out_dir().join(detail_file(w.name, trace)))
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text));
            match (ok, doc) {
                (true, Ok(doc)) => docs.push(doc),
                (_, doc) => {
                    eprintln!(
                        "{} (trace {}) failed{}",
                        w.name,
                        trace as u8,
                        doc.err().map(|e| format!(": {e}")).unwrap_or_default()
                    );
                    all_ok = false;
                }
            }
        }
        let [untraced, traced] = docs.as_slice() else {
            continue;
        };
        let count = |key| untraced.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        let field = |doc: &JsonValue, key: &str| doc.get(key).cloned().unwrap_or(JsonValue::Null);
        entries.push((
            w.name.to_string(),
            JsonValue::Obj(vec![
                ("attempted".into(), field(untraced, "attempted")),
                ("failed".into(), field(untraced, "failed")),
                ("sim_digest".into(), field(untraced, "sim_digest")),
                ("sim".into(), field(untraced, "sim")),
                ("end_to_end".into(), field(untraced, "end_to_end")),
                ("per_layer".into(), field(traced, "per_layer")),
            ]),
        ));
    }

    let workloads_json = JsonValue::Obj(entries);
    println!("\n== ledger ==");
    print!("{:<16}", "");
    for w in &WORKLOADS {
        print!(" {:>18}", w.name);
    }
    println!();
    for d in &END_TO_END {
        print!("{:<16}", d.name);
        for w in &WORKLOADS {
            let v = workloads_json
                .get(w.name)
                .and_then(|e| e.get("end_to_end"))
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64);
            match v {
                Some(v) => print!(" {v:>18.4}"),
                None => print!(" {:>18}", "-"),
            }
        }
        println!(" {}", d.unit);
    }
    let paper = paper_check(&workloads_json);
    let ledger = JsonValue::Obj(vec![
        ("benchmark".into(), JsonValue::Str("ipa-perf-ledger".into())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds as f64)),
        ("quick".into(), JsonValue::Bool(args.quick)),
        (
            "host_cores".into(),
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("churn_threads".into(), num(CHURN_THREADS as f64)),
        ("workloads".into(), workloads_json),
        ("paper_check".into(), paper),
    ]);
    write_artifact("BENCH.json", &ledger.render());
    println!(
        "ledger written to {}",
        out_dir().join("BENCH.json").display()
    );

    let correct = all_ok && failed == 0;
    println!(
        "{}",
        report::result_line(
            correct,
            attempted.max(1),
            failed,
            JsonValue::Obj(Vec::new())
        )
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The paper's headline ratios from the chip pair, beside Table 1's.
/// Informational: the flash model has never been validated against
/// hardware, and Table 1 is the only reference there is.
fn paper_check(workloads: &JsonValue) -> JsonValue {
    let pick = |name: &str, path: &[&str]| {
        let mut v = workloads.get(name)?;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    let pair = |path: &[&str]| Some((pick("tpcb_chip_trad", path)?, pick("tpcb_chip_ipa", path)?));
    let change = |pair: Option<(f64, f64)>| {
        pair.filter(|(trad, _)| *trad != 0.0)
            .map(|(trad, ipa)| 100.0 * (ipa / trad - 1.0))
    };
    let rows = [
        (
            "tps",
            change(pair(&["end_to_end", "sim_tps", "value"])),
            46.0,
        ),
        (
            "migrations_per_host_write",
            change(pair(&["sim", "migrations_per_host_write"])),
            -75.0,
        ),
        (
            "erases_per_host_write",
            change(pair(&["sim", "erases_per_host_write"])),
            -53.0,
        ),
    ];
    println!("\n== paper check (not gated): tpcb_chip_ipa [2x4] pSLC over tpcb_chip_trad [0x0] ==");
    let mut out = Vec::new();
    for (name, ours, paper) in rows {
        match ours {
            Some(v) => println!("  {name:<28} {v:>+8.1} %   paper (Table 1, pSLC) {paper:>+6.1} %"),
            None => println!("  {name:<28} unavailable"),
        }
        out.push((
            name.to_string(),
            JsonValue::Obj(vec![
                ("ours_pct".into(), ours.map_or(JsonValue::Null, num)),
                ("paper_pct".into(), num(paper)),
            ]),
        ));
    }
    println!(
        "  The flash model is unvalidated against hardware; Table 1 (a two-hour \
         OpenSSD run) is the only reference, so no error figure is given."
    );
    JsonValue::Obj(out)
}

fn main() -> ExitCode {
    let names = workloads::workload_names();
    let args = match cli::parse(std::env::args().skip(1), &names) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.probes {
        print_ladder(&probes::run_ladder(Effort::new(args.quick)));
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(
            workloads::find(name).expect("the command line checked the name"),
            &args,
        ),
        None => run_all(&args),
    }
}
