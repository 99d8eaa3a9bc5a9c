//! The paper's demonstration (§4, Figures 4–5) as a CLI: pick a benchmark,
//! scale factor and duration, then run the three demo scenarios and
//! compare their I/O statistics — exactly what the audience did with the
//! GUI on the OpenSSD rig.
//!
//! * **Scenario 1 — Baseline**: traditional out-of-place writes, `[0×0]`.
//! * **Scenario 2 — IPA for conventional SSDs**: full-page writes through
//!   the block interface; the FTL detects overwrite-compatible images.
//! * **Scenario 3 — IPA for native flash**: the DBMS sends `write_delta`.
//!
//! Run: `cargo run --release --example demo_scenarios -- [tpcb|tpcc|tatp]
//! [scale] [secs]`

use in_place_appends::prelude::*;
use in_place_appends::workloads::RunResult;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = match args.get(1).map(String::as_str) {
        Some("tpcc") => WorkloadKind::TpcC,
        Some("tatp") => WorkloadKind::Tatp,
        Some("linkbench") => WorkloadKind::LinkBench,
        _ => WorkloadKind::TpcB,
    };
    let scale: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let secs: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(8.0);

    println!(
        "demo: {} at scale {scale}, {secs:.0} simulated seconds per scenario",
        kind.name()
    );
    println!("flash: simulated MLC in pSLC mode, [2x4] scheme for scenarios 2 and 3");
    println!();

    let cfg = DriverConfig::default().for_simulated_secs(secs);
    let scenarios = [
        (
            "1: baseline (out-of-place)",
            WriteStrategy::Traditional,
            NmScheme::disabled(),
        ),
        (
            "2: IPA, conventional SSD",
            WriteStrategy::IpaConventional,
            NmScheme::new(2, 4),
        ),
        (
            "3: IPA, native flash",
            WriteStrategy::IpaNative,
            NmScheme::new(2, 4),
        ),
    ];

    let mut results: Vec<(&str, RunResult)> = Vec::new();
    for (label, strategy, scheme) in scenarios {
        eprintln!("running scenario {label} ...");
        let spec = StackSpec::chip(strategy, scheme, FlashMode::PSlc);
        let r = Driver::run_spec(kind, scale, &spec, &cfg).expect("scenario run");
        results.push((label, r));
    }

    println!(
        "{:<30}{:>16}{:>16}{:>16}",
        "", "scenario 1", "scenario 2", "scenario 3"
    );
    let row = |label: &str, f: &dyn Fn(&RunResult) -> String| {
        println!(
            "{label:<30}{:>16}{:>16}{:>16}",
            f(&results[0].1),
            f(&results[1].1),
            f(&results[2].1)
        );
    };
    row("committed transactions", &|r| r.transactions.to_string());
    row("throughput [tps]", &|r| format!("{:.0}", r.tps));
    row("host reads", &|r| r.device.host_reads.to_string());
    row("host page writes", &|r| r.device.host_writes.to_string());
    row("write_delta commands", &|r| {
        r.device.host_write_deltas.to_string()
    });
    row("in-place appends", &|r| {
        r.device.in_place_appends.to_string()
    });
    row("page invalidations", &|r| {
        r.device.page_invalidations.to_string()
    });
    row("GC page migrations", &|r| {
        r.device.gc_page_migrations.to_string()
    });
    row("GC erases", &|r| r.device.gc_erases.to_string());
    row("MB sent to device", &|r| {
        format!("{:.1}", r.device.bytes_host_written as f64 / 1e6)
    });

    println!();
    println!("scenario 2 and 3 should show the same GC relief (both append in place);");
    println!("scenario 3 additionally slashes the transferred bytes via write_delta.");

    let s2 = &results[1].1.device;
    let s3 = &results[2].1.device;
    assert!(s2.in_place_appends > 0 && s3.in_place_appends > 0);
    assert!(s3.bytes_host_written < s2.bytes_host_written);
}
