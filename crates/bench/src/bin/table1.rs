//! **Experiment E1 — Table 1 of the paper.**
//!
//! TPC-B for a fixed simulated duration under three configurations:
//! the traditional approach (`[0×0]`, no IPA), and IPA `[2×4]` in pSLC and
//! odd-MLC modes. Reports the paper's exact rows: host reads/writes, the
//! out-of-place/in-place split, GC page migrations and erases, the two
//! per-host-write ratios, and transactional throughput.
//!
//! Usage: `cargo run --release -p ipa-bench --bin table1 [--secs=20]
//! [--scale=1] [--seed=N]`

use std::process::ExitCode;

use ipa_bench::experiments::{self, Table1};
use ipa_bench::{flags, fmt_pct, grouped, pct, row, rule, Args};
use ipa_workloads::RunResult;

fn main() -> ExitCode {
    let a = Args::from_env(flags::TABLE1);
    let secs = a.value("secs");
    let e1 = experiments::table1(a.value("scale"), secs, a.value("seed"));
    ipa_bench::exit_status(e1.map(|t| print_table(secs, &t)).map(|()| true))
}

type Cell<'a> = &'a dyn Fn(&RunResult) -> String;

fn print_table(secs: f64, t: &Table1) {
    let (base, pslc, odd) = (&t.base, &t.pslc, &t.odd);
    let w = 34 + 5 * 16;
    println!();
    println!(
        "Table 1: TPC-B, {secs:.0} simulated seconds — traditional [0x0] vs IPA [2x4] \
         (pSLC, odd-MLC)"
    );
    rule(w);
    let heads = ["0x0", "2x4 pSLC", "rel [%]", "2x4 odd-MLC", "rel [%]"];
    row("", &heads.map(String::from));
    rule(w);

    // A row's cells: each stack's value, each IPA one followed by `rel`.
    let cells =
        |value: Cell, rel: Cell| [value(base), value(pslc), rel(pslc), value(odd), rel(odd)];
    let blank = |_: &RunResult| String::new();
    let abs_rel = |label: &str, f: &dyn Fn(&RunResult) -> u64| {
        let rel = |r: &RunResult| fmt_pct(pct(f(r) as f64, f(base) as f64));
        row(label, &cells(&|r| grouped(f(r)), &rel));
    };
    let ratio_row = |label: &str, f: &dyn Fn(&RunResult) -> f64| {
        let rel = |r: &RunResult| fmt_pct(pct(f(r), f(base)));
        row(label, &cells(&|r| format!("{:.4}", f(r)), &rel));
    };

    abs_rel("Host Reads", &|r| r.device.host_reads);
    abs_rel("Host Writes", &|r| r.device.total_host_writes());

    // The paper's "Out-of-Place Writes vs In-Place Appends" split row.
    let split = |r: &RunResult| {
        let total = r.device.out_of_place_writes + r.device.in_place_appends;
        if total == 0 {
            return "-".to_string();
        }
        format!(
            "{:.0}/{:.0}",
            r.device.out_of_place_writes as f64 / total as f64 * 100.0,
            r.device.in_place_appends as f64 / total as f64 * 100.0
        )
    };
    row("Out-of-Place vs In-Place [%]", &cells(&split, &blank));

    abs_rel("GC Page Migrations", &|r| r.device.gc_page_migrations);
    abs_rel("GC Erases", &|r| r.device.gc_erases);
    ratio_row(
        "Page Migrations per Host Write",
        &RunResult::migrations_per_host_write,
    );
    ratio_row(
        "GC Erases per Host Write",
        &RunResult::erases_per_host_write,
    );

    let latency =
        |r: &RunResult| format!("{}/{}", r.latency.p50_ns / 1000, r.latency.p99_ns / 1000);
    row("Tx latency p50 / p99 [us]", &cells(&latency, &blank));
    let tps = |r: &RunResult| format!("{:.0}", r.tps);
    let tps_rel = |r: &RunResult| fmt_pct(pct(r.tps, base.tps));
    row("Transactional Throughput [tps]", &cells(&tps, &tps_rel));
    rule(w);
    println!(
        "committed tx: 0x0={}, pSLC={}, odd-MLC={}",
        grouped(base.transactions),
        grouped(pslc.transactions),
        grouped(odd.transactions)
    );
    println!(
        "peak block wear (erases): 0x0={}, pSLC={}, odd-MLC={}",
        base.max_erase_count, pslc.max_erase_count, odd.max_erase_count
    );
    println!();
    println!("paper (2h on OpenSSD):   migrations -75% (pSLC) / -48% (odd-MLC); erases -53%/-52%;");
    println!(
        "                         throughput +46%/+20%; host reads +47%/+29% (time-boxed run)."
    );
}
