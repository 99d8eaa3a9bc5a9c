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

use ipa_bench::{fmt_pct, grouped, pct, row, rule};
use ipa_flash::FlashMode;
use ipa_workloads::{Driver, DriverConfig, RunResult, WorkloadKind};

fn main() {
    let secs: f64 = ipa_bench::arg("secs", 20.0);
    let scale: u32 = ipa_bench::arg("scale", 1);
    let seed: u64 = ipa_bench::arg("seed", 0x7C_B5EED);
    ipa_bench::reject_unasked_args();

    let cfg = DriverConfig::default()
        .with_seed(seed)
        .for_simulated_secs(secs);

    eprintln!("running [0x0] traditional baseline (MLC, full capacity)...");
    let tpcb = |spec| Driver::run_spec(WorkloadKind::TpcB, scale, &spec, &cfg);
    let base = tpcb(ipa_bench::traditional_mlc()).expect("baseline run");

    eprintln!("running [2x4] IPA, pSLC mode...");
    let pslc = tpcb(ipa_bench::ipa_2x4(FlashMode::PSlc)).expect("pSLC run");

    eprintln!("running [2x4] IPA, odd-MLC mode...");
    let odd = tpcb(ipa_bench::ipa_2x4(FlashMode::OddMlc)).expect("odd-MLC run");

    print_table(secs, &base, &pslc, &odd);
}

fn print_table(secs: f64, base: &RunResult, pslc: &RunResult, odd: &RunResult) {
    let w = 34 + 5 * 16;
    println!();
    println!(
        "Table 1: TPC-B, {secs:.0} simulated seconds — traditional [0x0] vs IPA [2x4] \
         (pSLC, odd-MLC)"
    );
    rule(w);
    row(
        "",
        &[
            "0x0".into(),
            "2x4 pSLC".into(),
            "rel [%]".into(),
            "2x4 odd-MLC".into(),
            "rel [%]".into(),
        ],
    );
    rule(w);

    let abs_rel = |label: &str, f: &dyn Fn(&RunResult) -> u64| {
        row(
            label,
            &[
                grouped(f(base)),
                grouped(f(pslc)),
                fmt_pct(pct(f(pslc) as f64, f(base) as f64)),
                grouped(f(odd)),
                fmt_pct(pct(f(odd) as f64, f(base) as f64)),
            ],
        );
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
    row(
        "Out-of-Place vs In-Place [%]",
        &[split(base), split(pslc), "".into(), split(odd), "".into()],
    );

    abs_rel("GC Page Migrations", &|r| r.device.gc_page_migrations);
    abs_rel("GC Erases", &|r| r.device.gc_erases);

    let ratio_row = |label: &str, f: &dyn Fn(&RunResult) -> f64| {
        row(
            label,
            &[
                format!("{:.4}", f(base)),
                format!("{:.4}", f(pslc)),
                fmt_pct(pct(f(pslc), f(base))),
                format!("{:.4}", f(odd)),
                fmt_pct(pct(f(odd), f(base))),
            ],
        );
    };
    ratio_row("Page Migrations per Host Write", &|r| {
        r.migrations_per_host_write()
    });
    ratio_row("GC Erases per Host Write", &|r| r.erases_per_host_write());

    row(
        "Tx latency p50 / p99 [us]",
        &[
            format!(
                "{}/{}",
                base.latency.p50_ns / 1000,
                base.latency.p99_ns / 1000
            ),
            format!(
                "{}/{}",
                pslc.latency.p50_ns / 1000,
                pslc.latency.p99_ns / 1000
            ),
            "".into(),
            format!(
                "{}/{}",
                odd.latency.p50_ns / 1000,
                odd.latency.p99_ns / 1000
            ),
            "".into(),
        ],
    );
    row(
        "Transactional Throughput [tps]",
        &[
            format!("{:.0}", base.tps),
            format!("{:.0}", pslc.tps),
            fmt_pct(pct(pslc.tps, base.tps)),
            format!("{:.0}", odd.tps),
            fmt_pct(pct(odd.tps, base.tps)),
        ],
    );
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
