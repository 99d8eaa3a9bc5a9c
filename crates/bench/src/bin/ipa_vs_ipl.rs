//! **Experiment E5 — IPA vs In-Page Logging (footnote 1 / §1).**
//!
//! *"IPA performs 23% to 62% less writes and 29% to 74% less erases as
//! compared to IPL on a range of OLTP workloads … IPL … doubling the read
//! load causes significant performance bottlenecks. In contrast, IPA does
//! not produce any additional read overhead."*
//!
//! Methodology mirrors the paper's footnote: a page-level trace
//! (fetch/evict events with net changed bytes) is recorded from a live
//! benchmark run, then replayed against the IPL store and the IPA stack on
//! identically configured flash.
//!
//! Usage: `cargo run --release -p ipa-bench --bin ipa_vs_ipl [--tx=6000] [--seed=N]`

use std::process::ExitCode;

use ipa_bench::experiments::{ipa_vs_ipl, RunError};
use ipa_bench::{flags, Args};
use ipa_workloads::WorkloadKind;

fn main() -> ExitCode {
    let a = Args::from_env(flags::IPA_VS_IPL);
    ipa_bench::exit_status(render(a.value("tx"), a.value("seed")).map(|()| true))
}

fn render(tx: u64, seed: u64) -> Result<(), RunError> {
    println!();
    println!("IPA vs In-Page Logging — trace replay on identical flash");
    ipa_bench::rule(116);
    println!(
        "{:<10}{:>9}{:>12}{:>12}{:>9}{:>12}{:>12}{:>9}{:>10}{:>10}{:>10}",
        "workload",
        "events",
        "IPL reads",
        "IPA reads",
        "Δr[%]",
        "IPL writes",
        "IPA writes",
        "Δw[%]",
        "IPL er.",
        "IPA er.",
        "Δe[%]"
    );
    ipa_bench::rule(116);

    for kind in [WorkloadKind::TpcB, WorkloadKind::TpcC, WorkloadKind::Tatp] {
        eprintln!("recording {} trace...", kind.name());
        let e5 = ipa_vs_ipl(kind, tx, seed)?;
        let (ipl, ipa) = (&e5.ipl, &e5.ipa);
        let d = |a: u64, b: u64| ipa_bench::fmt_pct(ipa_bench::pct(a as f64, b as f64));
        println!(
            "{:<10}{:>9}{:>12}{:>12}{:>9}{:>12}{:>12}{:>9}{:>10}{:>10}{:>10}",
            kind.name(),
            e5.events,
            ipl.flash_reads,
            ipa.flash_reads,
            d(ipa.flash_reads, ipl.flash_reads),
            ipl.flash_writes,
            ipa.flash_writes,
            d(ipa.flash_writes, ipl.flash_writes),
            ipl.flash_erases,
            ipa.flash_erases,
            d(ipa.flash_erases.max(1), ipl.flash_erases.max(1)),
        );
        eprintln!(
            "  (IPL detail: {} log-page reads, {} log-sector writes, {} merges)",
            e5.ipl_detail.log_page_reads, e5.ipl_detail.log_sector_writes, e5.ipl_detail.merges
        );
    }
    ipa_bench::rule(116);
    println!("paper: IPA does 23–62% fewer writes, 29–74% fewer erases, and adds no read");
    println!("overhead, while IPL reads data + log pages on every fetch.");
    Ok(())
}
