//! **Experiment E4 — the abstract's headline numbers.**
//!
//! *"Under standard update-intensive workloads we observed 67% less page
//! invalidations resulting in 80% lower garbage collection overhead, which
//! yields a 45% increase in transactional throughput, while doubling Flash
//! longevity at the same time."*
//!
//! For each OLTP workload this runs traditional vs IPA `[2×4]` (pSLC) for
//! the same simulated duration and reports exactly those four quantities.
//!
//! Usage: `cargo run --release -p ipa-bench --bin headline_claims [--secs=10] [--seed=N]`

use std::process::ExitCode;

use ipa_bench::experiments::{headline, RunError};
use ipa_bench::{flags, fmt_pct, pct, Args};
use ipa_workloads::{RunResult, WorkloadKind};

fn main() -> ExitCode {
    let a = Args::from_env(flags::HEADLINE_CLAIMS);
    ipa_bench::exit_status(render(a.value("secs"), a.value("seed")).map(|()| true))
}

fn render(secs: f64, seed: u64) -> Result<(), RunError> {
    println!();
    println!(
        "Headline claims (abstract): traditional (MLC) vs IPA [2x4] pSLC, {secs:.0} simulated seconds"
    );
    ipa_bench::rule(110);
    println!(
        "{:<12}{:>16}{:>18}{:>18}{:>16}{:>15}{:>15}",
        "workload",
        "invalidations",
        "GC overhead",
        "throughput",
        "longevity",
        "in-place [%]",
        "tx (t/i)"
    );
    ipa_bench::rule(110);

    for kind in [WorkloadKind::TpcB, WorkloadKind::TpcC, WorkloadKind::Tatp] {
        eprintln!("running {}...", kind.name());
        let (trad, ipa) = headline(kind, secs, seed)?;

        // Normalize per committed transaction (the runs commit different
        // counts in the fixed window).
        let per_tx = |v: u64, r: &RunResult| v as f64 / r.transactions.max(1) as f64;
        let gc = |r: &RunResult| per_tx(r.device.gc_page_migrations + r.device.gc_erases, r);
        // Longevity ∝ 1 / (erases per raw block per transaction): same
        // work, same silicon — how much later does the device wear out?
        let wear = |r: &RunResult| per_tx(r.flash.block_erases.max(1), r) / r.raw_blocks as f64;
        let inval = pct(
            per_tx(ipa.device.page_invalidations, &ipa),
            per_tx(trad.device.page_invalidations, &trad),
        );
        println!(
            "{:<12}{:>15}%{:>17}%{:>17}%{:>15.1}x{:>15.0}{:>15}",
            kind.name(),
            fmt_pct(inval),
            fmt_pct(pct(gc(&ipa), gc(&trad))),
            fmt_pct(pct(ipa.tps, trad.tps)),
            wear(&trad) / wear(&ipa).max(1e-18),
            ipa.device.in_place_fraction() * 100.0,
            format!("{}/{}", trad.transactions, ipa.transactions),
        );
    }
    ipa_bench::rule(110);
    println!("paper: -67% invalidations, -80% GC overhead, +45% throughput, ~2x longevity.");
    println!("(GC overhead = migrations + erases per committed transaction; longevity =");
    println!(" inverse erase rate per transaction.)");
    Ok(())
}
