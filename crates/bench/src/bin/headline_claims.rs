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
//! Usage: `cargo run --release -p ipa-bench --bin headline_claims [--secs=10]`

use ipa_flash::FlashMode;
use ipa_workloads::{Driver, DriverConfig, WorkloadKind};

fn main() {
    let secs: f64 = ipa_bench::arg("secs", 10.0);
    let seed: u64 = ipa_bench::arg("seed", 0x7C_B5EED);
    let cfg = DriverConfig::default()
        .with_seed(seed)
        .for_simulated_secs(secs);

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
        // Baseline: the same MLC silicon used the normal way (full
        // capacity, traditional out-of-place writes) — the paper's 0x0.
        let trad =
            Driver::run_spec(kind, 1, &ipa_bench::traditional_mlc(), &cfg).expect("traditional");
        let ipa =
            Driver::run_spec(kind, 1, &ipa_bench::ipa_2x4(FlashMode::PSlc), &cfg).expect("ipa");

        // Normalize per committed transaction (the runs commit different
        // counts in the fixed window).
        let per_tx = |v: u64, r: &ipa_workloads::RunResult| v as f64 / r.transactions.max(1) as f64;
        let inval = ipa_bench::pct(
            per_tx(ipa.device.page_invalidations, &ipa),
            per_tx(trad.device.page_invalidations, &trad),
        );
        let gc = ipa_bench::pct(
            per_tx(ipa.device.gc_page_migrations + ipa.device.gc_erases, &ipa),
            per_tx(
                trad.device.gc_page_migrations + trad.device.gc_erases,
                &trad,
            ),
        );
        let tput = ipa_bench::pct(ipa.tps, trad.tps);
        // Longevity ∝ 1 / (erases per raw block per transaction): same
        // work, same silicon — how much later does the device wear out?
        let wear_trad = per_tx(trad.flash.block_erases.max(1), &trad) / trad.raw_blocks as f64;
        let wear_ipa = per_tx(ipa.flash.block_erases.max(1), &ipa) / ipa.raw_blocks as f64;
        let longevity = wear_trad / wear_ipa.max(1e-18);
        let in_place = ipa.device.in_place_fraction() * 100.0;

        println!(
            "{:<12}{:>15}%{:>17}%{:>17}%{:>15.1}x{:>15.0}{:>15}",
            kind.name(),
            ipa_bench::fmt_pct(inval),
            ipa_bench::fmt_pct(gc),
            ipa_bench::fmt_pct(tput),
            longevity,
            in_place,
            format!("{}/{}", trad.transactions, ipa.transactions),
        );
    }
    ipa_bench::rule(110);
    println!("paper: -67% invalidations, -80% GC overhead, +45% throughput, ~2x longevity.");
    println!("(GC overhead = migrations + erases per committed transaction; longevity =");
    println!(" inverse erase rate per transaction.)");
}
