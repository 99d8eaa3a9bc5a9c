//! **Ablation A2 — NOP (partial-program budget) sensitivity.**
//!
//! IPA needs the flash to tolerate re-programming a page N times between
//! erases. Datasheets guarantee small NOP values (SLC: 4); this sweep
//! shows how the in-place fraction and GC pressure degrade as the budget
//! shrinks — and that a NOP of 1 (initial program only) collapses IPA to
//! the traditional path via the rejection/fallback mechanism.
//!
//! Usage: `cargo run --release -p ipa-bench --bin nop_sweep [--secs=6] [--seed=N]`

use std::process::ExitCode;

use ipa_bench::experiments::{nop_budget, RunError};
use ipa_bench::{flags, Args};

fn main() -> ExitCode {
    let a = Args::from_env(flags::NOP_SWEEP);
    ipa_bench::exit_status(render(a.value("secs"), a.value("seed")).map(|()| true))
}

fn render(secs: f64, seed: u64) -> Result<(), RunError> {
    println!();
    println!("NOP sweep — TPC-B, IPA [4x4] native, pSLC, {secs:.0} simulated seconds");
    ipa_bench::rule(104);
    println!(
        "{:<8}{:>14}{:>16}{:>16}{:>14}{:>14}{:>14}",
        "NOP", "in-place [%]", "rejected appends", "invalid./tx", "erases/tx", "tps", "tx"
    );
    ipa_bench::rule(104);

    for nop in [1u16, 2, 3, 5, 9, 17] {
        let r = nop_budget(nop, secs, seed)?;
        println!(
            "{:<8}{:>14.0}{:>16}{:>16.4}{:>14.5}{:>14.0}{:>14}",
            nop,
            r.device.in_place_fraction() * 100.0,
            r.pool.in_place_fallbacks,
            r.device.page_invalidations as f64 / r.transactions.max(1) as f64,
            r.flash.block_erases as f64 / r.transactions.max(1) as f64,
            r.tps,
            r.transactions,
        );
    }
    ipa_bench::rule(104);
    println!("NOP=1 leaves no append budget (every write_delta is rejected); the curve");
    println!("saturates once NOP exceeds 1 + N, the scheme's own per-page append ceiling.");
    Ok(())
}
