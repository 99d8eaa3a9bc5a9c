//! **Ablation A1 — the N×M scheme sweep.**
//!
//! The delta-record area trades page capacity (space overhead per page)
//! against how many update cycles a page can absorb before an out-of-place
//! rewrite. This sweep runs TPC-B and TATP across schemes and reports the
//! space overhead, in-place fraction, GC pressure and throughput — showing
//! where bigger schemes stop paying.
//!
//! Usage: `cargo run --release -p ipa-bench --bin nm_sweep [--secs=6] [--seed=N]`

use std::process::ExitCode;

use ipa_bench::experiments::{nm_scheme, RunError};
use ipa_bench::{flags, Args};
use ipa_core::NmScheme;
use ipa_storage::standard_layout;
use ipa_workloads::WorkloadKind;

fn main() -> ExitCode {
    let a = Args::from_env(flags::NM_SWEEP);
    ipa_bench::exit_status(render(a.value("secs"), a.value("seed")).map(|()| true))
}

fn render(secs: f64, seed: u64) -> Result<(), RunError> {
    let schemes = [
        NmScheme::disabled(),
        NmScheme::new(1, 4),
        NmScheme::new(2, 4),
        NmScheme::new(2, 8),
        NmScheme::new(4, 8),
        NmScheme::new(8, 8),
        NmScheme::new(8, 16),
    ];

    for kind in [WorkloadKind::TpcB, WorkloadKind::Tatp] {
        println!();
        println!(
            "N x M sweep — {} , IPA native, pSLC, {secs:.0} simulated seconds",
            kind.name()
        );
        ipa_bench::rule(108);
        println!(
            "{:<10}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}",
            "scheme",
            "area [B]",
            "in-place [%]",
            "invalid./tx",
            "erases/tx",
            "tps",
            "Δtps [%]",
            "tx"
        );
        ipa_bench::rule(108);
        let mut base_tps = None;
        for scheme in schemes {
            let r = nm_scheme(kind, scheme, secs, seed)?;
            let area = if scheme.is_disabled() {
                0
            } else {
                standard_layout(8 * 1024, scheme).delta_area_len()
            };
            let tps0 = *base_tps.get_or_insert(r.tps);
            println!(
                "{:<10}{:>14}{:>14.0}{:>14.4}{:>14.5}{:>14.0}{:>14}{:>14}",
                scheme.to_string(),
                area,
                r.device.in_place_fraction() * 100.0,
                r.device.page_invalidations as f64 / r.transactions.max(1) as f64,
                r.flash.block_erases as f64 / r.transactions.max(1) as f64,
                r.tps,
                ipa_bench::fmt_pct(ipa_bench::pct(r.tps, tps0)),
                r.transactions,
            );
        }
        ipa_bench::rule(108);
    }
    println!("expected shape: gains rise quickly with small schemes, then flatten while the");
    println!("space overhead keeps growing — the paper's [2x4] sits at the knee for TPC-B.");
    Ok(())
}
