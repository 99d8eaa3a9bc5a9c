//! **Ablation A1 — the N×M scheme sweep.**
//!
//! The delta-record area trades page capacity (space overhead per page)
//! against how many update cycles a page can absorb before an out-of-place
//! rewrite. This sweep runs TPC-B and TATP across schemes and reports the
//! space overhead, in-place fraction, GC pressure and throughput — showing
//! where bigger schemes stop paying.
//!
//! Usage: `cargo run --release -p ipa-bench --bin nm_sweep [--secs=6]`

use ipa_core::NmScheme;
use ipa_flash::FlashMode;
use ipa_ftl::WriteStrategy;
use ipa_storage::standard_layout;
use ipa_workloads::{Driver, DriverConfig, StackSpec, WorkloadKind};

fn main() {
    let secs: f64 = ipa_bench::arg("secs", 6.0);
    let seed: u64 = ipa_bench::arg("seed", 0x7C_B5EED);
    let cfg = DriverConfig::default()
        .with_seed(seed)
        .for_simulated_secs(secs);
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
            let strategy = if scheme.is_disabled() {
                WriteStrategy::Traditional
            } else {
                WriteStrategy::IpaNative
            };
            let spec = StackSpec::chip(strategy, scheme, FlashMode::PSlc);
            let r = Driver::run_spec(kind, 1, &spec, &cfg).expect("run");
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
}
