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
//! Usage: `cargo run --release -p ipa-bench --bin ipa_vs_ipl [--tx=6000]`

use ipa_core::NmScheme;
use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
use ipa_ftl::WriteStrategy;
use ipa_ipl::{replay_ipa, replay_ipl, IplConfig};
use ipa_workloads::{build, Driver, DriverConfig, StackSpec, WorkloadKind};

fn main() {
    let tx: u64 = ipa_bench::arg("tx", 6_000);
    let seed: u64 = ipa_bench::arg("seed", 0x7C_B5EED);
    let page_size = 8 * 1024;

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
        // Record the page-level trace from a traditional-strategy run.
        let mut bench = build(kind, 1, page_size);
        let mut engine = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
            .build(bench.as_mut(), page_size, &DriverConfig::default())
            .expect("engine");
        engine.pool_mut().enable_tracing();
        let cfg = DriverConfig::default()
            .with_transactions(tx)
            .with_seed(seed);
        Driver::run(bench.as_mut(), &mut engine, &cfg).expect("trace run");
        let trace = engine.pool_mut().take_trace();

        // Replay on identically configured flash devices, sized to the
        // trace footprint (~45 % spare) so garbage collection is live in
        // both systems, as on the paper's mostly-full OpenSSD.
        // The engine's LBA space is sparse (per-table ranges); densify it
        // so the replay devices can be sized to the actual footprint.
        let mut lbas: Vec<u64> = trace
            .iter()
            .map(|e| match e {
                ipa_storage::TraceEvent::Fetch { lba } => *lba,
                ipa_storage::TraceEvent::Evict { lba, .. } => *lba,
            })
            .collect();
        lbas.sort_unstable();
        lbas.dedup();
        let remap: std::collections::HashMap<u64, u64> = lbas
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as u64))
            .collect();
        let trace: Vec<ipa_storage::TraceEvent> = trace
            .into_iter()
            .map(|e| match e {
                ipa_storage::TraceEvent::Fetch { lba } => {
                    ipa_storage::TraceEvent::Fetch { lba: remap[&lba] }
                }
                ipa_storage::TraceEvent::Evict { lba, changed_bytes } => {
                    ipa_storage::TraceEvent::Evict {
                        lba: remap[&lba],
                        changed_bytes,
                    }
                }
            })
            .collect();
        let blocks = ((lbas.len() as u64 * 29 / 10) / 64 + 8) as u32;
        let device = move || {
            DeviceConfig::new(Geometry::new(blocks, 128, page_size, 128), FlashMode::PSlc)
                .with_disturb(DisturbRates::none())
        };
        let (ipl, ipl_stats) =
            replay_ipl(&trace, device(), IplConfig::default()).expect("IPL replay");
        let (ipa, _) = replay_ipa(&trace, device(), NmScheme::new(2, 4)).expect("IPA replay");

        let d = |a: u64, b: u64| ipa_bench::fmt_pct(ipa_bench::pct(a as f64, b as f64));
        println!(
            "{:<10}{:>9}{:>12}{:>12}{:>9}{:>12}{:>12}{:>9}{:>10}{:>10}{:>10}",
            kind.name(),
            trace.len(),
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
            ipl_stats.log_page_reads, ipl_stats.log_sector_writes, ipl_stats.merges
        );
    }
    ipa_bench::rule(116);
    println!("paper: IPA does 23–62% fewer writes, 29–74% fewer erases, and adds no read");
    println!("overhead, while IPL reads data + log pages on every fetch.");
}
