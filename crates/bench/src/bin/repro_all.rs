//! Run the complete paper reproduction in one command, in dependency
//! order, with one-line PASS/FAIL verdicts per experiment.
//!
//! Each check encodes the *shape* the paper reports (direction and rough
//! magnitude), not absolute counts; the rationale sits beside each check
//! below.
//!
//! Usage: `cargo run --release -p ipa-bench --bin repro_all [--secs=8] [--seed=N]`

use ipa_bench::experiments;
use ipa_flash::FlashMode;
use ipa_ftl::WriteStrategy;
use ipa_workloads::{Driver, DriverConfig, StackSpec, WorkloadKind};

struct Verdict {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn main() {
    let secs: f64 = ipa_bench::arg("secs", 8.0);
    let seed: u64 = ipa_bench::arg("seed", 0x7C_B5EED);
    ipa_bench::reject_unasked_args();
    let mut verdicts: Vec<Verdict> = Vec::new();

    // --- E1/E4: Table 1 + headline, TPC-B --------------------------------
    eprintln!("[1/4] Table 1 core comparison (TPC-B, {secs:.0}s simulated)...");
    let cfg = DriverConfig::default()
        .with_seed(seed)
        .for_simulated_secs(secs);
    let tpcb = |spec| Driver::run_spec(WorkloadKind::TpcB, 1, &spec, &cfg);
    let base = tpcb(ipa_bench::traditional_mlc()).expect("baseline");
    let pslc = tpcb(ipa_bench::ipa_2x4(FlashMode::PSlc)).expect("pSLC");
    let odd = tpcb(ipa_bench::ipa_2x4(FlashMode::OddMlc)).expect("odd-MLC");

    let tput_pslc = pslc.tps / base.tps;
    let tput_odd = odd.tps / base.tps;
    verdicts.push(Verdict {
        name: "E1 throughput ordering (pSLC > odd-MLC > 0x0)",
        pass: tput_pslc > tput_odd && tput_odd > 1.0,
        detail: format!(
            "pSLC {:+.0}%, odd-MLC {:+.0}%",
            (tput_pslc - 1.0) * 100.0,
            (tput_odd - 1.0) * 100.0
        ),
    });
    verdicts.push(Verdict {
        name: "E1 throughput gain magnitude (paper +46%)",
        pass: tput_pslc > 1.20,
        detail: format!("pSLC {:+.0}%", (tput_pslc - 1.0) * 100.0),
    });
    let mig_rel = pslc.migrations_per_host_write() / base.migrations_per_host_write().max(1e-12);
    verdicts.push(Verdict {
        name: "E1 GC migrations per host write drop (paper -75%)",
        pass: mig_rel < 0.75,
        detail: format!("{:+.0}%", (mig_rel - 1.0) * 100.0),
    });
    verdicts.push(Verdict {
        name: "E1 in-place appends present in both IPA modes",
        pass: pslc.device.in_place_appends > 0 && odd.device.in_place_appends > 0,
        detail: format!(
            "pSLC {:.0}% / odd-MLC {:.0}% of update writes",
            pslc.device.in_place_fraction() * 100.0,
            odd.device.in_place_fraction() * 100.0
        ),
    });

    // --- E2: Figure 1 -----------------------------------------------------
    eprintln!("[2/4] Figure 1 write-amplification analysis...");
    let mut under100 = Vec::new();
    for kind in [WorkloadKind::TpcB, WorkloadKind::TpcC, WorkloadKind::Tatp] {
        let mut bench = ipa_workloads::build(kind, 1, 8192);
        let mut engine = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
            .build(bench.as_mut(), 8192, &DriverConfig::default())
            .expect("engine");
        engine.pool_mut().enable_net_write_measurement();
        let run_cfg = DriverConfig::default()
            .with_transactions(2_500)
            .with_seed(seed);
        Driver::run(bench.as_mut(), &mut engine, &run_cfg).expect("run");
        under100.push((kind, engine.pool().stats().net_bytes.fraction_under_100b()));
    }
    verdicts.push(Verdict {
        name: "E2 >70% of dirty evictions carry <100 net bytes",
        pass: under100.iter().all(|(_, f)| *f > 0.70),
        detail: under100
            .iter()
            .map(|(k, f)| format!("{} {:.0}%", k.name(), f * 100.0))
            .collect::<Vec<_>>()
            .join(", "),
    });

    // --- E5: IPA vs IPL ----------------------------------------------------
    eprintln!("[3/4] IPA vs IPL trace replay (TATP)...");
    let e5 = experiments::ipa_vs_ipl(WorkloadKind::Tatp, 3_000, seed);
    let (ipl, ipa) = (&e5.ipl, &e5.ipa);
    verdicts.push(Verdict {
        name: "E5 IPA fewer flash writes than IPL (paper 23-62%)",
        pass: (ipa.flash_writes as f64) < ipl.flash_writes as f64 * 0.77,
        detail: format!(
            "{} vs {} ({:+.0}%)",
            ipa.flash_writes,
            ipl.flash_writes,
            (ipa.flash_writes as f64 / ipl.flash_writes as f64 - 1.0) * 100.0
        ),
    });
    verdicts.push(Verdict {
        name: "E5 IPL read amplification, IPA none (paper: doubling reads)",
        pass: ipl.flash_reads > 2 * ipa.flash_reads,
        detail: format!(
            "IPL {} vs IPA {} flash reads",
            ipl.flash_reads, ipa.flash_reads
        ),
    });

    // --- E7: interference ---------------------------------------------------
    eprintln!("[4/4] Interference safety matrix...");
    let e7 = |mode, forced| experiments::interference(mode, forced, 48);
    let uc_pslc = e7(FlashMode::PSlc, false).uncorrectable;
    let uc_odd = e7(FlashMode::OddMlc, false).uncorrectable;
    let mlc = e7(FlashMode::MlcFull, true);
    let (flips_mlc, uc_mlc) = (mlc.disturb_bits, mlc.uncorrectable);
    verdicts.push(Verdict {
        name: "E7 pSLC and odd-MLC lose no data; forced full-MLC does",
        pass: uc_pslc == 0 && uc_odd == 0 && uc_mlc > 0,
        detail: format!(
            "uncorrectable: pSLC {uc_pslc}, odd-MLC {uc_odd}, full-MLC {uc_mlc} ({flips_mlc} flips)"
        ),
    });

    // --- report --------------------------------------------------------------
    println!();
    println!("reproduction verdicts (shapes vs the paper):");
    ipa_bench::rule(100);
    let mut failed = 0;
    for v in &verdicts {
        println!(
            "  [{}] {:<55} {}",
            if v.pass { "PASS" } else { "FAIL" },
            v.name,
            v.detail
        );
        if !v.pass {
            failed += 1;
        }
    }
    ipa_bench::rule(100);
    if failed == 0 {
        println!("all {} shape checks passed.", verdicts.len());
    } else {
        println!("{failed} of {} shape checks FAILED.", verdicts.len());
        std::process::exit(1);
    }
}
