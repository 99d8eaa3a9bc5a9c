//! Run the complete paper reproduction in one command, in dependency
//! order, with one-line PASS/FAIL verdicts per experiment.
//!
//! Each check encodes the *shape* the paper reports (direction and rough
//! magnitude), not absolute counts; the rationale sits beside each check
//! below.
//!
//! Usage: `cargo run --release -p ipa-bench --bin repro_all [--secs=8]`

use ipa_core::NmScheme;
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
        name: "E1 GC migrations per host write drop (paper -83%)",
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
    let mut bench = ipa_workloads::build(WorkloadKind::Tatp, 1, 8192);
    let mut engine = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
        .build(bench.as_mut(), 8192, &DriverConfig::default())
        .expect("engine");
    engine.pool_mut().enable_tracing();
    let run_cfg = DriverConfig::default()
        .with_transactions(3_000)
        .with_seed(seed);
    Driver::run(bench.as_mut(), &mut engine, &run_cfg).expect("trace run");
    let trace = engine.pool_mut().take_trace();
    let device = || {
        ipa_flash::DeviceConfig::new(
            ipa_flash::Geometry::new(256, 128, 8192, 128),
            FlashMode::PSlc,
        )
        .with_disturb(ipa_flash::DisturbRates::none())
    };
    let (ipl, _) =
        ipa_ipl::replay_ipl(&trace, device(), ipa_ipl::IplConfig::default()).expect("IPL replay");
    let (ipa, _) = ipa_ipl::replay_ipa(&trace, device(), NmScheme::new(2, 4)).expect("IPA replay");
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
    // (reuse the bench binary's core; a condensed inline version)
    let probe = |mode: FlashMode, unsafe_ipa: bool| -> (u64, u64) {
        use ipa_core::DeltaRecord;
        use ipa_ftl::{BlockDevice, Ftl, FtlConfig, NativeFlashDevice};
        let layout = ipa_storage::standard_layout(8192, NmScheme::new(8, 8));
        let dc = ipa_flash::DeviceConfig::new(ipa_flash::Geometry::new(64, 64, 8192, 256), mode)
            .with_nop(16)
            .with_seed(seed);
        let mut cfg = FtlConfig::ipa_native(layout);
        if unsafe_ipa {
            cfg = cfg.with_unsafe_ipa();
        }
        let mut ftl = Ftl::new(ipa_flash::FlashChip::new(dc), cfg);
        let blank = vec![0xFFu8; 8192];
        for lba in 0..48u64 {
            ftl.write(lba, &blank).unwrap();
        }
        let meta = vec![0u8; layout.meta_len()];
        let mut buf = vec![0u8; 8192];
        let mut uncorrectable = 0u64;
        for round in 0..64u16 {
            for lba in 0..48u64 {
                let slot = round % 8;
                if slot == 0 && round > 0 {
                    ftl.write(lba, &blank).unwrap();
                }
                let rec = DeltaRecord::new(vec![], meta.clone(), layout.scheme);
                let _ = ftl.write_delta(lba, layout.record_offset(slot), &rec.encode(&layout));
            }
            if round % 8 == 7 {
                for lba in 0..48u64 {
                    match ftl.read(lba, &mut buf) {
                        Ok(()) => {}
                        Err(ipa_ftl::FtlError::Uncorrectable { .. }) => {
                            uncorrectable += 1;
                            ftl.write(lba, &blank).unwrap();
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }
        (
            BlockDevice::flash_stats(&ftl).disturb_bits_injected,
            uncorrectable,
        )
    };
    let (_, uc_pslc) = probe(FlashMode::PSlc, false);
    let (_, uc_odd) = probe(FlashMode::OddMlc, false);
    let (flips_mlc, uc_mlc) = probe(FlashMode::MlcFull, true);
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
