//! Run the complete paper reproduction in one command, in dependency
//! order, with one-line PASS/FAIL verdicts per experiment.
//!
//! Each check encodes the *shape* the paper reports (direction and rough
//! magnitude), not absolute counts; the rationale sits beside each check
//! below.
//!
//! Usage: `cargo run --release -p ipa-bench --bin repro_all [--secs=8] [--seed=N]`

use std::process::ExitCode;

use ipa_bench::experiments::{self, RunError};
use ipa_bench::{flags, Args, Verdict};
use ipa_flash::FlashMode;
use ipa_ftl::WriteStrategy;
use ipa_workloads::WorkloadKind;

fn main() -> ExitCode {
    let a = Args::from_env(flags::REPRO_ALL);
    let verdicts = verdicts(a.value("secs"), a.value("seed"));
    ipa_bench::exit_status(verdicts.map(|v| report(&v)))
}

/// One shape check: its name, whether it held, and the measured detail.
fn check(name: &str, pass: bool, detail: String) -> Verdict {
    Verdict::new(pass, format!("{name:<55} {detail}"))
}

/// Every shape check, each over the rows of one experiment core.
fn verdicts(secs: f64, seed: u64) -> Result<Vec<Verdict>, RunError> {
    // --- E1/E4: Table 1 + headline, TPC-B --------------------------------
    eprintln!("[1/4] Table 1 core comparison (TPC-B, {secs:.0}s simulated)...");
    let e1 = experiments::table1(1, secs, seed)?;
    let (base, pslc, odd) = (&e1.base, &e1.pslc, &e1.odd);
    let tput_pslc = pslc.tps / base.tps;
    let tput_odd = odd.tps / base.tps;
    let mig_rel = pslc.migrations_per_host_write() / base.migrations_per_host_write().max(1e-12);
    let mut verdicts = vec![
        check(
            "E1 throughput ordering (pSLC > odd-MLC > 0x0)",
            tput_pslc > tput_odd && tput_odd > 1.0,
            format!(
                "pSLC {:+.0}%, odd-MLC {:+.0}%",
                (tput_pslc - 1.0) * 100.0,
                (tput_odd - 1.0) * 100.0
            ),
        ),
        check(
            "E1 throughput gain magnitude (paper +46%)",
            tput_pslc > 1.20,
            format!("pSLC {:+.0}%", (tput_pslc - 1.0) * 100.0),
        ),
        check(
            "E1 GC migrations per host write drop (paper -75%)",
            mig_rel < 0.75,
            format!("{:+.0}%", (mig_rel - 1.0) * 100.0),
        ),
        check(
            "E1 in-place appends present in both IPA modes",
            pslc.device.in_place_appends > 0 && odd.device.in_place_appends > 0,
            format!(
                "pSLC {:.0}% / odd-MLC {:.0}% of update writes",
                pslc.device.in_place_fraction() * 100.0,
                odd.device.in_place_fraction() * 100.0
            ),
        ),
    ];

    // --- E2: Figure 1, the traditional pass ---------------------------------
    // Of fig1's workloads, only these three: LinkBench's evictions are
    // only ~53 % under 100 B at fig1's `--tx=300`, so it would fail E2.
    eprintln!("[2/4] Figure 1 write-amplification analysis...");
    let mut under100 = Vec::new();
    for kind in [WorkloadKind::TpcB, WorkloadKind::TpcC, WorkloadKind::Tatp] {
        let trad = experiments::net_writes(kind, WriteStrategy::Traditional, 2_500, seed)?;
        under100.push((kind, trad.hist.fraction_under_100b()));
    }
    verdicts.push(check(
        "E2 >70% of dirty evictions carry <100 net bytes",
        under100.iter().all(|(_, f)| *f > 0.70),
        under100
            .iter()
            .map(|(k, f)| format!("{} {:.0}%", k.name(), f * 100.0))
            .collect::<Vec<_>>()
            .join(", "),
    ));

    // --- E5: IPA vs IPL ----------------------------------------------------
    eprintln!("[3/4] IPA vs IPL trace replay (TATP)...");
    let e5 = experiments::ipa_vs_ipl(WorkloadKind::Tatp, 3_000, seed)?;
    let (ipl, ipa) = (&e5.ipl, &e5.ipa);
    verdicts.push(check(
        "E5 IPA fewer flash writes than IPL (paper 23-62%)",
        (ipa.flash_writes as f64) < ipl.flash_writes as f64 * 0.77,
        format!(
            "{} vs {} ({:+.0}%)",
            ipa.flash_writes,
            ipl.flash_writes,
            (ipa.flash_writes as f64 / ipl.flash_writes as f64 - 1.0) * 100.0
        ),
    ));
    verdicts.push(check(
        "E5 IPL read amplification, IPA none (paper: doubling reads)",
        ipl.flash_reads > 2 * ipa.flash_reads,
        format!(
            "IPL {} vs IPA {} flash reads",
            ipl.flash_reads, ipa.flash_reads
        ),
    ));

    // --- E7: interference ---------------------------------------------------
    eprintln!("[4/4] Interference safety matrix...");
    let e7 = |mode, forced| experiments::interference(mode, forced, 48);
    let uc_pslc = e7(FlashMode::PSlc, false)?.uncorrectable;
    let uc_odd = e7(FlashMode::OddMlc, false)?.uncorrectable;
    let mlc = e7(FlashMode::MlcFull, true)?;
    let (flips_mlc, uc_mlc) = (mlc.disturb_bits, mlc.uncorrectable);
    verdicts.push(check(
        "E7 pSLC and odd-MLC lose no data; forced full-MLC does",
        uc_pslc == 0 && uc_odd == 0 && uc_mlc > 0,
        format!(
            "uncorrectable: pSLC {uc_pslc}, odd-MLC {uc_odd}, full-MLC {uc_mlc} ({flips_mlc} flips)"
        ),
    ));
    Ok(verdicts)
}

/// Print the verdicts; whether every one held.
fn report(verdicts: &[Verdict]) -> bool {
    println!();
    println!("reproduction verdicts (shapes vs the paper):");
    ipa_bench::rule(100);
    for v in verdicts {
        println!("  [{}] {}", v.mark(), v.what);
    }
    ipa_bench::rule(100);
    let failed = verdicts.iter().filter(|v| !v.pass).count();
    if failed == 0 {
        println!("all {} shape checks passed.", verdicts.len());
    } else {
        println!("{failed} of {} shape checks FAILED.", verdicts.len());
    }
    failed == 0
}
