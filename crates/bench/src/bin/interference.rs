//! **Experiment E7 — §3: flash modes and program interference.**
//!
//! Runs the same append-heavy update stream under pSLC, odd-MLC and — with
//! the safety policy deliberately disabled — full-MLC IPA, and reports the
//! disturb-induced bit flips, ECC corrections and uncorrectable reads.
//! This is the experiment that turns the paper's "IPA on full MLC is
//! unsafe; use pSLC or odd-MLC" from an assertion into a measurement.
//!
//! Usage: `cargo run --release -p ipa-bench --bin interference [--rounds=300]`

use ipa_core::{DeltaRecord, NmScheme};
use ipa_flash::{DeviceConfig, FlashMode, Geometry};
use ipa_ftl::BlockDevice;
use ipa_ftl::{Ftl, FtlConfig, FtlError, NativeFlashDevice};
use ipa_storage::standard_layout;

struct Outcome {
    label: &'static str,
    appends: u64,
    rejected: u64,
    disturb_bits: u64,
    corrected_bits: u64,
    uncorrectable: u64,
}

fn run_mode(mode: FlashMode, force_unsafe: bool, rounds: u32) -> Outcome {
    let page_size = 8 * 1024;
    let scheme = NmScheme::new(8, 8); // roomy scheme: many appends per page
    let layout = standard_layout(page_size, scheme);
    let device = DeviceConfig::new(Geometry::new(64, 64, page_size, 256), mode)
        .with_nop(16)
        .with_seed(0xD15_7912B);
    let mut cfg = FtlConfig::ipa_native(layout);
    if force_unsafe {
        cfg = cfg.with_unsafe_ipa();
    }
    let mut ftl = Ftl::new(ipa_flash::FlashChip::new(device), cfg);

    // Populate neighbouring pages so disturb has victims.
    let lbas: u64 = 64;
    let blank = vec![0xFFu8; page_size];
    for lba in 0..lbas {
        ftl.write(lba, &blank).expect("populate");
    }

    let meta = vec![0u8; layout.meta_len()];
    let mut appends = 0u64;
    let mut rejected = 0u64;
    let mut uncorrectable = 0u64;
    let mut slot = vec![0u16; lbas as usize];
    let mut buf = vec![0u8; page_size];
    for round in 0..rounds {
        for lba in 0..lbas {
            let s = &mut slot[lba as usize];
            if *s == scheme.n {
                // Budget exhausted: rewrite out of place like the engine.
                ftl.write(lba, &blank).expect("rewrite");
                *s = 0;
            }
            let rec = DeltaRecord::new(
                vec![(layout.body_range().start as u16 + round as u16 % 64, 0)],
                meta.clone(),
                scheme,
            );
            match ftl.write_delta(lba, layout.record_offset(*s), &rec.encode(&layout)) {
                Ok(()) => {
                    appends += 1;
                    *s += 1;
                }
                Err(FtlError::InPlaceRejected { .. }) => {
                    rejected += 1;
                    ftl.write(lba, &blank).expect("fallback");
                    *s = 0;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // Periodic read-back sweep: this is where corruption shows up.
        if round % 16 == 15 {
            for lba in 0..lbas {
                match ftl.read(lba, &mut buf) {
                    Ok(()) => {}
                    Err(FtlError::Uncorrectable { .. }) => {
                        uncorrectable += 1;
                        // Scrub: rewrite so the experiment can continue.
                        ftl.write(lba, &blank).expect("scrub");
                        slot[lba as usize] = 0;
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }
    }
    let ds = ftl.device_stats();
    let fs = BlockDevice::flash_stats(&ftl);
    Outcome {
        label: match (mode, force_unsafe) {
            (FlashMode::PSlc, _) => "pSLC",
            (FlashMode::OddMlc, _) => "odd-MLC",
            (FlashMode::Tlc3d, _) => "3D-TLC (odd-LSB)",
            (FlashMode::MlcFull, true) => "full-MLC (forced)",
            _ => "other",
        },
        appends,
        rejected,
        disturb_bits: fs.disturb_bits_injected,
        corrected_bits: ds.ecc_corrected_bits,
        uncorrectable: uncorrectable + ds.uncorrectable_reads,
    }
}

fn main() {
    let rounds: u32 = ipa_bench::arg("rounds", 300);
    ipa_bench::reject_unasked_args();
    println!();
    println!("Program interference under IPA appends ({rounds} rounds x 64 pages)");
    ipa_bench::rule(104);
    println!(
        "{:<20}{:>12}{:>12}{:>16}{:>16}{:>16}",
        "mode", "appends", "rejected", "disturb bits", "ECC corrected", "uncorrectable"
    );
    ipa_bench::rule(104);
    for (mode, forced) in [
        (FlashMode::PSlc, false),
        (FlashMode::OddMlc, false),
        (FlashMode::Tlc3d, false),
        (FlashMode::MlcFull, true),
    ] {
        let o = run_mode(mode, forced, rounds);
        println!(
            "{:<20}{:>12}{:>12}{:>16}{:>16}{:>16}",
            o.label, o.appends, o.rejected, o.disturb_bits, o.corrected_bits, o.uncorrectable
        );
    }
    ipa_bench::rule(104);
    println!("paper (§3): pSLC is as disturb-tolerant as SLC; odd-MLC confines appends to LSB");
    println!("pages; re-programming MSB-coupled pages (full MLC) causes program interference —");
    println!("exactly the uncorrectable-error column above.");
}
