//! **Experiment E7 — §3: flash modes and program interference.**
//!
//! Runs the same append-heavy update stream under pSLC, odd-MLC and — with
//! the safety policy deliberately disabled — full-MLC IPA, and reports the
//! disturb-induced bit flips, ECC corrections and uncorrectable reads.
//! This is the experiment that turns the paper's "IPA on full MLC is
//! unsafe; use pSLC or odd-MLC" from an assertion into a measurement.
//!
//! Usage: `cargo run --release -p ipa-bench --bin interference [--rounds=300]`

use ipa_bench::experiments::interference;
use ipa_flash::FlashMode;

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
        let o = interference(mode, forced, rounds);
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
