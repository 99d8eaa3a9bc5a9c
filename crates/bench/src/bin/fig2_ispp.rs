//! **Experiment E3 — Figure 2: ISPP and the erase-before-overwrite
//! principle.**
//!
//! Demonstrates, at cell level, the physics IPA is built on:
//!
//! 1. ISPP staircases — pulses needed per target level, and the resulting
//!    LSB/MSB program-latency asymmetry.
//! 2. Charge can only increase: appending into erased cells re-programs the
//!    wordline legally; lowering any cell's level is rejected.
//! 3. The byte-level `1 → 0` rule a controller enforces is exactly the
//!    cell-level rule (sampled here; proven exhaustively in the property
//!    tests).
//!
//! Usage: `cargo run --release -p ipa-bench --bin fig2_ispp`

use std::process::ExitCode;

use ipa_bench::experiments::fig2_ispp;
use ipa_bench::{flags, Args};
use ipa_flash::{CellType, IsppParams, ProgramKind};

fn main() -> ExitCode {
    Args::from_env(flags::NONE);
    ipa_bench::exit_status(fig2_ispp().map(|e3| render(&e3)).map(|()| true))
}

fn render(e3: &ipa_bench::experiments::Fig2) {
    println!();
    println!("Figure 2: ISPP staircases and in-place append legality");
    ipa_bench::rule(72);

    // --- staircase lengths and latencies -------------------------------
    for (name, params) in [("SLC", IsppParams::slc()), ("MLC", IsppParams::mlc())] {
        println!(
            "{name} ISPP: ΔVpgm = {:.2} V, pulse {} µs + verify {} µs",
            params.delta_v,
            params.t_pulse_ns / 1000,
            params.t_verify_ns / 1000
        );
        let levels = if name == "SLC" {
            CellType::Slc
        } else {
            CellType::Mlc
        }
        .levels();
        for level in 1..levels {
            println!(
                "  level {level} (Vt {:.1} V): {:>2} pulses",
                params.level_vt[level as usize],
                params.pulses_for_level(level)
            );
        }
    }
    let mlc = IsppParams::mlc();
    println!(
        "MLC page program latency: LSB {} µs, MSB {} µs  (fast-LSB/slow-MSB asymmetry)",
        mlc.program_latency_ns(ProgramKind::MlcLsb) / 1000,
        mlc.program_latency_ns(ProgramKind::MlcMsb) / 1000
    );

    // --- cell-level append legality -------------------------------------
    println!();
    println!("wordline of 8 SLC cells, programmed with byte 0xF0 (cells 0-3 charged):");
    println!("  levels after initial program: {:?}", e3.initial);
    println!(
        "  append 0x0F → 0x0D (one more cell): LEGAL, {} pulses, {} cell(s) programmed",
        e3.append.pulses, e3.append.cells_programmed
    );
    println!(
        "  overwrite 0x0F → 0x2F: REJECTED ({})",
        e3.overwrite_rejected
    );

    // --- chip-level demonstration ---------------------------------------
    println!();
    println!("chip-level (byte rule), 2 KB page:");
    println!("  programmed 1 KB of data, 1 KB left erased");
    println!(
        "  appended 100 B in place without erase: OK (program_count = {})",
        e3.program_count
    );
    println!(
        "  overwriting existing data: REJECTED ({})",
        e3.reprogram_rejected
    );
    println!("  after erase_block: page erased = {}", e3.erased);
    ipa_bench::rule(72);
    println!("paper: ISPP only adds charge; appends into unprogrammed cells need no erase.");
}
