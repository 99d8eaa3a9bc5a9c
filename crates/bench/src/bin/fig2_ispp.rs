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

use ipa_flash::ispp::{simulate_wordline_program, slc_byte_to_levels};
use ipa_flash::{
    CellType, DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry, IsppParams, Ppa,
    ProgramKind,
};

fn main() {
    ipa_bench::reject_unasked_args();
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
    let slc = IsppParams::slc();
    let initial = slc_byte_to_levels(0x0F); // bits 7..4 = 0 → cells 0..3 programmed
    println!("  levels after initial program: {initial:?}");

    let append = slc_byte_to_levels(0x0D); // additionally program one erased cell
    let trace = simulate_wordline_program(&slc, &initial, &append).expect("legal append");
    println!(
        "  append 0x0F → 0x0D (one more cell): LEGAL, {} pulses, {} cell(s) programmed",
        trace.pulses, trace.cells_programmed
    );

    let illegal = slc_byte_to_levels(0x2F); // requires discharging a cell
    match simulate_wordline_program(&slc, &initial, &illegal) {
        Err(e) => println!("  overwrite 0x0F → 0x2F: REJECTED ({e})"),
        Ok(_) => unreachable!("charge decrease must be rejected"),
    }

    // --- chip-level demonstration ---------------------------------------
    println!();
    println!("chip-level (byte rule), 2 KB page:");
    let mut chip = FlashChip::new(
        DeviceConfig::new(Geometry::tiny(), FlashMode::Slc).with_disturb(DisturbRates::none()),
    );
    let ppa = Ppa::new(0, 0);
    let mut page = vec![0xFF; 2048];
    page[..1024].fill(0x5A);
    let oob = vec![0xFF; 64];
    chip.program_page(ppa, &page, &oob).unwrap();
    println!("  programmed 1 KB of data, 1 KB left erased");

    let mut appended = page.clone();
    appended[1024..1124].fill(0x33);
    chip.reprogram_page(ppa, &appended, &oob).unwrap();
    println!(
        "  appended 100 B in place without erase: OK (program_count = {})",
        chip.program_count(ppa).unwrap()
    );

    let mut conflicting = appended.clone();
    conflicting[0] = 0xFF; // 0x5A → 0xFF needs 0→1 transitions
    match chip.reprogram_page(ppa, &conflicting, &oob) {
        Err(e) => println!("  overwriting existing data: REJECTED ({e})"),
        Ok(()) => unreachable!(),
    }

    chip.erase_block(0).unwrap();
    println!(
        "  after erase_block: page erased = {}",
        chip.is_erased(ppa).unwrap()
    );
    ipa_bench::rule(72);
    println!("paper: ISPP only adds charge; appends into unprogrammed cells need no erase.");
}
