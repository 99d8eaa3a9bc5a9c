//! **Experiment E6 — Figure 3: the IPA page format and OOB ECC layout.**
//!
//! Verifies the paper's sizing formula `delta-area = N × (1 + 3M +
//! Δmetadata)` across configurations, walks one page through the full
//! lifecycle (format → update → delta append → reconstruction) and prints
//! the OOB layout with its `ECC_initial … ECC_delta_rec` codewords.
//!
//! Usage: `cargo run --release -p ipa-bench --bin fig3_layout`

use std::process::ExitCode;

use ipa_bench::experiments::{fig3_layout, Fig3};
use ipa_bench::{flags, Args};
use ipa_core::NmScheme;
use ipa_ftl::OobCodec;
use ipa_storage::standard_layout;

fn main() -> ExitCode {
    Args::from_env(flags::NONE);
    ipa_bench::exit_status(fig3_layout().map(|e6| render(&e6)).map(|()| true))
}

fn render(e6: &Fig3) {
    let page_size = 8 * 1024;
    println!();
    println!("Figure 3: IPA page layout — delta-record area sizing, 8 KB page");
    ipa_bench::rule(86);
    println!(
        "{:<10}{:>14}{:>16}{:>16}{:>14}{:>16}",
        "scheme", "record [B]", "area [B]", "area [%page]", "body [B]", "OOB need [B]"
    );
    ipa_bench::rule(86);
    for (n, m) in [
        (1u16, 4u16),
        (2, 4),
        (2, 8),
        (4, 4),
        (4, 8),
        (8, 8),
        (8, 16),
    ] {
        let scheme = NmScheme::new(n, m);
        let layout = standard_layout(page_size, scheme);
        let codec = OobCodec::new(page_size, 512, Some(layout));
        let oob_need = codec.record_oob_offset(scheme.n - 1) + 4;
        println!(
            "{:<10}{:>14}{:>16}{:>16.2}{:>14}{:>16}",
            scheme.to_string(),
            layout.record_size(),
            layout.delta_area_len(),
            layout.delta_area_len() as f64 / page_size as f64 * 100.0,
            layout.body_range().len(),
            oob_need,
        );
    }
    ipa_bench::rule(86);
    println!("formula check, [2x4], Δmetadata = 40 B (32 header + 8 footer):");
    let layout = standard_layout(page_size, NmScheme::new(2, 4));
    println!(
        "  record = 1 + 3·4 + 40 = {}   area = 2 × {} = {}",
        layout.record_size(),
        layout.record_size(),
        layout.delta_area_len()
    );

    // --- page lifecycle round trip --------------------------------------
    println!();
    println!("page lifecycle round trip ([2x4]):");
    println!(
        "  tracked: {} body bytes + metadata, verdict {:?}",
        e6.tracked_body_bytes, e6.verdict
    );
    println!(
        "  built {} delta record(s), {} pairs in record 0",
        e6.records, e6.pairs_in_first
    );
    println!(
        "  append is a legal 1→0 overwrite of the stored page: {}",
        e6.legal
    );
    println!(
        "  reconstruction applied {} record(s); body matches buffer: {}; LSN byte: {}",
        e6.applied, e6.body_matches, e6.lsn_matches,
    );

    // --- OOB layout ------------------------------------------------------
    println!();
    println!("OOB layout (128 B), [2x4] on 8 KB page:");
    let codec = OobCodec::new(page_size, 128, Some(layout));
    let initial_cw = (page_size - layout.delta_area_len()).div_ceil(512);
    println!(
        "  ECC_initial  : bytes 0..{}   ({} codewords × 4 B, covers page minus delta area)",
        initial_cw * 4,
        initial_cw
    );
    for i in 0..2u16 {
        println!(
            "  ECC_delta_rec {}: bytes {}..{} (covers record slot {} alone)",
            i,
            codec.record_oob_offset(i),
            codec.record_oob_offset(i) + 4,
            i
        );
    }
    ipa_bench::rule(86);
    println!("paper: delta-record area = N × (1 + 3M + Δmetadata); per-record ECC in OOB.");
}
