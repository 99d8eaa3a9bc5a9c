//! **Experiment E6 — Figure 3: the IPA page format and OOB ECC layout.**
//!
//! Verifies the paper's sizing formula `delta-area = N × (1 + 3M +
//! Δmetadata)` across configurations, walks one page through the full
//! lifecycle (format → update → delta append → reconstruction) and prints
//! the OOB layout with its `ECC_initial … ECC_delta_rec` codewords.
//!
//! Usage: `cargo run --release -p ipa-bench --bin fig3_layout`

use ipa_core::{apply_and_collect, scan_records, ChangeTracker, NmScheme};
use ipa_ftl::OobCodec;
use ipa_storage::standard_layout;

fn main() {
    ipa_bench::reject_unasked_args();
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
    let mut page = vec![0u8; page_size];
    for (i, b) in page.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    layout.wipe_delta_area(&mut page);
    let flash_image = page.clone(); // as written out-of-place

    // Buffered updates: 3 body bytes + header LSN.
    let mut tracker = ChangeTracker::new(layout, Vec::new());
    let mut buffered = page.clone();
    for (off, val) in [(100usize, 0xAAu8), (101, 0xBB), (5000, 0xCC)] {
        tracker.record_write(off, buffered[off], val);
        buffered[off] = val;
    }
    tracker.record_write(4, buffered[4], 0x99);
    buffered[4] = 0x99;
    println!(
        "  tracked: {} body bytes + metadata, verdict {:?}",
        tracker.changed_body_bytes(),
        tracker.verdict()
    );

    let records = tracker.build_new_records(&buffered);
    println!(
        "  built {} delta record(s), {} pairs in record 0",
        records.len(),
        records[0].pairs.len()
    );

    // Append onto the flash image (what write_delta does device-side).
    let mut on_flash = flash_image.clone();
    ipa_core::write_record_into(&mut on_flash, &layout, 0, &records[0]);
    let legal = on_flash
        .iter()
        .zip(&flash_image)
        .all(|(&n2, &o)| n2 & !o == 0);
    println!("  append is a legal 1→0 overwrite of the stored page: {legal}");

    // Fetch-time reconstruction.
    let mut fetched = on_flash.clone();
    let recs = apply_and_collect(&mut fetched, &layout);
    println!(
        "  reconstruction applied {} record(s); body matches buffer: {}; LSN byte: {}",
        recs.len(),
        fetched[layout.body_range()] == buffered[layout.body_range()],
        fetched[4] == 0x99,
    );
    assert_eq!(
        scan_records(&fetched, &layout).len(),
        0,
        "area wiped after apply"
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
