//! Failure injection: the stack under hostile conditions — exhausted NOP
//! budgets, retired blocks, disturb storms, near-full devices and forced
//! unsafe appends.

use in_place_appends::controller::ControllerConfig;
use in_place_appends::core::DeltaRecord;
use in_place_appends::flash::FlashChip;
use in_place_appends::ftl::{
    BlockDevice, Ftl, FtlConfig, FtlError, NativeFlashDevice, ShardedFtl, StripePolicy,
};
use in_place_appends::prelude::*;
use in_place_appends::storage::standard_layout;
use ipa_testkit::quiet_slc;

#[test]
fn nop_exhaustion_falls_back_transparently() {
    // Device allows only 1 append per page; the engine must stay correct
    // by falling back to out-of-place writes once budgets run out.
    let device = DeviceConfig::small().with_nop(2); // initial program + 1 append
    let mut e = StorageEngine::build(
        device,
        EngineConfig::default()
            .with_ipa(NmScheme::new(4, 8))
            .with_buffer_frames(8),
        &[TableSpec::heap("t", 64, 64)],
    )
    .unwrap();
    let t = e.table("t").unwrap();
    let tx = e.begin();
    let mut rids = Vec::new();
    for k in 0..200u64 {
        let mut row = [0u8; 64];
        row[..8].copy_from_slice(&k.to_le_bytes());
        rids.push(e.insert(tx, t, &row).unwrap());
    }
    e.commit(tx).unwrap();
    e.flush_all().unwrap();

    // A few updates per page per flush cycle, so evictions produce
    // in-place verdicts; with NOP=2 only the first append per page
    // succeeds and every later one must fall back.
    let mut expect = vec![0u8; rids.len()];
    for round in 0..40u8 {
        for (k, rid) in rids.iter().enumerate() {
            if k % 20 == (round % 20) as usize {
                let tx = e.begin();
                e.update_field(tx, t, *rid, 16, &[round + 1]).unwrap();
                e.commit(tx).unwrap();
                expect[k] = round + 1;
            }
        }
        e.flush_all().unwrap();
    }
    let s = e.stats();
    assert!(s.pool.evict_in_place > 0, "some appends must succeed first");
    assert!(
        s.pool.in_place_fallbacks > 0,
        "NOP=2 must trigger fallbacks"
    );
    e.restart_clean().unwrap();
    for (k, rid) in rids.iter().enumerate() {
        assert_eq!(
            e.get(t, *rid).unwrap()[16],
            expect[k],
            "row {k} lost in fallback"
        );
    }
}

#[test]
fn retired_blocks_shrink_but_do_not_corrupt() {
    let mut cfg = quiet_slc(24, 8, 0);
    cfg.erase_endurance = 6; // blocks die after six erases
    let mut ftl = Ftl::new(FlashChip::new(cfg), FtlConfig::traditional());
    let data = vec![0x3Cu8; 2048];
    // Churn a small working set hard; blocks will start retiring.
    let mut writes = 0u64;
    for i in 0..3_000u64 {
        match ftl.write(i % 16, &data) {
            Ok(()) => writes += 1,
            Err(FtlError::DeviceFull) => break, // all spares eventually die
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(
        writes > 500,
        "device died implausibly early ({writes} writes)"
    );
    // Whatever is still mapped must read back intact.
    let mut buf = vec![0u8; 2048];
    for lba in 0..16u64 {
        if ftl.read(lba, &mut buf).is_ok() {
            assert!(buf.iter().all(|&b| b == 0x3C));
        }
    }
}

/// Run the §3 append storm — N×M deltas hammered into every page between
/// periodic rewrites — on the given flash mode, and count uncorrectable
/// reads. The `unsafe_ipa` override lets the storm run on modes the
/// safety policy would normally refuse. `mount` builds the device under
/// test over the storm's chip; it is handed back for inspection.
fn append_storm<D: NativeFlashDevice>(
    mode: FlashMode,
    unsafe_ipa: bool,
    mount: impl FnOnce(DeviceConfig, FtlConfig) -> D,
) -> (u64, D) {
    let scheme = NmScheme::new(8, 8);
    let layout = standard_layout(2048, scheme);
    let device = DeviceConfig::new(Geometry::new(32, 32, 2048, 128), mode)
        .with_nop(16)
        .with_seed(99);
    let config = if unsafe_ipa {
        FtlConfig::ipa_native(layout).with_unsafe_ipa()
    } else {
        FtlConfig::ipa_native(layout)
    };
    let mut ftl = mount(device, config);
    let blank = vec![0xFFu8; 2048];
    for lba in 0..32u64 {
        ftl.write(lba, &blank).unwrap();
    }
    let meta = vec![0u8; layout.meta_len()];
    let mut uncorrectable = 0u64;
    let mut buf = vec![0u8; 2048];
    'outer: for round in 0..60u16 {
        for lba in 0..32u64 {
            let slot = round % scheme.n;
            if slot == 0 && round > 0 {
                ftl.write(lba, &blank).unwrap();
            }
            let rec = DeltaRecord::new(vec![(40, 0)], meta.clone(), scheme);
            let res = ftl.write_delta(lba, layout.record_offset(slot), &rec.encode(&layout));
            if !unsafe_ipa {
                // On a safe mode every append must be accepted outright.
                res.unwrap();
            }
        }
        for lba in 0..32u64 {
            match ftl.read(lba, &mut buf) {
                Ok(()) => {}
                Err(FtlError::Uncorrectable { .. }) => {
                    uncorrectable += 1;
                    if uncorrectable > 3 {
                        break 'outer;
                    }
                    ftl.write(lba, &blank).unwrap();
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    (uncorrectable, ftl)
}

fn single_chip(device: DeviceConfig, config: FtlConfig) -> Ftl<FlashChip> {
    Ftl::new(FlashChip::new(device), config)
}

#[test]
fn forced_unsafe_appends_corrupt_data_eventually() {
    // The negative control for the paper's §3: running IPA on full-MLC
    // pages (explicitly overriding the safety policy) must produce
    // ECC-visible damage — otherwise our interference model is vacuous.
    assert!(
        append_storm(FlashMode::MlcFull, true, single_chip).0 > 0,
        "unsafe MLC appends must eventually defeat SECDED"
    );
}

#[test]
fn an_uncorrectable_read_surfaces_through_the_stripe() {
    // The same storm behind a controller: a read whose ECC fails on its
    // die comes back through the stripe as `Uncorrectable`.
    let (uncorrectable, _) = append_storm(FlashMode::MlcFull, true, |device, config| {
        let topology = ControllerConfig::new(1, 1, device);
        ShardedFtl::new(topology, config, StripePolicy::RoundRobin)
    });
    assert!(uncorrectable > 0, "no read failed");
}

#[test]
fn safe_modes_stay_clean_under_the_same_storm() {
    // Positive control: the identical append storm on pSLC produces zero
    // data loss.
    assert_eq!(append_storm(FlashMode::PSlc, false, single_chip).0, 0);
}

#[test]
fn table_region_exhaustion_is_a_clean_error() {
    let mut e = StorageEngine::build(
        DeviceConfig::small(),
        EngineConfig::default(),
        &[TableSpec::heap("tiny", 100, 2)],
    )
    .unwrap();
    let t = e.table("tiny").unwrap();
    let tx = e.begin();
    let mut inserted = 0;
    loop {
        match e.insert(tx, t, &[0u8; 100]) {
            Ok(_) => inserted += 1,
            Err(in_place_appends::storage::StorageError::TableFull(name)) => {
                assert_eq!(name, "tiny");
                break;
            }
            Err(err) => panic!("unexpected: {err}"),
        }
        assert!(inserted < 1_000, "TableFull never reported");
    }
    e.commit(tx).unwrap();
    assert!(inserted > 100, "two 8 KB pages hold well over 100 rows");
}
