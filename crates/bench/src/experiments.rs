//! Experiment cores shared by the per-experiment binaries and
//! `repro_all`: each binary prints its table from these, and `repro_all`
//! checks the same numbers against the paper's shapes.

use ipa_core::{DeltaRecord, NmScheme};
use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
use ipa_ftl::{BlockDevice, Ftl, FtlConfig, FtlError, NativeFlashDevice, WriteStrategy};
use ipa_ipl::{replay_ipa, replay_ipl, IplConfig, IplStats, ReplaySummary};
use ipa_storage::{standard_layout, TraceEvent};
use ipa_workloads::{build, Driver, DriverConfig, StackSpec, WorkloadKind};

/// One flash mode's row of experiment E7 (program interference).
pub struct InterferenceRow {
    pub label: &'static str,
    pub appends: u64,
    pub rejected: u64,
    pub disturb_bits: u64,
    pub corrected_bits: u64,
    pub uncorrectable: u64,
}

/// Experiment E7 for one flash mode: `rounds` rounds of one delta append
/// to each of 64 pages (rewritten out of place when a page's append
/// budget runs out or the FTL rejects the append), with a read-back
/// sweep every 16th round that counts and scrubs uncorrectable pages.
/// `force_unsafe` lifts the FTL's refusal to append on full MLC.
pub fn interference(mode: FlashMode, force_unsafe: bool, rounds: u32) -> InterferenceRow {
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
    let mut ftl = Ftl::new(FlashChip::new(device), cfg);

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
    InterferenceRow {
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

/// Experiment E5 for one workload: the page trace and both replays.
pub struct IplComparison {
    /// Fetch and evict events in the recorded trace.
    pub events: usize,
    pub ipl: ReplaySummary,
    pub ipa: ReplaySummary,
    pub ipl_detail: IplStats,
}

/// Experiment E5 for one workload: record the page-level trace of `tx`
/// transactions on the traditional pSLC stack, then replay it against the
/// IPL store and the 2×4 IPA stack on identically configured flash.
pub fn ipa_vs_ipl(kind: WorkloadKind, tx: u64, seed: u64) -> IplComparison {
    let page_size = 8 * 1024;
    let mut bench = build(kind, 1, page_size);
    let mut engine = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
        .build(bench.as_mut(), page_size, &DriverConfig::default())
        .expect("engine");
    engine.pool_mut().enable_tracing();
    let cfg = DriverConfig::default()
        .with_transactions(tx)
        .with_seed(seed);
    Driver::run(bench.as_mut(), &mut engine, &cfg).expect("trace run");
    let trace = engine.pool_mut().take_trace();

    // Replay on identically configured flash devices, sized to the
    // trace footprint (~45 % spare) so garbage collection is live in
    // both systems, as on the paper's mostly-full OpenSSD.
    // The engine's LBA space is sparse (per-table ranges); densify it
    // so the replay devices can be sized to the actual footprint.
    let mut lbas: Vec<u64> = trace
        .iter()
        .map(|e| match e {
            TraceEvent::Fetch { lba } => *lba,
            TraceEvent::Evict { lba, .. } => *lba,
        })
        .collect();
    lbas.sort_unstable();
    lbas.dedup();
    let remap: std::collections::HashMap<u64, u64> = lbas
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, i as u64))
        .collect();
    let trace: Vec<TraceEvent> = trace
        .into_iter()
        .map(|e| match e {
            TraceEvent::Fetch { lba } => TraceEvent::Fetch { lba: remap[&lba] },
            TraceEvent::Evict { lba, changed_bytes } => TraceEvent::Evict {
                lba: remap[&lba],
                changed_bytes,
            },
        })
        .collect();
    let blocks = ((lbas.len() as u64 * 29 / 10) / 64 + 8) as u32;
    let device = move || {
        DeviceConfig::new(Geometry::new(blocks, 128, page_size, 128), FlashMode::PSlc)
            .with_disturb(DisturbRates::none())
    };
    let (ipl, ipl_detail) = replay_ipl(&trace, device(), IplConfig::default()).expect("IPL replay");
    let (ipa, _) = replay_ipa(&trace, device(), NmScheme::new(2, 4)).expect("IPA replay");
    IplComparison {
        events: trace.len(),
        ipl,
        ipa,
        ipl_detail,
    }
}
