//! Experiment cores: every paper experiment computes here and returns
//! typed rows, or a [`RunError`] naming the experiment, workload and stack
//! that failed. Each binary renders its table from these rows, and
//! `repro_all` checks the same rows against the paper's shapes.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Display;

use ipa_core::{apply_and_collect, scan_records, ChangeTracker, DeltaRecord, IpaVerdict, NmScheme};
use ipa_flash::ispp::{simulate_wordline_program, slc_byte_to_levels, IsppTrace};
use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry, IsppParams, Ppa};
use ipa_ftl::{BlockDevice, Ftl, FtlConfig, FtlError, NativeFlashDevice, WriteStrategy};
use ipa_ipl::{replay_ipa, replay_ipl, IplConfig, IplStats, ReplaySummary};
use ipa_storage::{standard_layout, EngineConfig, NetBytesHistogram, StorageEngine, TraceEvent};
use ipa_workloads::{build, Driver, DriverConfig, RunResult, StackSpec, WorkloadKind};

use crate::{ipa_2x4, traditional_mlc};

/// DBMS page size of every experiment (the paper's 8 KiB).
const PAGE_SIZE: usize = 8 * 1024;

/// A run that failed: what ran, and the error its stack returned.
#[derive(Debug)]
pub struct RunError(String);

impl Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl RunError {
    /// A `map_err` adapter: the error, prefixed with `what` ran.
    pub fn at<E: Display>(what: impl Display) -> impl FnOnce(E) -> RunError {
        move |e| RunError(format!("{what}: {e}"))
    }
}

/// A stack as an error names it: write path, scheme, flash mode and,
/// when striped, topology and maintenance.
fn stack_name(spec: &StackSpec) -> String {
    let chip = format!("{:?} {} {:?}", spec.strategy, spec.scheme, spec.mode);
    match spec.topology {
        Some(topology) => format!("{chip} on {topology} {}", spec.maint),
        None => chip,
    }
}

/// [`Driver::run_spec`], with `experiment`, the workload and the stack
/// named in its error.
pub fn run(
    experiment: &str,
    kind: WorkloadKind,
    scale: u32,
    spec: &StackSpec,
    cfg: &DriverConfig,
) -> Result<RunResult, RunError> {
    let what = format!("{experiment}: {} on {}", kind.name(), stack_name(spec));
    Driver::run_spec(kind, scale, spec, cfg).map_err(RunError::at(what))
}

fn for_secs(secs: f64, seed: u64) -> DriverConfig {
    DriverConfig::default()
        .with_seed(seed)
        .for_simulated_secs(secs)
}

/// Experiment E1 (Table 1): TPC-B for the same simulated seconds on the
/// traditional `[0×0]` MLC baseline and on IPA `[2×4]` in pSLC and in
/// odd-MLC mode.
pub struct Table1 {
    pub base: RunResult,
    pub pslc: RunResult,
    pub odd: RunResult,
}

/// Experiment E1 at `scale`, `secs` simulated seconds a stack.
pub fn table1(scale: u32, secs: f64, seed: u64) -> Result<Table1, RunError> {
    let cfg = for_secs(secs, seed);
    let tpcb = |label: &str, spec: StackSpec| {
        eprintln!("running {label}...");
        run("table1", WorkloadKind::TpcB, scale, &spec, &cfg)
    };
    Ok(Table1 {
        base: tpcb(
            "[0x0] traditional baseline (MLC, full capacity)",
            traditional_mlc(),
        )?,
        pslc: tpcb("[2x4] IPA, pSLC mode", ipa_2x4(FlashMode::PSlc))?,
        odd: tpcb("[2x4] IPA, odd-MLC mode", ipa_2x4(FlashMode::OddMlc))?,
    })
}

/// Experiment E4, the abstract's headline claims, for `kind`: the
/// traditional MLC baseline (the paper's `[0×0]`, the same silicon used
/// the normal way) and IPA `[2×4]` pSLC, `secs` simulated seconds each.
pub fn headline(
    kind: WorkloadKind,
    secs: f64,
    seed: u64,
) -> Result<(RunResult, RunResult), RunError> {
    let cfg = for_secs(secs, seed);
    let trad = run("headline_claims", kind, 1, &traditional_mlc(), &cfg)?;
    let ipa = run("headline_claims", kind, 1, &ipa_2x4(FlashMode::PSlc), &cfg)?;
    Ok((trad, ipa))
}

/// One pass of experiment E2 (Figure 1): the net modified bytes of every
/// dirty page the buffer pool evicted, and the byte write amplification.
pub struct NetWrites {
    pub hist: NetBytesHistogram,
    /// Device payload bytes per net modified byte.
    pub write_amp: f64,
}

/// Experiment E2 for `kind` under `strategy` on one pSLC chip: `tx`
/// transactions with net-write measurement on. The two sides of
/// `write_amp` cover different windows: the device bytes
/// (`RunResult::device`) count the measured run only, while `hist`, and
/// so the net bytes, count from load on, through warm-up and the run.
pub fn net_writes(
    kind: WorkloadKind,
    strategy: WriteStrategy,
    tx: u64,
    seed: u64,
) -> Result<NetWrites, RunError> {
    let spec = StackSpec::paper(strategy, FlashMode::PSlc);
    let what = format!("fig1_write_amp: {} on {}", kind.name(), stack_name(&spec));
    let mut bench = build(kind, 1, PAGE_SIZE);
    let default = DriverConfig::default();
    let built = spec.build(bench.as_mut(), PAGE_SIZE, &default);
    let mut engine = built.map_err(RunError::at(&what))?;
    engine.pool_mut().enable_net_write_measurement();
    let cfg = DriverConfig::default()
        .with_transactions(tx)
        .with_seed(seed);
    let r = Driver::run(bench.as_mut(), &mut engine, &cfg).map_err(RunError::at(&what))?;
    let hist = engine.pool().stats().net_bytes;
    let write_amp = r.device.bytes_host_written as f64 / hist.total_bytes.max(1) as f64;
    Ok(NetWrites { hist, write_amp })
}

/// Experiment E3 (Figure 2): append legality at cell and at chip level.
pub struct Fig2 {
    /// An 8-cell SLC wordline programmed with byte 0x0F (cells 0-3 charged).
    pub initial: [u8; 8],
    /// Appending 0x0F → 0x0D: one more cell charged, no erase.
    pub append: IsppTrace,
    /// Why 0x0F → 0x2F, which needs a cell discharged, is rejected.
    pub overwrite_rejected: String,
    /// A 2 KB SLC page's program count after one program and one
    /// 100-byte append in place.
    pub program_count: u16,
    /// Why the chip rejects a reprogram that needs 0 → 1 bit changes.
    pub reprogram_rejected: String,
    /// Whether that page reads erased after its block's erase.
    pub erased: bool,
}

/// Experiment E3's demonstrations. A rule the flash model failed to
/// enforce is an error.
pub fn fig2_ispp() -> Result<Fig2, RunError> {
    const CELLS: &str = "fig2_ispp: SLC wordline";
    const CHIP: &str = "fig2_ispp: SLC chip";
    let slc = IsppParams::slc();
    let initial = slc_byte_to_levels(0x0F); // bits 7..4 = 0 → cells 0..3 programmed
    let append = slc_byte_to_levels(0x0D); // additionally program one erased cell
    let append = simulate_wordline_program(&slc, &initial, &append).map_err(RunError::at(CELLS))?;
    let illegal = slc_byte_to_levels(0x2F); // requires discharging a cell
    let Err(overwrite) = simulate_wordline_program(&slc, &initial, &illegal) else {
        return Err(RunError(format!("{CELLS}: a charge decrease was accepted")));
    };

    let mut chip = FlashChip::new(
        DeviceConfig::new(Geometry::tiny(), FlashMode::Slc).with_disturb(DisturbRates::none()),
    );
    let ppa = Ppa::new(0, 0);
    let mut page = vec![0xFF; 2048];
    page[..1024].fill(0x5A);
    let oob = vec![0xFF; 64];
    let mut on_chip = || {
        chip.program_page(ppa, &page, &oob)?;
        page[1024..1124].fill(0x33);
        chip.reprogram_page(ppa, &page, &oob)?;
        let program_count = chip.program_count(ppa)?;
        let mut conflicting = page.clone();
        conflicting[0] = 0xFF; // 0x5A → 0xFF needs 0→1 transitions
        let rejected = chip.reprogram_page(ppa, &conflicting, &oob).err();
        chip.erase_block(0)?;
        Ok((program_count, rejected, chip.is_erased(ppa)?))
    };
    let on_chip: ipa_flash::Result<_> = on_chip();
    let (program_count, rejected, erased) = on_chip.map_err(RunError::at(CHIP))?;
    let Some(reprogram) = rejected else {
        return Err(RunError(format!("{CHIP}: a 0 → 1 reprogram was accepted")));
    };
    Ok(Fig2 {
        initial,
        append,
        overwrite_rejected: overwrite.to_string(),
        program_count,
        reprogram_rejected: reprogram.to_string(),
        erased,
    })
}

/// Experiment E6 (Figure 3): one 8 KB page's lifecycle under `[2×4]` —
/// three body bytes and a header byte updated in the buffer, delta
/// records built, record 0 appended onto the stored page, the page
/// reconstructed on fetch.
pub struct Fig3 {
    pub tracked_body_bytes: usize,
    pub verdict: IpaVerdict,
    pub records: usize,
    pub pairs_in_first: usize,
    /// Whether the append only turns 1 bits of the stored page into 0s.
    pub legal: bool,
    pub applied: usize,
    pub body_matches: bool,
    pub lsn_matches: bool,
}

/// Experiment E6's page lifecycle. A delta area left unwiped after
/// reconstruction is an error.
pub fn fig3_layout() -> Result<Fig3, RunError> {
    let layout = standard_layout(PAGE_SIZE, NmScheme::new(2, 4));
    let mut page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    layout.wipe_delta_area(&mut page);
    let flash_image = page.clone(); // as written out-of-place

    // Buffered updates: 3 body bytes + header LSN.
    let mut tracker = ChangeTracker::new(layout, Vec::new());
    let mut buffered = page;
    for (off, val) in [(100usize, 0xAAu8), (101, 0xBB), (5000, 0xCC), (4, 0x99)] {
        tracker.record_write(off, buffered[off], val);
        buffered[off] = val;
    }
    let records = tracker.build_new_records(&buffered);
    let Some(first) = records.first() else {
        return Err(RunError("fig3_layout: no delta record built".into()));
    };

    // Append onto the flash image (what write_delta does device-side).
    let mut on_flash = flash_image.clone();
    ipa_core::write_record_into(&mut on_flash, &layout, 0, first);
    let legal = on_flash
        .iter()
        .zip(&flash_image)
        .all(|(&n, &o)| n & !o == 0);

    // Fetch-time reconstruction.
    let mut fetched = on_flash;
    let applied = apply_and_collect(&mut fetched, &layout).len();
    if !scan_records(&fetched, &layout).is_empty() {
        return Err(RunError(
            "fig3_layout: delta area not wiped after apply".into(),
        ));
    }
    let body = layout.body_range();
    Ok(Fig3 {
        tracked_body_bytes: tracker.changed_body_bytes(),
        verdict: tracker.verdict(),
        records: records.len(),
        pairs_in_first: first.pairs.len(),
        legal,
        applied,
        body_matches: fetched[body.clone()] == buffered[body],
        lsn_matches: fetched[4] == 0x99,
    })
}

/// Ablation A1 (N×M sweep), one cell: `kind` for `secs` simulated seconds
/// on one pSLC chip under `scheme` — IPA native, or the traditional
/// path for `[0×0]`.
pub fn nm_scheme(
    kind: WorkloadKind,
    scheme: NmScheme,
    secs: f64,
    seed: u64,
) -> Result<RunResult, RunError> {
    let strategy = if scheme.is_disabled() {
        WriteStrategy::Traditional
    } else {
        WriteStrategy::IpaNative
    };
    let spec = StackSpec::chip(strategy, scheme, FlashMode::PSlc);
    run("nm_sweep", kind, 1, &spec, &for_secs(secs, seed))
}

/// Ablation A2 (NOP sweep), one cell: TPC-B for `secs` simulated seconds,
/// IPA `[4×4]` native on a pSLC chip whose pages take `nop` programs
/// between erases. `RunResult::pool`, and so its `in_place_fallbacks`
/// (the rejected appends), counts from load on, not over the measured
/// run alone.
pub fn nop_budget(nop: u16, secs: f64, seed: u64) -> Result<RunResult, RunError> {
    let what = format!("nop_sweep: TPC-B on IpaNative [4x4] PSlc, NOP {nop}");
    let mut bench = build(WorkloadKind::TpcB, 1, PAGE_SIZE);
    // make_engine with a custom device NOP: build by hand.
    let tables = bench.tables();
    let pages: u64 = tables.iter().map(|t| t.pages).sum();
    let blocks = (pages * 14 / 10 / 64 + 8) as u32;
    let device = DeviceConfig::new(Geometry::new(blocks, 128, PAGE_SIZE, 128), FlashMode::PSlc)
        .with_nop(nop);
    let config = EngineConfig::default()
        .with_strategy(WriteStrategy::IpaNative, NmScheme::new(4, 4))
        .with_buffer_frames(32)
        .with_group_commit(32);
    let built = StorageEngine::build(device, config, &tables);
    let mut engine = built.map_err(RunError::at(&what))?;
    let cfg = for_secs(secs, seed);
    Driver::run(bench.as_mut(), &mut engine, &cfg).map_err(RunError::at(&what))
}

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
pub fn interference(
    mode: FlashMode,
    force_unsafe: bool,
    rounds: u32,
) -> Result<InterferenceRow, RunError> {
    let label = match (mode, force_unsafe) {
        (FlashMode::PSlc, _) => "pSLC",
        (FlashMode::OddMlc, _) => "odd-MLC",
        (FlashMode::Tlc3d, _) => "3D-TLC (odd-LSB)",
        (FlashMode::MlcFull, true) => "full-MLC (forced)",
        _ => "other",
    };
    let what = format!("interference: append stream on {label}");
    let page_size = PAGE_SIZE;
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
        ftl.write(lba, &blank).map_err(RunError::at(&what))?;
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
                ftl.write(lba, &blank).map_err(RunError::at(&what))?;
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
                    ftl.write(lba, &blank).map_err(RunError::at(&what))?;
                    *s = 0;
                }
                Err(e) => return Err(RunError::at(&what)(e)),
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
                        ftl.write(lba, &blank).map_err(RunError::at(&what))?;
                        slot[lba as usize] = 0;
                    }
                    Err(e) => return Err(RunError::at(&what)(e)),
                }
            }
        }
    }
    let ds = ftl.device_stats();
    let fs = BlockDevice::flash_stats(&ftl);
    Ok(InterferenceRow {
        label,
        appends,
        rejected,
        disturb_bits: fs.disturb_bits_injected,
        corrected_bits: ds.ecc_corrected_bits,
        uncorrectable: uncorrectable + ds.uncorrectable_reads,
    })
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
pub fn ipa_vs_ipl(kind: WorkloadKind, tx: u64, seed: u64) -> Result<IplComparison, RunError> {
    let page_size = PAGE_SIZE;
    let spec = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc);
    let what = format!("ipa_vs_ipl: {} on {}", kind.name(), stack_name(&spec));
    let mut bench = build(kind, 1, page_size);
    let built = spec.build(bench.as_mut(), page_size, &DriverConfig::default());
    let mut engine = built.map_err(RunError::at(&what))?;
    engine.pool_mut().enable_tracing();
    let cfg = DriverConfig::default()
        .with_transactions(tx)
        .with_seed(seed);
    Driver::run(bench.as_mut(), &mut engine, &cfg).map_err(RunError::at(&what))?;
    let mut trace = engine.pool_mut().take_trace();

    // Replay on identically configured flash devices, sized to the
    // trace footprint (~45 % spare) so garbage collection is live in
    // both systems, as on the paper's mostly-full OpenSSD.
    // The engine's LBA space is sparse (per-table ranges); densify it
    // so the replay devices can be sized to the actual footprint.
    fn lba(e: &mut TraceEvent) -> &mut u64 {
        match e {
            TraceEvent::Fetch { lba } | TraceEvent::Evict { lba, .. } => lba,
        }
    }
    let lbas: BTreeSet<u64> = trace.iter_mut().map(|e| *lba(e)).collect();
    let dense: HashMap<u64, u64> = lbas.iter().zip(0..).map(|(&l, i)| (l, i)).collect();
    for l in trace.iter_mut().map(lba) {
        *l = dense[l];
    }
    let blocks = ((lbas.len() as u64 * 29 / 10) / 64 + 8) as u32;
    let device = move || {
        DeviceConfig::new(Geometry::new(blocks, 128, page_size, 128), FlashMode::PSlc)
            .with_disturb(DisturbRates::none())
    };
    let replay = |store: &str| format!("ipa_vs_ipl: {} trace on {store}", kind.name());
    let ipl = replay_ipl(&trace, device(), IplConfig::default());
    let (ipl, ipl_detail) = ipl.map_err(RunError::at(replay("IPL")))?;
    let ipa = replay_ipa(&trace, device(), NmScheme::new(2, 4));
    let (ipa, _) = ipa.map_err(RunError::at(replay("IPA [2x4]")))?;
    Ok(IplComparison {
        events: trace.len(),
        ipl,
        ipa,
        ipl_detail,
    })
}
