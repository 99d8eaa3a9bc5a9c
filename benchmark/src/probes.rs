//! The host-wall probe ladder: what one call into each layer's public
//! face costs the simulator, measured from outside.
//!
//! Every rung runs a fixed number of calls per batch and reports the
//! median ns/call over [`BATCHES`] batches. All device rungs use the
//! workloads' geometry (8 KiB pages, 128 pages per block, pSLC) and the
//! same page image, and each rung drives the same operation as the rung
//! below it, so a layer's **self cost = its rung − the rung below**:
//!
//! ```text
//! flash.*  (FlashChip)  →  controller.*  (DieHandle, same Nand trait)
//! flash.*  →  ftl.{read,write,write_delta}  (Ftl<FlashChip>)
//! ftl.* + controller self  →  ftl.sharded_*  →  maint.write  →  heat.write
//! ftl.read  →  storage.pool_miss;  storage.pool_hit  →  storage.update_commit
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use ipa_controller::{ControllerConfig, FlashController};
use ipa_core::{apply_all, write_record_into, ChangeTracker, DeltaRecord, NmScheme, PageLayout};
use ipa_flash::ecc::{check_region, encode_region};
use ipa_flash::{DeviceConfig, FlashChip, FlashMode, Geometry, Nand, Ppa};
use ipa_ftl::{
    BlockDevice, Ftl, FtlConfig, IoQueue, IoRequest, NativeFlashDevice, OobCodec, ShardedFtl,
    StripePolicy, WriteStrategy,
};
use ipa_heat::{DefaultPolicy, HeatDevice};
use ipa_maint::{MaintConfig, MaintainedFtl};
use ipa_storage::{standard_layout, BufferPool, EngineConfig, StorageEngine, TableSpec};
use ipa_trace::{
    CommandKind, CommandOrigin, LatencyHistogram, RingRecorder, TraceEvent, TracePhase, TraceSink,
};

use crate::stats::median;

/// Batches per rung; the reported figure is the median batch.
pub const BATCHES: usize = 21;

const PAGE: usize = 8 * 1024;
const OOB: usize = 128;
const PPB: u32 = 128;
/// pSLC programs only the odd (LSB) pages of a block.
const USABLE_PPB: u32 = PPB / 2;

#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    pub name: &'static str,
    /// Median host nanoseconds per call.
    pub ns: f64,
    /// Calls timed in total (`BATCHES` × calls per batch).
    pub samples: u64,
}

/// Iteration counts: `full` for reported numbers, a sixteenth of it for
/// `--quick` self-checks.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    quick: bool,
}

impl Effort {
    pub fn new(quick: bool) -> Self {
        Effort { quick }
    }

    fn iters(self, full: u64) -> u64 {
        if self.quick {
            (full / 16).max(4)
        } else {
            full
        }
    }
}

/// Time one rung: `batch` prepares whatever it needs untimed, performs
/// `calls` calls and returns how long those took. One unrecorded batch
/// warms caches and lazily built state first.
fn rung(name: &'static str, calls: u64, mut batch: impl FnMut() -> Duration) -> Probe {
    batch();
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| batch().as_nanos() as f64 / calls as f64)
        .collect();
    Probe {
        name,
        ns: median(&mut per_call),
        samples: BATCHES as u64 * calls,
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

fn layout() -> PageLayout {
    standard_layout(PAGE, NmScheme::new(2, 4))
}

/// The page image every device rung writes: a full TPC-B account heap
/// page exactly as the storage engine formats it (100-byte rows — id,
/// branch, balance, zero padding — header, slot directory, footer), with
/// the delta-record area erased so appends are legal `1 → 0` programs.
/// The content matters: the SECDED codec walks set bits, so a dense
/// synthetic pattern costs several times what the workloads' sparse
/// pages do.
fn page_image(layout: &PageLayout) -> Vec<u8> {
    let mut e = StorageEngine::build(
        chip_config(16),
        EngineConfig::default().with_ipa(layout.scheme),
        &[TableSpec::heap("account", 100, 8)],
    )
    .unwrap();
    let t = e.table("account").unwrap();
    let tx = e.begin();
    let mut first = None;
    for id in 0u64.. {
        let mut row = [0u8; 100];
        row[..8].copy_from_slice(&id.to_le_bytes());
        row[16..24].copy_from_slice(&(1i64 << 40).to_le_bytes());
        let rid = e.insert(tx, t, &row).unwrap();
        if *first.get_or_insert(rid.page) != rid.page {
            break;
        }
    }
    e.commit(tx).unwrap();
    let mut page = e
        .pool_mut()
        .with_page(first.expect("one row went in"), |p| p.to_vec())
        .unwrap();
    assert_eq!(page.len(), PAGE);
    layout.wipe_delta_area(&mut page);
    page
}

/// A full [2×4] record: four changed body bytes plus the metadata image.
fn delta_record(layout: &PageLayout) -> DeltaRecord {
    DeltaRecord::new(
        vec![(100, 1), (2000, 2), (4000, 3), (7000, 4)],
        vec![0x42; layout.meta_len()],
        layout.scheme,
    )
}

fn record_bytes(layout: &PageLayout) -> Vec<u8> {
    delta_record(layout).encode(layout)
}

fn chip_config(blocks: u32) -> DeviceConfig {
    DeviceConfig::new(Geometry::new(blocks, PPB, PAGE, OOB), FlashMode::PSlc)
}

/// The `slot`-th programmable page of a pSLC target, block-major.
fn ppa_of(slot: u32) -> Ppa {
    Ppa::new(slot / USABLE_PPB, 2 * (slot % USABLE_PPB) + 1)
}

/// The four raw NAND rungs over any [`Nand`] targets — a bare chip or the
/// controller's die handles — so both ladders time identical commands.
/// `settle` runs untimed between batches (the controller's clock merge).
fn nand_rungs<N: Nand>(
    names: [&'static str; 3],
    targets: &mut [N],
    settle: impl Fn(),
    page: &[u8],
    effort: Effort,
    out: &mut Vec<Probe>,
) {
    let layout = layout();
    let oob = vec![0xFFu8; OOB];
    let record = record_bytes(&layout);
    let append_off = layout.record_offset(0);
    let n = targets.len() as u32;
    let reset = |targets: &mut [N], block: u32| {
        for t in targets.iter_mut() {
            if !t.is_erased(ppa_of(block * USABLE_PPB)).unwrap() {
                t.erase_block(block).unwrap();
            }
        }
    };

    // Erase and refill block by block, as an FTL's GC does: the chip frees
    // a block's page buffers on erase and allocates them on program, so
    // the allocator sees the workloads' pattern, not one bulk free.
    let calls = effort.iters(256) as u32;
    let program = rung(names[1], calls as u64, || {
        settle();
        let mut spent = Duration::ZERO;
        for first in (0..calls).step_by((USABLE_PPB * n) as usize) {
            reset(targets, first / n / USABLE_PPB);
            spent += timed(|| {
                for i in first..(first + USABLE_PPB * n).min(calls) {
                    targets[(i % n) as usize]
                        .program_page(ppa_of(i / n), page, &oob)
                        .unwrap();
                }
            });
        }
        spent
    });
    // The last program batch left `calls` pages behind: read those.
    let reads = effort.iters(2048) as u32;
    out.push(rung(names[0], reads as u64, || {
        settle();
        timed(|| {
            for i in 0..reads {
                let j = i % calls;
                black_box(
                    targets[(j % n) as usize]
                        .read_page(ppa_of(j / n))
                        .unwrap()
                        .data
                        .len(),
                );
            }
        })
    }));
    out.push(program);
    out.push(rung(names[2], calls as u64, || {
        for first in (0..calls).step_by((USABLE_PPB * n) as usize) {
            reset(targets, first / n / USABLE_PPB);
            for i in first..(first + USABLE_PPB * n).min(calls) {
                targets[(i % n) as usize]
                    .program_page(ppa_of(i / n), page, &oob)
                    .unwrap();
            }
        }
        settle();
        timed(|| {
            for i in 0..calls {
                targets[(i % n) as usize]
                    .append_region(ppa_of(i / n), append_off, &record, 64, &[0u8; 4])
                    .unwrap();
            }
        })
    }));
}

fn core_rungs(page: &[u8], effort: Effort, out: &mut Vec<Probe>) {
    let layout = layout();
    let rec = delta_record(&layout);
    let calls = effort.iters(20_000);
    out.push(rung("core.delta_encode_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(rec.encode(black_box(&layout)));
            }
        })
    }));
    let mut page = page.to_vec();
    write_record_into(&mut page, &layout, 0, &rec);
    write_record_into(&mut page, &layout, 1, &rec);
    out.push(rung("core.delta_apply_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(apply_all(black_box(&mut page), &layout));
            }
        })
    }));
    out.push(rung("core.tracker_verdict_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                let mut t = ChangeTracker::new(layout, Vec::new());
                t.record_write(100, 0, 1);
                t.record_write(101, 0, 2);
                t.record_write(4000, 0, 3);
                t.record_write(4001, 0, 4);
                black_box(t.verdict());
            }
        })
    }));
}

fn flash_rungs(page: &[u8], effort: Effort, out: &mut Vec<Probe>) {
    let mut chip = [FlashChip::new(chip_config(32))];
    nand_rungs(
        [
            "flash.read_page_ns",
            "flash.program_page_ns",
            "flash.append_region_ns",
        ],
        &mut chip,
        || {},
        page,
        effort,
        out,
    );

    // Erase of fully programmed blocks (what GC erases).
    let [chip] = &mut chip;
    let oob = vec![0xFFu8; OOB];
    let blocks = effort.iters(16) as u32;
    out.push(rung("flash.erase_block_ns", blocks as u64, || {
        for slot in 0..blocks * USABLE_PPB {
            let ppa = ppa_of(slot);
            if chip.is_erased(ppa).unwrap() {
                chip.program_page(ppa, page, &oob).unwrap();
            }
        }
        timed(|| {
            for block in 0..blocks {
                chip.erase_block(block).unwrap();
            }
        })
    }));

    let calls = effort.iters(1_000);
    let mut data = page.to_vec();
    let codewords = encode_region(&data);
    out.push(rung("flash.ecc_encode_8k_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(encode_region(black_box(&data)));
            }
        })
    }));
    out.push(rung("flash.ecc_check_8k_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(check_region(black_box(&mut data), &codewords)).unwrap();
            }
        })
    }));
}

fn four_by_two(blocks_per_die: u32) -> ControllerConfig {
    ControllerConfig::new(4, 2, chip_config(blocks_per_die))
}

fn controller_rungs(page: &[u8], effort: Effort, out: &mut Vec<Probe>) {
    let ctrl = FlashController::shared(four_by_two(8));
    ctrl.set_bounded_read_latencies(true);
    let mut handles = FlashController::handles(&ctrl);
    nand_rungs(
        [
            "controller.read_page_ns",
            "controller.program_page_ns",
            "controller.append_region_ns",
        ],
        &mut handles,
        || {
            ctrl.sync();
        },
        page,
        effort,
        out,
    );
    let calls = effort.iters(20_000);
    out.push(rung("controller.stats_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(ctrl.stats().commands);
            }
        })
    }));
}

/// Distinct LBAs the FTL-level rungs cycle over. Spaced nine apart they
/// visit every die of a round-robin 8-die stripe in turn and land one
/// per 8-page heat range, so under the default placement policy (hot at
/// four hits per decay interval) every write stays cold.
const LBAS: u64 = 1024;
const LBA_STRIDE: u64 = 9;

fn lba_of(i: u64) -> u64 {
    (i % LBAS) * LBA_STRIDE
}

fn ftl_rungs(page: &[u8], effort: Effort, out: &mut Vec<Probe>) {
    let layout = layout();
    let record = record_bytes(&layout);
    let codec = OobCodec::new(PAGE, OOB, Some(layout));
    let oob = codec.encode_oob(page);
    let calls = effort.iters(1_000);
    out.push(rung("ftl.oob_encode_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(codec.encode_oob(black_box(page)));
            }
        })
    }));
    let mut clean = page.to_vec();
    out.push(rung("ftl.oob_verify_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(codec.verify(black_box(&mut clean), &oob)).unwrap();
            }
        })
    }));

    // Single-chip FTL under half utilisation, written round-robin: in
    // steady state GC reclaims fully invalid blocks, so it amortises to
    // its erases.
    let mut ftl = Ftl::new(
        FlashChip::new(chip_config(40)),
        FtlConfig::ipa_native(layout),
    );
    assert!(ftl.capacity_pages() >= LBAS);
    // Three passes: the second fills the chip, the third runs under GC.
    for i in 0..3 * LBAS {
        ftl.write(i % LBAS, page).unwrap();
    }
    let writes = effort.iters(512);
    let mut next = 0u64;
    out.push(rung("ftl.write_ns", writes, || {
        timed(|| {
            for _ in 0..writes {
                ftl.write(next % LBAS, page).unwrap();
                next += 1;
            }
        })
    }));
    let reads = effort.iters(1_024);
    let mut buf = vec![0u8; PAGE];
    out.push(rung("ftl.read_ns", reads, || {
        timed(|| {
            for i in 0..reads {
                ftl.read(i % LBAS, &mut buf).unwrap();
            }
        })
    }));
    let deltas = effort.iters(256);
    out.push(rung("ftl.write_delta_ns", deltas, || {
        // A fresh out-of-place copy has both record slots free again.
        for lba in 0..deltas {
            ftl.write(lba, page).unwrap();
        }
        timed(|| {
            for lba in 0..deltas {
                ftl.write_delta(lba, layout.record_offset(0), &record)
                    .unwrap();
            }
        })
    }));

    // The die-striped FTL through the face the churn workload drives.
    let striped = ShardedFtl::new(
        four_by_two(24),
        FtlConfig::ipa_native(layout),
        StripePolicy::RoundRobin,
    );
    striped.controller().set_bounded_read_latencies(true);
    assert!(striped.capacity_pages() > lba_of(LBAS - 1));
    let write = |i: u64| {
        let token = striped
            .submit_io(IoRequest::WriteV(vec![(lba_of(i), page.to_vec())]))
            .unwrap();
        striped.poll_io_checked(token).unwrap();
    };
    (0..LBAS).for_each(write);
    let mut next = 0u64;
    out.push(rung("ftl.sharded_write_ns", writes, || {
        striped.sync();
        timed(|| {
            for _ in 0..writes {
                write(next);
                next += 1;
            }
        })
    }));
    out.push(rung("ftl.sharded_read_ns", reads, || {
        striped.sync();
        timed(|| {
            for i in 0..reads {
                striped.read_shared(lba_of(i), &mut buf).unwrap();
            }
        })
    }));
    let vectors = effort.iters(128);
    out.push(rung("ftl.sharded_readv8_ns", vectors, || {
        striped.sync();
        timed(|| {
            for v in 0..vectors {
                let lbas = (0..8).map(|k| lba_of(v * 8 + k)).collect();
                let token = striped.submit_io(IoRequest::ReadV(lbas)).unwrap();
                black_box(striped.poll_io_checked(token).unwrap().data.len());
            }
        })
    }));
}

/// The same queued single-page write as `ftl.sharded_write_ns`, through
/// each wrapper's own `IoQueue` face.
fn wrapper_write_rung<D: BlockDevice + IoQueue>(
    name: &'static str,
    dev: &mut D,
    page: &[u8],
    effort: Effort,
    out: &mut Vec<Probe>,
) {
    assert!(dev.capacity_pages() > lba_of(LBAS - 1));
    let write = |dev: &mut D, i: u64| {
        let token = dev
            .submit(IoRequest::WriteV(vec![(lba_of(i), page.to_vec())]))
            .unwrap();
        dev.poll_checked(token).unwrap();
    };
    for i in 0..LBAS {
        write(dev, i);
    }
    let writes = effort.iters(256);
    let mut next = 0u64;
    out.push(rung(name, writes, || {
        dev.sync();
        timed(|| {
            for _ in 0..writes {
                write(dev, next);
                next += 1;
            }
        })
    }));
}

fn wrapper_rungs(page: &[u8], effort: Effort, out: &mut Vec<Probe>) {
    let maintained = || {
        MaintainedFtl::new(
            ShardedFtl::new(
                four_by_two(24),
                FtlConfig::ipa_native(layout()).with_background_gc(),
                StripePolicy::RoundRobin,
            ),
            MaintConfig::default(),
        )
    };
    wrapper_write_rung("maint.write_ns", &mut maintained(), page, effort, out);
    let mut heat = HeatDevice::new(maintained(), Box::new(DefaultPolicy::default()));
    wrapper_write_rung("heat.write_ns", &mut heat, page, effort, out);
    assert_eq!(
        heat.heat_stats().hot_hits,
        0,
        "the heat rung must stay on the cold path"
    );
}

fn storage_rungs(page: &[u8], effort: Effort, out: &mut Vec<Probe>) {
    let pool_over = |frames: usize, pages: u64| {
        let mut ftl = Ftl::new(FlashChip::new(chip_config(16)), FtlConfig::traditional());
        for lba in 0..pages {
            ftl.write(lba, page).unwrap();
        }
        BufferPool::new(Box::new(ftl), WriteStrategy::Traditional, frames)
    };
    let calls = effort.iters(20_000);
    let mut hot = pool_over(64, 32);
    out.push(rung("storage.pool_hit_ns", calls, || {
        timed(|| {
            for i in 0..calls {
                black_box(hot.with_page(i % 32, |p| p[0]).unwrap());
            }
        })
    }));
    // Sixteen frames under a 256-page cycle: every fetch evicts a clean
    // page and reads its replacement from the device.
    let misses = effort.iters(512);
    let mut cold = pool_over(16, 256);
    let mut next = 0u64;
    out.push(rung("storage.pool_miss_ns", misses, || {
        timed(|| {
            for _ in 0..misses {
                black_box(cold.with_page(next % 256, |p| p[0]).unwrap());
                next += 1;
            }
        })
    }));
    assert_eq!(hot.stats().misses, 32);
    assert!(cold.stats().hits == 0);

    let engine_with = |group_commit: u32| {
        let mut e = StorageEngine::build(
            chip_config(64),
            EngineConfig::default()
                .with_ipa(NmScheme::new(2, 4))
                .with_buffer_frames(512)
                .with_group_commit(group_commit),
            &[
                TableSpec::heap("rows", 100, 128),
                TableSpec::index("rows_pk", 64),
            ],
        )
        .unwrap();
        let (t, idx) = (e.table("rows").unwrap(), e.table("rows_pk").unwrap());
        let tx = e.begin();
        let rids: Vec<_> = (0..2_000u64)
            .map(|k| {
                let mut row = [0u8; 100];
                row[..8].copy_from_slice(&k.to_le_bytes());
                let rid = e.insert(tx, t, &row).unwrap();
                e.index_insert(tx, idx, k, rid).unwrap();
                rid
            })
            .collect();
        e.commit(tx).unwrap();
        e.flush_all().unwrap();
        (e, t, idx, rids)
    };
    let (mut e, t, idx, rids) = engine_with(32);
    let lookups = effort.iters(5_000);
    out.push(rung("storage.index_lookup_ns", lookups, || {
        timed(|| {
            for i in 0..lookups {
                black_box(e.index_lookup(idx, (i * 7) % 2_000).unwrap());
            }
        })
    }));
    let commits = effort.iters(2_048);
    let mut n = 0usize;
    let mut update_commit = |e: &mut StorageEngine, rids: &[ipa_storage::Rid]| {
        n += 1;
        let tx = e.begin();
        e.update_field(tx, t, rids[n % rids.len()], 16, &[n as u8, 2, 3])
            .unwrap();
        e.commit(tx).unwrap();
    };
    out.push(rung("storage.update_commit_ns", commits, || {
        timed(|| {
            for _ in 0..commits {
                update_commit(&mut e, &rids);
            }
        })
    }));
    // Group commit 1: every commit pays its own log flush.
    let (mut e1, _, _, rids1) = engine_with(1);
    let flushes = effort.iters(128);
    out.push(rung("storage.wal_flush_ns", flushes, || {
        timed(|| {
            for _ in 0..flushes {
                update_commit(&mut e1, &rids1);
            }
        })
    }));
}

fn trace_rungs(effort: Effort, out: &mut Vec<Probe>) {
    let calls = effort.iters(100_000);
    let mut ring = RingRecorder::new(crate::workloads::TRACE_RING);
    let mut at = 0u64;
    out.push(rung("trace.ring_record_ns", calls, || {
        timed(|| {
            for _ in 0..calls {
                at += 1;
                ring.record(black_box(TraceEvent {
                    at_ns: at,
                    cmd: at,
                    die: (at % 8) as u32,
                    channel: (at % 4) as u32,
                    kind: CommandKind::Read,
                    origin: CommandOrigin::Host,
                    phase: TracePhase::Completed,
                }));
            }
        })
    }));
    let mut hist = LatencyHistogram::default();
    out.push(rung("trace.hist_record_ns", calls, || {
        timed(|| {
            for i in 0..calls {
                hist.record(black_box(i * 977));
            }
        })
    }));
    black_box((ring.len(), hist.count()));
}

/// Run the whole ladder. Rung order is the metric order of the report.
pub fn run_ladder(effort: Effort) -> Vec<Probe> {
    let page = page_image(&layout());
    let mut out = Vec::new();
    core_rungs(&page, effort, &mut out);
    flash_rungs(&page, effort, &mut out);
    controller_rungs(&page, effort, &mut out);
    ftl_rungs(&page, effort, &mut out);
    wrapper_rungs(&page, effort, &mut out);
    storage_rungs(&page, effort, &mut out);
    trace_rungs(effort, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pslc_slots_walk_odd_pages_block_major() {
        assert_eq!(ppa_of(0), Ppa::new(0, 1));
        assert_eq!(ppa_of(1), Ppa::new(0, 3));
        assert_eq!(ppa_of(USABLE_PPB - 1), Ppa::new(0, PPB - 1));
        assert_eq!(ppa_of(USABLE_PPB), Ppa::new(1, 1));
    }

    #[test]
    fn probe_lbas_rotate_dies_and_never_share_a_heat_range() {
        let lbas: Vec<u64> = (0..LBAS).map(lba_of).collect();
        for w in lbas.windows(2) {
            assert_ne!(w[0] / 8, w[1] / 8, "one LBA per 8-page heat range");
        }
        let dies: std::collections::BTreeSet<u64> = lbas[..8].iter().map(|l| l % 8).collect();
        assert_eq!(dies.len(), 8, "eight consecutive probes hit eight dies");
        assert_eq!(lba_of(LBAS), lba_of(0));
    }

    #[test]
    fn rung_reports_the_median_batch() {
        let mut durations = (1..=BATCHES as u64 + 1).map(Duration::from_micros);
        let p = rung("x", 10, || durations.next().unwrap());
        // First batch (1 µs) is the discarded warm-up; median of 2..=22 µs.
        assert_eq!(p.ns, 1_200.0);
        assert_eq!(p.samples, 210);
    }
}
