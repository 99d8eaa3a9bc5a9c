//! The allocation ruler (ROADMAP direction 6): heap allocations and
//! allocated bytes per measured transaction (or churn op), pinned per
//! stack.
//!
//! This binary installs a counting `#[global_allocator]` and holds exactly
//! one `#[test]`, so nothing else allocates while it measures. Counts are
//! exact per seed and equal in debug and release builds — a deterministic
//! host-cost proxy that box noise cannot move. A ceiling that has to rise
//! is a regression to explain in CHANGES.md, never to raise silently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use rand::rngs::StdRng;
use rand::SeedableRng;

use in_place_appends::prelude::*;
use ipa_ftl::StripePolicy;
use ipa_workloads::{build, DriverConfig, MaintMode, ThreadedConfig, Topology};

/// Counts every `alloc` / `realloc` call and the bytes each asked for.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PAGE_SIZE: usize = 8 * 1024;
const WARMUP: u64 = 2_000;
const MEASURED: u64 = 5_000;

/// What a row measures.
enum Load {
    /// Transactions of a workload on an engine stack.
    Tx {
        kind: WorkloadKind,
        scale: u32,
        spec: StackSpec,
        frames: usize,
    },
    /// Host ops of the raw stripe face: the die-affine 3-write : 1-read
    /// loop [`Driver::run_threaded`] drives, single-threaded, on its
    /// default 4ch x 2d stack of 2 KiB SLC pages.
    Churn,
}

/// One pinned row: a load and its ceilings.
struct Row {
    name: &'static str,
    load: Load,
    /// `(allocations, bytes)` per transaction at bfe4afc, the parent of
    /// the PR that pinned the bytes (a zero-filled page `Vec` per pool
    /// miss, stripe read and chip read, each copied on; a pre-filled page
    /// per program), for the record.
    parent: (f64, f64),
    /// The pinned ceilings: the values measured when the row was pinned
    /// plus at most 10 %.
    ceiling: (f64, f64),
}

/// `(allocations, bytes requested)` per measured transaction or op.
fn measure(load: &Load) -> (f64, f64) {
    let counters = || (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let per = |after: (u64, u64), before: (u64, u64), n: u64| {
        (
            (after.0 - before.0) as f64 / n as f64,
            (after.1 - before.1) as f64 / n as f64,
        )
    };
    match load {
        Load::Tx {
            kind,
            scale,
            spec,
            frames,
        } => {
            let mut bench = build(*kind, *scale, PAGE_SIZE);
            let cfg = DriverConfig {
                buffer_frames: Some(*frames),
                ..DriverConfig::default()
            };
            let mut engine = spec.build(bench.as_mut(), PAGE_SIZE, &cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            bench.load(&mut engine, &mut rng).unwrap();
            for _ in 0..WARMUP {
                bench.run_tx(&mut engine, &mut rng).unwrap();
            }
            let before = counters();
            for _ in 0..MEASURED {
                bench.run_tx(&mut engine, &mut rng).unwrap();
            }
            per(counters(), before, MEASURED)
        }
        Load::Churn => {
            // A whole run allocates its device, models and read-back
            // pass too; the difference of two runs that differ only in
            // length is the loop's own cost.
            let run = |ops_per_stream: u64| {
                let before = counters();
                Driver::run_threaded(&ThreadedConfig {
                    ops_per_stream,
                    seed: 1,
                    ..ThreadedConfig::default()
                });
                let after = counters();
                (after.0 - before.0, after.1 - before.1)
            };
            let (short, long) = (run(WARMUP), run(WARMUP + MEASURED));
            let streams = ThreadedConfig::default().streams as u64;
            per(long, short, MEASURED * streams)
        }
    }
}

#[test]
fn allocations_per_transaction_stay_within_budget() {
    let ipa = StackSpec::paper(WriteStrategy::IpaNative, FlashMode::PSlc);
    let four_by_two = ipa.striped(
        Topology::new(4, 2, StripePolicy::RoundRobin),
        MaintMode::background(None).with_qos(),
    );
    let tpcb = |spec, frames| Load::Tx {
        kind: WorkloadKind::TpcB,
        scale: 1,
        spec,
        frames,
    };
    let rows = [
        Row {
            name: "TPC-B chip [2x4] pSLC",
            load: tpcb(ipa, 32),
            parent: (19.88, 32_717.0),
            ceiling: (14.4, 6_600.0),
        },
        Row {
            name: "TPC-B chip [0x0] MLC",
            load: tpcb(
                StackSpec::paper(WriteStrategy::Traditional, FlashMode::MlcFull),
                32,
            ),
            parent: (13.97, 36_428.0),
            ceiling: (7.9, 10_800.0),
        },
        Row {
            // Direction 6's bar: bytes at most half the parent's.
            name: "TPC-B 4ch x 2d bg-GC + QoS",
            load: tpcb(four_by_two, 32),
            parent: (27.18, 46_179.0),
            ceiling: (14.4, 6_600.0),
        },
        Row {
            name: "TPC-B engine only (4096 frames)",
            load: tpcb(ipa, 4096),
            parent: (5.56, 2_338.0),
            ceiling: (4.9, 2_530.0),
        },
        Row {
            name: "TATP 4ch x 2d (8192 frames)",
            load: Load::Tx {
                kind: WorkloadKind::Tatp,
                scale: 10,
                spec: four_by_two,
                frames: 8192,
            },
            parent: (1.48, 265.0),
            ceiling: (0.95, 270.0),
        },
        Row {
            name: "TPC-C chip [2x4] pSLC",
            load: Load::Tx {
                kind: WorkloadKind::TpcC,
                scale: 1,
                spec: ipa,
                frames: 32,
            },
            parent: (70.63, 95_841.0),
            ceiling: (61.0, 34_500.0),
        },
        Row {
            name: "churn 4ch x 2d, 1 thread (per op)",
            load: Load::Churn,
            parent: (5.78, 4_307.0),
            ceiling: (4.1, 3_500.0),
        },
    ];
    println!("| stack | allocs | bytes | ceilings | parent |");
    println!("|---|---|---|---|---|");
    let mut over = Vec::new();
    for row in &rows {
        let (calls, bytes) = measure(&row.load);
        println!(
            "| {} | {calls:.2} | {bytes:.0} | {} / {} | {} / {} |",
            row.name, row.ceiling.0, row.ceiling.1, row.parent.0, row.parent.1
        );
        if calls > row.ceiling.0 || bytes > row.ceiling.1 {
            over.push(format!(
                "{}: {calls:.2} allocations, {bytes:.0} bytes > {} / {}",
                row.name, row.ceiling.0, row.ceiling.1
            ));
        }
    }
    assert!(over.is_empty(), "allocation budget exceeded: {over:?}");
}
