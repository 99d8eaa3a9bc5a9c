//! The allocation ruler (ROADMAP direction 6): heap allocations per
//! measured transaction, pinned per stack.
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
use ipa_workloads::{build, DriverConfig, MaintMode, Topology};

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

/// One pinned row: a workload on a stack, and its ceiling.
struct Row {
    name: &'static str,
    kind: WorkloadKind,
    scale: u32,
    spec: StackSpec,
    frames: usize,
    /// Allocations per transaction at d796f0e, the parent of the PR that
    /// pinned the row (owned `WriteOp` capture: two `Vec`s per tracked
    /// write, cloned into undo, re-encoded for the log), for the record.
    parent: f64,
    /// The pinned ceiling: the value measured when the row was pinned
    /// (19.88 / 13.97 / 27.18 / 5.56 / 1.48 / 70.63) plus at most 10 %.
    ceiling: f64,
}

/// `(allocations, bytes requested)` per measured transaction.
fn measure(row: &Row) -> (f64, f64) {
    let mut bench = build(row.kind, row.scale, PAGE_SIZE);
    let cfg = DriverConfig {
        buffer_frames: Some(row.frames),
        ..DriverConfig::default()
    };
    let mut engine = row.spec.build(bench.as_mut(), PAGE_SIZE, &cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    bench.load(&mut engine, &mut rng).unwrap();
    for _ in 0..WARMUP {
        bench.run_tx(&mut engine, &mut rng).unwrap();
    }
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    for _ in 0..MEASURED {
        bench.run_tx(&mut engine, &mut rng).unwrap();
    }
    let per_tx = |after: u64, before: u64| (after - before) as f64 / MEASURED as f64;
    (
        per_tx(CALLS.load(Relaxed), calls),
        per_tx(BYTES.load(Relaxed), bytes),
    )
}

#[test]
fn allocations_per_transaction_stay_within_budget() {
    let ipa = StackSpec::paper(WriteStrategy::IpaNative, FlashMode::PSlc);
    let four_by_two = ipa.striped(
        Topology::new(4, 2, StripePolicy::RoundRobin),
        MaintMode::background(None).with_qos(),
    );
    let rows = [
        Row {
            name: "TPC-B chip [2x4] pSLC",
            kind: WorkloadKind::TpcB,
            scale: 1,
            spec: ipa,
            frames: 32,
            parent: 91.26,
            ceiling: 21.5,
        },
        Row {
            name: "TPC-B chip [0x0] MLC",
            kind: WorkloadKind::TpcB,
            scale: 1,
            spec: StackSpec::paper(WriteStrategy::Traditional, FlashMode::MlcFull),
            frames: 32,
            parent: 84.97,
            ceiling: 15.0,
        },
        Row {
            name: "TPC-B 4ch x 2d bg-GC + QoS",
            kind: WorkloadKind::TpcB,
            scale: 1,
            spec: four_by_two,
            frames: 32,
            parent: 98.56,
            ceiling: 29.5,
        },
        Row {
            name: "TPC-B engine only (4096 frames)",
            kind: WorkloadKind::TpcB,
            scale: 1,
            spec: ipa,
            frames: 4096,
            parent: 76.56,
            ceiling: 6.0,
        },
        Row {
            name: "TATP 4ch x 2d (8192 frames)",
            kind: WorkloadKind::Tatp,
            scale: 10,
            spec: four_by_two,
            frames: 8192,
            parent: 4.13,
            ceiling: 1.6,
        },
        Row {
            name: "TPC-C chip [2x4] pSLC",
            kind: WorkloadKind::TpcC,
            scale: 1,
            spec: ipa,
            frames: 32,
            parent: 390.02,
            ceiling: 77.0,
        },
    ];
    println!("| stack | allocs/tx | bytes/tx | ceiling | parent |");
    println!("|---|---|---|---|---|");
    let mut over = Vec::new();
    for row in &rows {
        let (calls, bytes) = measure(row);
        println!(
            "| {} | {calls:.2} | {bytes:.0} | {} | {} |",
            row.name, row.ceiling, row.parent
        );
        if calls > row.ceiling {
            over.push(format!("{}: {calls:.2} > {}", row.name, row.ceiling));
        }
    }
    assert!(over.is_empty(), "allocation budget exceeded: {over:?}");
}
