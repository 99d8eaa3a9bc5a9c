//! Deterministic device, FTL, pool and engine fixtures.
//!
//! Every constructor takes an explicit seed and disables program
//! interference (`DisturbRates::none()`) unless a test is *about*
//! interference — randomized disturbs belong in fault-injection suites,
//! not in correctness tests where they would add noise to every run.

use ipa_controller::ControllerConfig;
use ipa_core::{NmScheme, PageLayout};
use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
use ipa_ftl::{Ftl, FtlConfig, ShardedFtl, StripePolicy, WriteStrategy};
use ipa_heat::{build_stack, DefaultPolicy};
use ipa_storage::{BufferPool, EngineConfig, StorageEngine, TableSpec};

/// The paper's three write paths with their canonical N×M configurations:
/// the traditional out-of-place baseline and both IPA scenarios (§4).
pub fn all_strategies() -> [(WriteStrategy, NmScheme); 3] {
    [
        (WriteStrategy::Traditional, NmScheme::disabled()),
        (WriteStrategy::IpaConventional, NmScheme::new(2, 4)),
        (WriteStrategy::IpaNative, NmScheme::new(2, 4)),
    ]
}

/// Just the two IPA scenarios (conventional SSD and NoFTL-native).
pub fn ipa_strategies() -> [(WriteStrategy, NmScheme); 2] {
    [
        (WriteStrategy::IpaConventional, NmScheme::new(2, 4)),
        (WriteStrategy::IpaNative, NmScheme::new(2, 4)),
    ]
}

/// The standard small device: `DeviceConfig::small()` with a fixed seed.
pub fn quiet_device(seed: u64) -> DeviceConfig {
    DeviceConfig::small().with_seed(seed)
}

/// A small quiet SLC device with an explicit geometry — the shape used by
/// FTL and B+-tree suites (2 KiB pages, 64 B OOB).
pub fn quiet_slc(blocks: u32, pages_per_block: u32, seed: u64) -> DeviceConfig {
    DeviceConfig::new(
        Geometry::new(blocks, pages_per_block, 2048, 64),
        FlashMode::Slc,
    )
    .with_disturb(DisturbRates::none())
    .with_seed(seed)
}

/// A quiet SLC chip, 128 blocks × 16 pages.
pub fn small_chip(seed: u64) -> FlashChip {
    FlashChip::new(quiet_slc(128, 16, seed))
}

/// A traditionally configured page-mapping FTL on a tiny chip (24 × 8) —
/// small enough that random-op streams exercise GC within a few hundred
/// writes.
pub fn traditional_ftl(seed: u64) -> Ftl {
    Ftl::new(
        FlashChip::new(quiet_slc(24, 8, seed)),
        FtlConfig::traditional(),
    )
}

/// A buffer pool over [`small_chip`] under the traditional write path.
pub fn small_pool(frames: usize, seed: u64) -> BufferPool {
    BufferPool::new(
        Box::new(Ftl::new(small_chip(seed), FtlConfig::traditional())),
        WriteStrategy::Traditional,
        frames,
    )
}

/// Build a [`StorageEngine`] on [`quiet_device`] under the given strategy.
pub fn engine(
    strategy: WriteStrategy,
    scheme: NmScheme,
    seed: u64,
    frames: usize,
    tables: &[TableSpec],
) -> StorageEngine {
    let config = engine_config(strategy, scheme, frames);
    StorageEngine::build(quiet_device(seed), config, tables).expect("testkit engine")
}

/// `Traditional` means a plain `EngineConfig` (no IPA plumbing at all).
fn engine_config(strategy: WriteStrategy, scheme: NmScheme, frames: usize) -> EngineConfig {
    match strategy {
        WriteStrategy::Traditional => EngineConfig::default(),
        _ => EngineConfig::default().with_strategy(strategy, scheme),
    }
    .with_buffer_frames(frames)
}

/// [`engine`] with a single 48-byte-row heap table named `"m"` and a tiny
/// pool — the model-check shape: maximal eviction churn.
pub fn heap_engine(strategy: WriteStrategy, scheme: NmScheme, seed: u64) -> StorageEngine {
    engine(
        strategy,
        scheme,
        seed,
        8,
        &[TableSpec::heap("m", crate::ops::ROW, 200)],
    )
}

/// Shared core of the striped heap-engine fixtures: the [`heap_engine`]
/// table shape and pool size over `dies` dies (≤ 4 channels, then
/// stacking dies per channel) of `chip`, built through the one tower
/// assembly ([`build_stack`]). `maint = Some(queue_cap)` wraps the stripe
/// in an `ipa-maint` background scheduler (with that optional NCQ cap);
/// `None` keeps the historic inline-GC device. `heat` mounts the
/// `ipa-heat` layer under [`aggressive_heat_policy`] on top.
fn striped_engine(
    strategy: WriteStrategy,
    scheme: NmScheme,
    chip: DeviceConfig,
    dies: u32,
    policy: StripePolicy,
    maint: Option<Option<usize>>,
    heat: bool,
) -> StorageEngine {
    assert!(dies >= 1 && dies.is_power_of_two(), "die counts are 2^k");
    let channels = dies.min(4);
    let page_size = chip.geometry.page_size;
    let mut controller = ControllerConfig::new(channels, dies / channels, chip);
    if let Some(Some(cap)) = maint {
        controller = controller.with_queue_cap(cap);
    }
    StorageEngine::build_with_device(
        page_size,
        engine_config(strategy, scheme, 8),
        &[TableSpec::heap("m", crate::ops::ROW, 200)],
        move |regions, ftl_config| {
            let (bg_gc, placement) = (maint.is_some(), heat.then(aggressive_heat_policy));
            build_stack(controller, ftl_config, policy, regions, bg_gc, placement)
        },
    )
    .expect("testkit striped engine")
}

/// [`quiet_device`]'s blocks divided across `dies` dies of `planes`
/// planes, keeping total raw capacity comparable at every die count.
fn divided_chip(seed: u64, dies: u32, planes: u32) -> DeviceConfig {
    let base = quiet_device(seed).geometry;
    let per_die = Geometry::new(
        (base.blocks / dies).max(12).next_multiple_of(planes),
        base.pages_per_block,
        base.page_size,
        base.oob_size,
    )
    .with_planes(planes);
    quiet_device(seed).with_geometry(per_die)
}

/// Deliberately compact dies (small blocks, 2 KiB pages): garbage
/// collection — and with it real per-die erase deltas, the signal
/// wear-shifting migration triggers on — fires within the few hundred
/// ops a parity or crash suite runs, not after tens of thousands.
fn compact_chip(seed: u64, dies: u32, planes: u32) -> DeviceConfig {
    let per_die = Geometry::new((64 / dies).max(12).next_multiple_of(planes), 8, 2048, 64)
        .with_planes(planes);
    quiet_slc(per_die.blocks, per_die.pages_per_block, seed).with_geometry(per_die)
}

/// [`heap_engine`]'s die-striped twin: the same table shape and pool size
/// over a `ShardedFtl` spanning `dies` dies, so `sharded_parity` can
/// compare the two run-for-run.
pub fn sharded_heap_engine(
    strategy: WriteStrategy,
    scheme: NmScheme,
    seed: u64,
    dies: u32,
    policy: StripePolicy,
) -> StorageEngine {
    let chip = divided_chip(seed, dies, 1);
    striped_engine(strategy, scheme, chip, dies, policy, None, false)
}

/// [`sharded_heap_engine`] with a plane axis: `planes` planes per die, so
/// plane-parity suites can sweep the full dies × planes matrix without
/// hand-wiring controller configs.
pub fn sharded_plane_engine(
    strategy: WriteStrategy,
    scheme: NmScheme,
    seed: u64,
    dies: u32,
    planes: u32,
    policy: StripePolicy,
) -> StorageEngine {
    let chip = divided_chip(seed, dies, planes);
    striped_engine(strategy, scheme, chip, dies, policy, None, false)
}

/// Deliberately aggressive placement thresholds so hot-tier absorption,
/// destages and wear-shifting stripe swaps all engage within a short op
/// stream — the knobs parity and crash suites run the heat device at.
pub fn aggressive_heat_policy() -> DefaultPolicy {
    DefaultPolicy::default()
        .with_hot_threshold(2)
        .with_range_pages(2)
        .with_tier_fraction(0.0001)
        .with_destage_high_water(0.4)
        .with_migrate_wear_delta(2)
}

/// [`sharded_plane_engine`]'s heat-placement twin: the identical table
/// shape and striped geometry, but the device is mounted behind an
/// `ipa-heat` `HeatDevice` (SLC hot tier + wear-shifting maintenance
/// jobs) under [`aggressive_heat_policy`] — so parity suites can prove
/// migration moves *placement* and never *state*.
pub fn heat_heap_engine(
    strategy: WriteStrategy,
    scheme: NmScheme,
    seed: u64,
    dies: u32,
    planes: u32,
    policy: StripePolicy,
) -> StorageEngine {
    let chip = compact_chip(seed, dies, planes);
    striped_engine(strategy, scheme, chip, dies, policy, Some(None), true)
}

/// [`heat_heap_engine`]'s no-migration reference: byte-identical table
/// shape and compact striped geometry, but the device is a plain
/// maintained stripe — no hot tier, no wear shifting. Parity suites
/// diff logical state against this to isolate the heat layer.
pub fn compact_heap_engine(
    strategy: WriteStrategy,
    scheme: NmScheme,
    seed: u64,
    dies: u32,
    planes: u32,
    policy: StripePolicy,
) -> StorageEngine {
    let chip = compact_chip(seed, dies, planes);
    striped_engine(strategy, scheme, chip, dies, policy, Some(None), false)
}

/// [`sharded_heap_engine`]'s background-maintenance twin: the identical
/// controller topology and table shape, but low-water GC deferred to an
/// `ipa-maint` scheduler (`MaintainedFtl`) and an optional NCQ queue
/// cap on the controller — so GC-parity suites can compare inline and
/// background reclaim run-for-run.
pub fn maintained_heap_engine(
    strategy: WriteStrategy,
    scheme: NmScheme,
    seed: u64,
    dies: u32,
    policy: StripePolicy,
    queue_cap: Option<usize>,
) -> StorageEngine {
    let chip = divided_chip(seed, dies, 1);
    striped_engine(strategy, scheme, chip, dies, policy, Some(queue_cap), false)
}

/// The canonical 2 KiB IPA page layout the device-level suites format
/// their regions with (24 B header, 8 B meta, 2×4 scheme).
pub fn device_layout() -> PageLayout {
    PageLayout::new(2048, 24, 8, NmScheme::new(2, 4))
}

/// A die-striped device for queued-vs-sync parity suites: `dies` dies
/// (≤ 4 channels, then stacking) × `planes` planes of quiet pSLC under
/// the given write path (traditional, conventional-IPA detection, or
/// native `write_delta` — via [`device_layout`]). Deterministic for a
/// seed, so two calls build identical twins to drive through different
/// interfaces.
pub fn striped_device(strategy: WriteStrategy, seed: u64, dies: u32, planes: u32) -> ShardedFtl {
    ShardedFtl::new(
        striped_controller(seed, dies, planes),
        striped_ftl_config(strategy),
        StripePolicy::RoundRobin,
    )
}

/// [`striped_device`] with latency-QoS scheduling enabled on the
/// controller (read promotion over queued programs, erase suspend) — the
/// QoS-parity suites drive this twin against the FIFO [`striped_device`]
/// to prove the scheduler reorders *time* and never *state*.
pub fn striped_qos_device(
    strategy: WriteStrategy,
    seed: u64,
    dies: u32,
    planes: u32,
) -> ShardedFtl {
    ShardedFtl::new(
        striped_controller(seed, dies, planes).with_qos(),
        striped_ftl_config(strategy),
        StripePolicy::RoundRobin,
    )
}

fn striped_controller(seed: u64, dies: u32, planes: u32) -> ControllerConfig {
    assert!(dies >= 1 && dies.is_power_of_two(), "die counts are 2^k");
    let channels = dies.min(4);
    let chip = DeviceConfig::new(
        Geometry::new(24u32.next_multiple_of(planes), 8, 2048, 64).with_planes(planes),
        FlashMode::PSlc,
    )
    .with_disturb(DisturbRates::none())
    .with_seed(seed);
    ControllerConfig::new(channels, dies / channels, chip)
}

fn striped_ftl_config(strategy: WriteStrategy) -> FtlConfig {
    match strategy {
        WriteStrategy::Traditional => FtlConfig::traditional(),
        WriteStrategy::IpaConventional => FtlConfig::ipa_conventional(device_layout()),
        WriteStrategy::IpaNative => FtlConfig::ipa_native(device_layout()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = quiet_slc(24, 8, 5);
        let b = quiet_slc(24, 8, 5);
        assert_eq!(a.geometry.page_size, b.geometry.page_size);
        // Engines built from the same seed start from identical stats.
        let ea = heap_engine(WriteStrategy::IpaNative, NmScheme::new(2, 4), 7);
        let eb = heap_engine(WriteStrategy::IpaNative, NmScheme::new(2, 4), 7);
        assert_eq!(ea.stats().device.host_writes, eb.stats().device.host_writes);
    }

    #[test]
    fn multi_plane_fixture_pairs_on_a_write_burst() {
        let rr = StripePolicy::RoundRobin;
        let trad = (WriteStrategy::Traditional, NmScheme::disabled());
        // One scheduled die: every pair comes from plane pairing alone.
        let mut e = sharded_plane_engine(trad.0, trad.1, 11, 1, 2, rr);
        let t = e.table("m").unwrap();
        // Enough rows to dirty many 8 KB heap pages, so evictions and the
        // final flush emit consecutive out-of-place writes.
        let tx = e.begin();
        for i in 0..2000u64 {
            let mut row = [0u8; crate::ops::ROW];
            row[..8].copy_from_slice(&i.to_le_bytes());
            e.insert(tx, t, &row).unwrap();
        }
        e.commit(tx).unwrap();
        e.flush_all().unwrap();
        assert!(
            e.stats().device.multi_plane_pairs > 0,
            "a flush burst through the 2-plane fixture must pair"
        );
        // And the single-plane fixture, by construction, never does.
        let single = sharded_plane_engine(trad.0, trad.1, 11, 2, 1, rr);
        assert_eq!(single.stats().device.multi_plane_pairs, 0);
    }

    #[test]
    fn strategy_matrix_covers_all_three_paths() {
        let kinds: Vec<WriteStrategy> = all_strategies().iter().map(|(s, _)| *s).collect();
        assert!(kinds.contains(&WriteStrategy::Traditional));
        assert!(kinds.contains(&WriteStrategy::IpaConventional));
        assert!(kinds.contains(&WriteStrategy::IpaNative));
    }
}
