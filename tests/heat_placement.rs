//! `heat_placement` — the heat-based-placement wall.
//!
//! Two claims, both end to end:
//!
//! 1. **Wear stays bounded.** Under a deliberately Zipfian write stream,
//!    the fixed round-robin stripe concentrates erases on the dies the
//!    hot head lands on — `wear_spread()` measurably diverges from the
//!    uniform-workload spread. The same stream through an `ipa-heat`
//!    [`HeatDevice`] (SLC hot tier + wear-shifting migration) keeps the
//!    spread within 2× of the uniform baseline at equal-or-better
//!    throughput.
//! 2. **Migration moves placement, never state.** `MigrateRange` and
//!    `Destage` jobs interleaved with live host traffic — across dies
//!    {1, 2, 4} × planes {1, 2} × all three write strategies — leave the
//!    logical database byte-identical to the no-migration reference
//!    engine, and committed transactions survive a crash mid-migration
//!    via the ordinary WAL replay.

use ipa_core::NmScheme;
use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
use ipa_ftl::{BlockDevice, FtlConfig, IoQueue, ShardedFtl, StripePolicy, WriteStrategy};
use ipa_heat::{DefaultPolicy, HeatDevice};
use ipa_maint::{MaintConfig, MaintainedFtl};
use ipa_storage::Rid;
use ipa_testkit::{all_strategies, compact_heap_engine, heat_heap_engine, ModelHarness};
use ipa_workloads::ZipfTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGE: usize = 2048;
const SPAN: u64 = 192;
const OPS: u64 = 9_000;
const THETA: f64 = 0.99;

/// A 2-channel × 2-die pSLC stripe, the wall's fixed-placement device.
fn stripe() -> ShardedFtl {
    let chip = DeviceConfig::new(Geometry::new(16, 8, PAGE, 64), FlashMode::PSlc)
        .with_disturb(DisturbRates::none());
    ShardedFtl::new(
        ControllerConfig::new(2, 2, chip),
        FtlConfig::traditional().with_background_gc(),
        StripePolicy::RoundRobin,
    )
}

use ipa_controller::ControllerConfig;

fn wall_policy() -> DefaultPolicy {
    DefaultPolicy::default()
        .with_hot_threshold(3)
        .with_range_pages(2)
        .with_tier_fraction(0.10)
        .with_destage_high_water(0.6)
        .with_migrate_wear_delta(2)
}

/// Drive `OPS` writes (with interleaved reads so dies go idle for the
/// maintenance scheduler) drawn by `next_lba`, and return
/// `(wear_spread, elapsed_ns)`.
fn drive<D: BlockDevice + ?Sized>(
    dev: &mut D,
    spread_of: impl Fn(&D) -> u64,
    mut next_lba: impl FnMut(&mut StdRng) -> u64,
) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0x4EA7);
    let mut buf = vec![0u8; PAGE];
    for i in 0..OPS {
        let lba = next_lba(&mut rng);
        dev.write(lba, &vec![(i % 251) as u8; PAGE]).unwrap();
        if i % 4 == 0 {
            dev.read(lba, &mut buf).unwrap();
        }
    }
    (spread_of(dev), dev.elapsed_ns())
}

#[test]
fn zipfian_wear_stays_bounded_under_heat_placement() {
    let zipf = ZipfTable::new(SPAN, THETA);

    // Uniform baseline on the fixed stripe: the spread every other run
    // is judged against.
    let mut uniform = stripe();
    let (spread_uniform, _) = drive(
        &mut uniform,
        |d: &ShardedFtl| d.controller().stats().wear_spread(),
        |rng| rng.gen_range(0..SPAN),
    );

    // The same stripe under the Zipfian stream: no placement logic, so
    // the hot head's dies eat the erases.
    let mut fixed = stripe();
    let (spread_fixed, elapsed_fixed) = drive(
        &mut fixed,
        |d: &ShardedFtl| d.controller().stats().wear_spread(),
        |rng| zipf.sample(rng),
    );

    // The Zipfian stream through the heat device: hot ranges absorb into
    // the SLC tier, wear shifting re-stripes what leaks through.
    let mut heat = HeatDevice::new(
        MaintainedFtl::new(stripe(), MaintConfig::default()),
        Box::new(wall_policy()),
    );
    let (spread_heat, elapsed_heat) = drive(
        &mut heat,
        |d: &HeatDevice| d.controller().expect("striped").stats().wear_spread(),
        |rng| zipf.sample(rng),
    );

    let bound = 2 * spread_uniform.max(1);
    assert!(
        spread_fixed > bound,
        "the fixed stripe must measurably diverge under skew: \
         zipf {spread_fixed} vs uniform {spread_uniform}"
    );
    assert!(
        spread_heat <= bound,
        "heat placement must keep the spread within 2× of uniform: \
         heat {spread_heat} vs uniform {spread_uniform} (fixed reached {spread_fixed})"
    );
    assert!(
        elapsed_heat <= elapsed_fixed,
        "equal-or-better throughput: heat {elapsed_heat} ns vs fixed {elapsed_fixed} ns"
    );

    // The claim is about the mechanisms, so they must have engaged.
    let h = heat.heat_stats();
    let m = heat.maint_stats();
    assert!(h.hot_hits > 0, "tier never absorbed: {h}");
    assert!(
        h.destaged_pages > 0 || h.range_migrations > 0,
        "no background placement work ran: {h} / {m}"
    );
    heat.check_invariants();
}

/// Run `ops` harness steps on an engine, prove it matches its own model
/// across a restart, and return the canonical logical state.
fn final_state(
    mut e: ipa_storage::StorageEngine,
    seed: u64,
    ops: usize,
    label: String,
) -> Vec<(Rid, Vec<u8>)> {
    let t = e.table("m").unwrap();
    let mut h = ModelHarness::new(seed, label);
    h.run(&mut e, t, ops);
    e.restart_clean().unwrap();
    h.assert_engine_matches(&mut e, t);
    h.canonical_rows()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Migration parity: dies {1, 2, 4} × planes {1, 2} × all three
    /// write strategies, heat device vs its no-heat twin on the very
    /// same striped geometry, byte-identical logical state.
    #[test]
    fn migration_parity_full_matrix(seed in any::<u64>(), ops in 150usize..240) {
        for (strategy, scheme) in all_strategies() {
            for dies in [1u32, 2, 4] {
                for planes in [1u32, 2] {
                    let reference = final_state(
                        compact_heap_engine(
                            strategy,
                            scheme,
                            seed,
                            dies,
                            planes,
                            StripePolicy::RoundRobin,
                        ),
                        seed,
                        ops,
                        format!("plain/{dies}d×{planes}p/{strategy:?}(seed {seed})"),
                    );
                    let migrated = final_state(
                        heat_heap_engine(
                            strategy,
                            scheme,
                            seed,
                            dies,
                            planes,
                            StripePolicy::RoundRobin,
                        ),
                        seed,
                        ops,
                        format!("heat/{dies}d×{planes}p/{strategy:?}(seed {seed})"),
                    );
                    prop_assert!(
                        reference == migrated,
                        "{dies} dies × {planes} planes under {strategy:?} diverged \
                         from the no-migration reference at seed {seed}"
                    );
                }
            }
        }
    }
}

/// Skew the engine's update stream onto the first two heap pages for
/// `rounds` flush cycles — the traffic shape that makes the tier churn
/// (absorb → high-water → destage) and piles erases onto the hot dies.
fn hammer_hot_pages(
    e: &mut ipa_storage::StorageEngine,
    t: ipa_storage::TableId,
    rids: &[Rid],
    rounds: u32,
    flush: bool,
) {
    // 29 rows per 2 KiB heap page: rows 0..58 live on pages 0 and 1.
    let hot: Vec<Rid> = rids.iter().copied().take(58).step_by(10).collect();
    let cold: Vec<Rid> = rids.iter().copied().skip(58).step_by(60).collect();
    for round in 0..rounds {
        let tx = e.begin();
        for (i, rid) in hot.iter().enumerate() {
            let v = (round as usize + i) as u8;
            e.update_field(tx, t, *rid, 8 + (i % 32), &[v]).unwrap();
        }
        if round % 5 == 0 {
            for rid in &cold {
                e.update_field(tx, t, *rid, 40, &[round as u8]).unwrap();
            }
        }
        e.commit(tx).unwrap();
        if flush {
            e.flush_all().unwrap();
        }
    }
}

fn seeded_rows(e: &mut ipa_storage::StorageEngine, t: ipa_storage::TableId, n: u64) -> Vec<Rid> {
    let tx = e.begin();
    let mut rids = Vec::new();
    for k in 0..n {
        let mut row = [0u8; 48];
        row[..8].copy_from_slice(&k.to_le_bytes());
        rids.push(e.insert(tx, t, &row).unwrap());
    }
    e.commit(tx).unwrap();
    e.flush_all().unwrap();
    rids
}

/// The parity matrix must actually migrate — otherwise it proves
/// nothing. Same fixture, update-heavy stream, counters checked.
#[test]
fn parity_fixture_really_destages_and_migrates() {
    let mut e = heat_heap_engine(
        WriteStrategy::IpaNative,
        NmScheme::new(2, 4),
        0x5EED,
        4,
        1,
        StripePolicy::RoundRobin,
    );
    let t = e.table("m").unwrap();
    let rids = seeded_rows(&mut e, t, 300);
    hammer_hot_pages(&mut e, t, &rids, 300, true);
    let hd = e.device_as::<HeatDevice>().expect("heat-mounted engine");
    let stats = hd.heat_stats();
    assert!(stats.hot_hits > 0, "tier never absorbed a write: {stats}");
    assert!(stats.destaged_pages > 0, "tier never destaged: {stats}");
    assert!(
        stats.range_migrations > 0,
        "wear shifting never swapped a stripe slot: {stats}"
    );
    hd.check_invariants();
}

#[test]
fn committed_state_survives_a_crash_mid_migration() {
    let mut e = heat_heap_engine(
        WriteStrategy::IpaNative,
        NmScheme::new(2, 4),
        0xC0FFEE,
        2,
        1,
        StripePolicy::RoundRobin,
    );
    let t = e.table("m").unwrap();

    // A committed, flushed base, then enough skewed flush rounds that
    // the device is actively destaging and migrating.
    let rids = seeded_rows(&mut e, t, 300);
    hammer_hot_pages(&mut e, t, &rids, 150, true);
    {
        let hd = e.device_as::<HeatDevice>().expect("heat-mounted engine");
        let stats = hd.heat_stats();
        assert!(
            stats.destaged_pages > 0 || stats.range_migrations > 0,
            "the crash must land mid-migration-era, not before any ran: {stats}"
        );
    }

    // Committed-but-unflushed update rounds on top: these live only in
    // the WAL when the crash lands.
    let mut latest = vec![0u8; rids.len()];
    for round in 0..6u8 {
        for (i, rid) in rids.iter().enumerate() {
            if (i as u8).wrapping_add(round) % 37 == 0 {
                let v = round.wrapping_mul(37).wrapping_add(i as u8).max(1);
                let tx = e.begin();
                e.update_field(tx, t, *rid, 20, &[v]).unwrap();
                e.commit(tx).unwrap();
                latest[i] = v;
            }
        }
    }

    // Uncommitted straggler, then the crash.
    let tx = e.begin();
    e.update_field(tx, t, rids[0], 40, &[0xEE]).unwrap();
    e.crash();
    let report = e.recover().unwrap();
    assert!(report.updates_redone > 0, "WAL replay must redo work");

    for (i, rid) in rids.iter().enumerate() {
        let row = e.get(t, *rid).unwrap();
        assert_eq!(row[20], latest[i], "committed update on row {i} lost");
        assert_eq!(
            u64::from_le_bytes(row[..8].try_into().unwrap()),
            i as u64,
            "row {i} identity corrupted across migration + crash"
        );
    }
    assert_ne!(e.get(t, rids[0]).unwrap()[40], 0xEE, "uncommitted redone");
    e.device_as::<HeatDevice>().unwrap().check_invariants();
}

/// The controller's utilisation identity: no die array and no channel bus
/// is ever busy for longer than the simulated time that has elapsed.
/// Nothing clamps the utilisation gauges, so this wall is what stands
/// between a timing-model bug and a plausible-looking `die_util_ppm_max`.
/// Driven on the stack with the most timing paths live at once: a QoS
/// 2-plane stripe under background GC (erases posted, then suspended by
/// promoted reads) behind the heat device, its tier off and two hot LBAs
/// wearing their dies so that wear shifting migrates.
#[test]
fn no_die_or_channel_is_busy_for_longer_than_elapsed() {
    let chip = DeviceConfig::new(
        Geometry::new(16, 8, PAGE, 64).with_planes(2),
        FlashMode::PSlc,
    )
    .with_disturb(DisturbRates::none());
    let stripe = ShardedFtl::new(
        ControllerConfig::new(2, 2, chip).with_qos(),
        FtlConfig::traditional().with_background_gc(),
        StripePolicy::RoundRobin,
    );
    let policy = wall_policy().with_hot_threshold(u32::MAX);
    let mut heat = HeatDevice::new(
        MaintainedFtl::new(stripe, MaintConfig::default()),
        Box::new(policy),
    );
    let ctrl = heat.controller().expect("striped").clone();
    let check = |step: u64| {
        for die in 0..ctrl.dies() {
            let f = ctrl.die_busy_fraction(die);
            assert!(f <= 1.0, "step {step}: die {die} busy {f} of elapsed");
        }
        for ch in 0..ctrl.config().channels {
            let f = ctrl.channel_busy_fraction(ch);
            assert!(f <= 1.0, "step {step}: channel {ch} busy {f} of elapsed");
        }
        let s = ctrl.stats();
        assert!(s.die_util_ppm_max <= 1_000_000, "step {step}: {s:?}");
        assert!(s.chan_util_ppm_max <= 1_000_000, "step {step}: {s:?}");
    };
    let mut buf = vec![0u8; PAGE];
    heat.write(2, &vec![0xC0; PAGE]).unwrap();
    for i in 0..6_000u64 {
        // LBAs 0 and 1 take 7 writes in 8; the rest spread over the span.
        let lba = if i % 8 < 7 { i % 2 } else { (i * 37) % SPAN };
        heat.write(lba, &vec![(i % 251) as u8; PAGE]).unwrap();
        if i % 4 == 0 {
            heat.read(lba, &mut buf).unwrap();
        }
        // Promoted reads do not wait out the program queues, so only
        // barriers leave the dies idle for maintenance: each read after
        // one is followed by a poll that finds every die idle, so GC
        // catches up and then wear shifting gets its turn.
        if i % 32 == 31 {
            for _ in 0..8 {
                IoQueue::sync(&mut heat);
                heat.read(2, &mut buf).unwrap();
            }
        }
        if i % 250 == 0 {
            check(i);
        }
    }
    check(6_000);

    // The identity is only worth as much as the paths that ran.
    let c = ctrl.stats();
    let h = heat.heat_stats();
    assert!(c.erase_suspends > 0, "no erase was suspended: {c:?}");
    assert!(c.reads_promoted > 0, "no read was promoted: {c:?}");
    assert!(h.range_migrations > 0, "no migration ran: {h}");
    heat.check_invariants();
}
