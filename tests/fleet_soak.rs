//! Fleet-scale crash/recovery soak (PR 7 acceptance wall).
//!
//! Sixteen tenants — alternating TPC-B-style and TATP-style streams —
//! share one 4-channel × 2-die device under an NCQ cap with latency-QoS
//! scheduling. A seeded chaos loop kills and recovers tenants more than
//! fifty times mid-run; after *every* recovery the tenant's logical state
//! must match its model byte-for-byte (and hold the TPC-B money-flow
//! equation), checkpoints must keep recycling sealed WAL stripes, and no
//! tenant's p99.9 may run away from the fleet's.

use ipa_fleet::{run_soak, Fleet, SoakConfig, SoakReport, TenantMix, TenantWorkload};
use ipa_storage::TableSpec;

/// The root-suite soak: 18 rounds × 3 kills = 54 kill/recover cycles.
fn soaked(tenants: usize, seed: u64) -> SoakReport {
    let cfg = SoakConfig {
        tenants,
        rounds: 18,
        seed,
    };
    run_soak(&cfg).expect("soak completes")
}

#[test]
fn sixteen_tenant_soak_survives_fifty_plus_kill_recover_cycles() {
    let report = soaked(16, 0x000F_1EE7_50AC);
    assert_eq!(report.tenants, 16);
    assert_eq!(ipa_fleet::TOPOLOGY, (4, 2));

    // ≥ 50 seeded kill/recover cycles, every one of them recovered and
    // verified inside run_soak (it panics on any divergence).
    assert!(
        report.kills >= 50,
        "soak must exercise ≥ 50 kill/recover cycles, got {}",
        report.kills
    );
    assert_eq!(report.recoveries, report.kills, "every kill was recovered");
    assert!(
        report.records_replayed > 0,
        "recoveries replayed WAL records"
    );

    // The fleet actually ran: every tenant committed its full quota.
    assert!(report.steps >= (report.tenants * 50) as u64);
    assert!(report.elapsed_ns > 0 && report.tps() > 0.0);
}

#[test]
fn soak_checkpoints_reclaim_wal_log_space() {
    let report = soaked(16, 0x000F_1EE7_50AC);
    assert!(
        report.wal_stripes_reclaimed > 0,
        "checkpoints must recycle sealed WAL stripes"
    );
    // Reclamation is what bounds steady-state log space: the run appends
    // far more WAL pages than any tenant's log capacity, so without
    // recycling the soak could not have completed at all.
    assert!(
        report.wal_stripes_reclaimed > ipa_fleet::WAL_PAGES / 4,
        "a long soak recycles a meaningful share of the log ({} pages reclaimed)",
        report.wal_stripes_reclaimed
    );
}

#[test]
fn soak_holds_per_tenant_tail_fairness_under_queue_caps() {
    let report = soaked(16, 0x000F_1EE7_50AC);
    assert_eq!(report.per_tenant.len(), 16);
    for (i, p) in report.per_tenant.iter().enumerate() {
        assert!(p.count > 0 && p.p999_ns > 0, "tenant {i} measured latency");
    }
    let spread = report.p999_spread();
    assert!(spread >= 1.0 && spread.is_finite());
    // Under the shared NCQ cap + QoS no tenant's p99.9 may run away:
    // the mixes differ (update-heavy vs read-mostly), so perfect equality
    // is impossible, but an order of magnitude apart would mean the
    // scheduler is starving someone.
    assert!(
        spread < 10.0,
        "p99.9 spread across tenants too wide: {spread:.2}"
    );
    // QoS + caps were actually on for this measurement.
    let ctrl = report.controller.expect("shared controller stats");
    assert!(ctrl.backpressure_stalls > 0, "queue cap engaged");
}

#[test]
fn soak_is_deterministic_for_a_seed() {
    let a = soaked(16, 7);
    let b = soaked(16, 7);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.kills, b.kills);
    assert_eq!(a.records_replayed, b.records_replayed);
    assert_eq!(a.wal_stripes_reclaimed, b.wal_stripes_reclaimed);
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
    let pa: Vec<u64> = a.per_tenant.iter().map(|p| p.p999_ns).collect();
    let pb: Vec<u64> = b.per_tenant.iter().map(|p| p.p999_ns).collect();
    assert_eq!(pa, pb, "per-tenant tails reproduce exactly");
}

#[test]
fn evicted_tenant_frees_its_share_while_neighbours_keep_running() {
    let mut fleet = Fleet::builder(0xF1EE7)
        .tenant(
            "keeper",
            TenantWorkload::tables(TenantMix::TpcB, 32, 64, 2048),
        )
        .tenant("leaver", vec![TableSpec::heap("rows", 64, 16)])
        .build()
        .expect("fleet builds");

    let mut keeper = TenantWorkload::new(TenantMix::TpcB, 42, "keeper");
    keeper.load(fleet.tenant_mut(0).engine_mut(), 32).unwrap();

    // The leaver writes real data, then departs; RAII teardown must hand
    // its window back to the shared device.
    {
        let t = fleet.tenant_mut(1);
        let e = t.engine_mut();
        let table = e.table("rows").unwrap();
        let tx = e.begin();
        for i in 0..8u8 {
            e.insert(tx, table, &[i; 64]).unwrap();
        }
        e.commit(tx).unwrap();
        e.flush_all().unwrap();
    }
    let before = fleet.shared_stats().host_writes;
    drop(fleet.evict(1));

    // The keeper is unaffected: it can still run, crash and recover.
    for _ in 0..16 {
        keeper.step(fleet.tenant_mut(0).engine_mut()).unwrap();
    }
    let t = fleet.tenant_mut(0);
    t.kill();
    t.recover().unwrap();
    keeper.verify(t.engine_mut());
    assert!(fleet.shared_stats().host_writes >= before);
    assert_eq!(fleet.len(), 1);
}
