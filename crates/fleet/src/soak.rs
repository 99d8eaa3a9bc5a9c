//! The crash/recovery soak: a seeded multi-tenant run with random
//! kill/recover cycles, per-tenant invariant checks after every recovery,
//! and bounded WAL space via periodic checkpoints.
//!
//! Tenants alternate TPC-B-style and TATP-style streams and share one
//! multi-channel device. Scheduling is earliest-clock-first across
//! tenants (the same discipline as the multi-stream benchmark driver), so
//! per-tenant latency samples include queueing behind the neighbours —
//! which is exactly what the fairness check is about.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ipa_controller::ControllerStats;
use ipa_workloads::{
    engine_metrics, fairness_spread, LatencyPercentiles, MetricsSnapshot, CPU_NS_PER_TX,
};

use crate::fleet::{Fleet, PAGE_SIZE};
use crate::workload::{TenantMix, TenantWorkload};

/// Base rows per tenant (accounts / subscribers).
const ROWS_PER_TENANT: u64 = 48;

/// Transactions per tenant per round.
const STEPS_PER_ROUND: usize = 6;

/// Random kill → recover → verify cycles per round.
const KILLS_PER_ROUND: usize = 3;

/// Checkpoint every tenant each this many rounds (log-space recycling).
const CHECKPOINT_EVERY_ROUNDS: usize = 2;

/// Soak-run shape: how many tenants, for how many rounds, from which
/// seed. Each round runs 6 transactions per tenant and 3 kill/recover
/// cycles, and every other round checkpoints; 16 tenants × 18 rounds is
/// the root-suite scale (54 cycles).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    pub tenants: usize,
    pub rounds: usize,
    /// Seeds the shared device, every tenant's stream and the chaos.
    pub seed: u64,
}

/// What a soak run did and measured.
#[derive(Debug, Clone)]
pub struct SoakReport {
    pub tenants: usize,
    /// Committed transactions across the fleet (loads excluded).
    pub steps: u64,
    pub kills: u64,
    pub recoveries: u64,
    /// WAL records scanned by all recoveries together.
    pub records_replayed: u64,
    /// Sealed log pages recycled by checkpoints, fleet-wide.
    pub wal_stripes_reclaimed: u64,
    /// Per-tenant device-latency distributions, tenant-indexed.
    pub per_tenant: Vec<LatencyPercentiles>,
    /// Shared-controller counters at the end of the run.
    pub controller: Option<ControllerStats>,
    /// Simulated span of the soak (max tenant clock), nanoseconds.
    pub elapsed_ns: u64,
    /// One [`MetricsSnapshot`] per tenant per round (outer index =
    /// round), taken after the round's chaos and checkpoints settle.
    /// Window a tenant's round with `delta_since` against the previous
    /// round's snapshot to see what that round cost it.
    pub metrics_per_round: Vec<Vec<MetricsSnapshot>>,
}

impl SoakReport {
    /// Cross-tenant p99.9 fairness (max/min ratio; 1.0 = perfectly fair).
    pub fn p999_spread(&self) -> f64 {
        let tails: Vec<u64> = self.per_tenant.iter().map(|p| p.p999_ns).collect();
        fairness_spread(&tails)
    }

    /// Committed transactions per simulated second.
    pub fn tps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.steps as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }
}

/// Run the soak. Panics (with the tenant's label) if any tenant's
/// post-recovery state disagrees with its model — that is the point.
pub fn run_soak(cfg: &SoakConfig) -> ipa_storage::Result<SoakReport> {
    assert!(cfg.tenants >= 1);
    let expected_steps = (cfg.rounds * STEPS_PER_ROUND) as u64;

    let mut builder = Fleet::builder(cfg.seed);
    let mut workloads: Vec<TenantWorkload> = Vec::with_capacity(cfg.tenants);
    for i in 0..cfg.tenants {
        let mix = if i % 2 == 0 {
            TenantMix::TpcB
        } else {
            TenantMix::Tatp
        };
        let label = format!("t{i:02}-{}", mix.name());
        builder = builder.tenant(
            label.clone(),
            TenantWorkload::tables(mix, ROWS_PER_TENANT, expected_steps, PAGE_SIZE),
        );
        workloads.push(TenantWorkload::new(
            mix,
            cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            label,
        ));
    }
    let mut fleet = builder.build()?;
    for (i, w) in workloads.iter_mut().enumerate() {
        w.load(fleet.tenant_mut(i).engine_mut(), ROWS_PER_TENANT)?;
    }

    let start_ns = fleet.clock_ns();
    let mut clocks = vec![start_ns; cfg.tenants];
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); cfg.tenants];
    let mut chaos = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD_BEEF);
    let mut records_replayed = 0u64;
    let mut metrics_per_round: Vec<Vec<MetricsSnapshot>> = Vec::with_capacity(cfg.rounds);

    for round in 0..cfg.rounds {
        // Earliest-clock-first across every tenant's quota this round.
        let mut remaining = vec![STEPS_PER_ROUND; cfg.tenants];
        let mut left = cfg.tenants * STEPS_PER_ROUND;
        while left > 0 {
            let i = (0..cfg.tenants)
                .filter(|&i| remaining[i] > 0)
                .min_by_key(|&i| clocks[i])
                .expect("quota left");
            let t = fleet.tenant_mut(i);
            t.engine_mut()
                .pool_mut()
                .device_mut()
                .set_submission_clock_ns(clocks[i]);
            workloads[i].step(t.engine_mut())?;
            let done = t.engine().pool().device().submission_clock_ns();
            samples[i].push(done.saturating_sub(clocks[i]));
            clocks[i] = done + CPU_NS_PER_TX;
            remaining[i] -= 1;
            left -= 1;
        }

        // Chaos: kill a few tenants at this (seeded-arbitrary) point,
        // recover them through WAL replay, and hold every invariant.
        for _ in 0..KILLS_PER_ROUND {
            let v = chaos.gen_range(0..cfg.tenants);
            let t = fleet.tenant_mut(v);
            t.kill();
            let report = t.recover()?;
            records_replayed += report.records_scanned as u64;
            workloads[v].verify(t.engine_mut());
            // Recovery I/O happened on the device's clock; don't let the
            // tenant's logical clock lag behind what it just consumed.
            clocks[v] = clocks[v].max(t.engine().pool().device().submission_clock_ns());
        }

        // Recycle dead log space so the WAL footprint stays bounded no
        // matter how long the soak runs.
        if (round + 1) % CHECKPOINT_EVERY_ROUNDS == 0 {
            for i in 0..cfg.tenants {
                fleet.tenant_mut(i).checkpoint()?;
            }
        }

        // Per-tenant observability: the round closes with one unified
        // snapshot per tenant, so a post-mortem can window any tenant's
        // counters round-by-round.
        metrics_per_round.push(
            (0..cfg.tenants)
                .map(|i| engine_metrics(fleet.tenant_mut(i).engine()))
                .collect(),
        );
    }

    for (i, w) in workloads.iter().enumerate() {
        w.verify(fleet.tenant_mut(i).engine_mut());
    }

    Ok(SoakReport {
        tenants: cfg.tenants,
        steps: workloads.iter().map(|w| w.steps).sum(),
        kills: fleet.kills(),
        recoveries: fleet.recoveries(),
        records_replayed,
        wal_stripes_reclaimed: fleet.wal_stripes_reclaimed(),
        per_tenant: samples
            .into_iter()
            .map(LatencyPercentiles::from_samples)
            .collect(),
        controller: fleet.controller_stats(),
        elapsed_ns: clocks.iter().max().unwrap().saturating_sub(start_ns),
        metrics_per_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pocket soak: 4 tenants, enough cycles to exercise every path
    /// (kill, recover, verify, checkpoint, reclaim) in a few seconds.
    #[test]
    fn pocket_soak_holds_invariants_and_reclaims_log_space() {
        let cfg = SoakConfig {
            tenants: 4,
            rounds: 6,
            seed: 0x50AC,
        };
        let report = run_soak(&cfg).expect("soak runs");
        assert_eq!(report.tenants, 4);
        assert_eq!(report.kills, 6 * KILLS_PER_ROUND as u64);
        assert_eq!(report.recoveries, report.kills);
        assert!(report.steps > 0 && report.elapsed_ns > 0);
        assert!(
            report.wal_stripes_reclaimed > 0,
            "checkpoints must recycle sealed log pages"
        );
        assert!(report.records_replayed > 0, "recoveries scanned the log");
        assert!(report.p999_spread() >= 1.0);
        assert!(report.controller.is_some());
        // One snapshot per tenant per round, with commits monotone
        // round-over-round and windows free of counter underflow.
        assert_eq!(report.metrics_per_round.len(), 6);
        for round in &report.metrics_per_round {
            assert_eq!(round.len(), 4);
        }
        let committed = |s: &MetricsSnapshot| s.get("engine.committed").unwrap().as_u64();
        for t in 0..4 {
            for r in 1..report.metrics_per_round.len() {
                let prev = &report.metrics_per_round[r - 1][t];
                let now = &report.metrics_per_round[r][t];
                assert!(committed(now) >= committed(prev));
                let w = now.delta_since(prev);
                assert!(
                    committed(&w) <= committed(now),
                    "windowed counters stay within totals"
                );
            }
        }
    }

    #[test]
    fn soak_is_deterministic_for_a_seed() {
        let cfg = SoakConfig {
            tenants: 2,
            rounds: 3,
            seed: 0x50AC,
        };
        let a = run_soak(&cfg).unwrap();
        let b = run_soak(&cfg).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.wal_stripes_reclaimed, b.wal_stripes_reclaimed);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
    }
}
