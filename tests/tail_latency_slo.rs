//! Acceptance for the latency-QoS I/O scheduler — the PR's SLO wall.
//!
//! On the 4-channel × 2-die controller running the mixed OLTP sweep
//! (TPC-B + TATP, 8 client streams) with background GC active, turning
//! on QoS scheduling (per-die reorder windows promoting short posted
//! reads over queued programs, erase-suspend under reclaim erases) must
//! cut the p99.9 *device read* latency by at least 25 % against the
//! FIFO baseline — without buying the tail win with throughput: tps must
//! stay at least equal (QoS routinely improves it, since promoted reads
//! unblock the buffer pool's miss path).
//!
//! The comparison uses the traditional write strategy because that is
//! the GC-heavy configuration — the read tail under FIFO is queued
//! programs and reclaim erases, exactly what the reorder windows and
//! erase-suspend exist to cut. `qos_parity` (state equivalence) and
//! `queued_parity` (queued ≡ sync) hold alongside; this wall is the
//! *time* side of the claim.

use ipa_flash::FlashMode;
use ipa_ftl::{StripePolicy, WriteStrategy};
use ipa_workloads::{
    Driver, DriverConfig, MaintMode, RunResult, StackSpec, Topology, WorkloadKind,
};

fn run_mode(kind: WorkloadKind, maint: MaintMode) -> RunResult {
    let cfg = DriverConfig::default()
        .with_transactions(20_000)
        .with_streams(8);
    Driver::run_spec(
        kind,
        1,
        &StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
            .striped(Topology::new(4, 2, StripePolicy::RoundRobin), maint),
        &cfg,
    )
    .expect("maintained run")
}

#[test]
fn qos_cuts_p999_read_latency_at_equal_throughput() {
    let mut ratios = Vec::new();
    for kind in [WorkloadKind::TpcB, WorkloadKind::Tatp] {
        let fifo = run_mode(kind, MaintMode::background(None));
        let qos = run_mode(kind, MaintMode::background(None).with_qos());

        // Both arms sampled enough reads for a p99.9 to mean something.
        assert!(
            fifo.read_latency.count > 1_000 && qos.read_latency.count > 1_000,
            "{}: too few device reads sampled ({} fifo / {} qos)",
            kind.name(),
            fifo.read_latency.count,
            qos.read_latency.count
        );

        // Equal throughput: the tail win may not slow the run down.
        assert!(
            qos.tps >= fifo.tps * 0.95,
            "{}: QoS lost throughput (fifo {:.0} vs qos {:.0} tps)",
            kind.name(),
            fifo.tps,
            qos.tps
        );

        // The scheduler must be visibly working, not winning by accident.
        let c = qos.controller.expect("controller stats");
        assert!(
            c.reads_promoted > 0,
            "{}: QoS run never promoted a read",
            kind.name()
        );
        let cf = fifo.controller.expect("controller stats");
        assert_eq!(cf.reads_promoted, 0, "{}: FIFO promoted", kind.name());
        assert_eq!(cf.erase_suspends, 0, "{}: FIFO suspended", kind.name());

        let ratio = qos.read_latency.p999_ns as f64 / fifo.read_latency.p999_ns.max(1) as f64;
        println!(
            "{}: p99.9 read {} -> {} ns ({:.2}x), promoted {}, suspends {}",
            kind.name(),
            fifo.read_latency.p999_ns,
            qos.read_latency.p999_ns,
            ratio,
            c.reads_promoted,
            c.erase_suspends,
        );
        ratios.push(ratio);

        if kind == WorkloadKind::TpcB {
            // The GC-heavy workload must actually have background GC
            // active — the tail being cut includes reclaim erases.
            assert!(
                qos.device.background_gc_erases > 0,
                "TPC-B run never background-garbage-collected"
            );
        }
    }

    // The SLO: ≥ 25 % p99.9 read-tail cut on the mixed sweep
    // (geometric mean across the two workloads).
    let g = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        g <= 0.75,
        "mixed-sweep p99.9 read tail only improved to {g:.2}x of FIFO (need <= 0.75x)"
    );
}
