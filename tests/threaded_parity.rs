//! The threaded determinism wall.
//!
//! `Driver::run_threaded` defines its workload by *streams*, not
//! threads: a fixed set of deterministic per-stream op sequences over
//! disjoint LBA windows of one shared device. The thread count only
//! schedules those streams onto OS threads — so for every geometry in
//! the matrix (dies {1,2,4} × planes {1,2}) and threads {1,2,4}, the
//! final logical state (canonical read-back digest), the host-op
//! monotone counters, and the in-run model verification (every stream
//! checks each read against its own write model, and the device's
//! invariant sweep runs at the end) must all match the single-threaded
//! reference run.
//!
//! Timing-dependent counters (GC, queue waits, pairing) legitimately
//! differ when several streams interleave on one die; they are exactly
//! what this wall does *not* compare.

use ipa_ftl::StripePolicy;
use ipa_workloads::{Driver, ThreadedConfig, Topology};

/// Geometries: total dies {1, 2, 4} × planes {1, 2}.
fn geometries() -> Vec<Topology> {
    let mut out = Vec::new();
    for (ch, dpc) in [(1u32, 1u32), (2, 1), (2, 2)] {
        for planes in [1u32, 2] {
            out.push(Topology::new(ch, dpc, StripePolicy::RoundRobin).with_planes(planes));
        }
    }
    out
}

fn base_cfg(topology: Topology) -> ThreadedConfig {
    ThreadedConfig {
        streams: 8,
        ops_per_stream: 300,
        window: 24,
        topology,
        ..Default::default()
    }
}

#[test]
fn threaded_runs_match_single_threaded_across_the_matrix() {
    for topology in geometries() {
        let cfg = base_cfg(topology);
        // threads=1 is the serial reference; the workload itself is the
        // model harness (per-stream read-your-writes checks + the final
        // invariant sweep inside run_threaded).
        let reference = Driver::run_threaded(&cfg);
        assert!(reference.ops > 0 && reference.sim_ns > 0);

        for threads in [2u32, 4] {
            let run = Driver::run_threaded(&cfg.with_threads(threads));
            let label = format!("{topology} threads={threads}");

            // Final logical state: byte-identical read-back.
            assert_eq!(
                run.logical_digest, reference.logical_digest,
                "{label}: final logical state diverged from single-threaded"
            );

            // Monotone host-op counters: interleaving-independent.
            let (a, b) = (&run.device, &reference.device);
            assert_eq!(a.host_writes, b.host_writes, "{label}: host_writes");
            assert_eq!(a.host_reads, b.host_reads, "{label}: host_reads");
            assert_eq!(
                a.bytes_host_written, b.bytes_host_written,
                "{label}: bytes_host_written"
            );
            assert_eq!(
                a.bytes_host_read, b.bytes_host_read,
                "{label}: bytes_host_read"
            );
            assert_eq!(
                a.page_invalidations, b.page_invalidations,
                "{label}: page_invalidations (one per overwrite)"
            );
            assert_eq!(a.uncorrectable_reads, 0, "{label}: no run may lose data");
            assert_eq!(run.ops, reference.ops, "{label}: op count");
        }
    }
}

#[test]
fn threaded_parity_holds_under_qos_scheduling() {
    // The QoS scheduler reorders *completion times* (read promotion,
    // erase suspend), never state mutation order — so the same wall must
    // hold with it enabled on the widest geometry.
    let cfg = ThreadedConfig {
        qos: true,
        ..base_cfg(Topology::new(2, 2, StripePolicy::RoundRobin).with_planes(2))
    };
    let reference = Driver::run_threaded(&cfg);
    for threads in [2u32, 4] {
        let run = Driver::run_threaded(&cfg.with_threads(threads));
        assert_eq!(run.logical_digest, reference.logical_digest);
        assert_eq!(run.device.host_writes, reference.device.host_writes);
        assert_eq!(run.device.host_reads, reference.device.host_reads);
    }
}

#[test]
fn one_threads_posted_vector_never_leaks_into_anothers_blocking_read() {
    // Threads 0 and 1 post die-affine `ReadV`s on dies 0 and 1; threads
    // 2 and 3 issue blocking reads on the shards of dies 2 and 3, all
    // concurrently. How a read is counted and traced must depend on its
    // own die's context only, under any interleaving.
    use ipa_controller::{CommandKind, CommandOrigin, ControllerConfig, RingRecorder, TracePhase};
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
    use ipa_ftl::{BlockDevice, FtlConfig, IoRequest, ShardedFtl};
    use std::sync::{Arc, Barrier, Mutex};

    const DIES: u64 = 4;
    const ROUNDS: u64 = 300;
    const VECTOR: u64 = 4;
    let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
        .with_disturb(DisturbRates::none());
    let mut dev = ShardedFtl::new(
        ControllerConfig::new(2, 2, chip),
        FtlConfig::traditional(),
        StripePolicy::RoundRobin,
    );
    for lba in 0..DIES * VECTOR {
        dev.write(lba, &vec![lba as u8; 2048]).unwrap();
    }
    dev.sync();
    let rec = Arc::new(Mutex::new(RingRecorder::new(1 << 16)));
    dev.controller().set_tracer(rec.clone());

    let start = Barrier::new(DIES as usize);
    std::thread::scope(|s| {
        for die in 0..DIES {
            let (dev, start) = (&dev, &start);
            s.spawn(move || {
                // Round-robin stripe: LBAs ≡ die (mod DIES) live on `die`.
                let lbas: Vec<u64> = (0..VECTOR).map(|i| die + i * DIES).collect();
                let mut buf = vec![0u8; 2048];
                start.wait();
                for round in 0..ROUNDS {
                    if die < 2 {
                        let token = dev.submit_io(IoRequest::ReadV(lbas.clone())).unwrap();
                        dev.poll_io_checked(token).unwrap();
                    } else {
                        let (d, sub) = dev.locate(lbas[(round % VECTOR) as usize]).unwrap();
                        dev.shard(d).read(sub, &mut buf).unwrap();
                    }
                }
            });
        }
    });

    let stats = dev.controller().stats();
    assert_eq!(
        stats.posted_reads,
        2 * ROUNDS * VECTOR,
        "ReadV members only"
    );
    assert_eq!(stats.reads, 2 * ROUNDS * VECTOR + 2 * ROUNDS);
    let rec = rec.lock().unwrap();
    assert_eq!(rec.dropped(), 0);
    for e in rec.to_vec() {
        if e.kind == CommandKind::Read && e.phase == TracePhase::Completed {
            let expected = if e.die < 2 {
                CommandOrigin::ReadAhead
            } else {
                CommandOrigin::Host
            };
            assert_eq!(e.origin, expected, "read on die {}", e.die);
        }
    }
}
