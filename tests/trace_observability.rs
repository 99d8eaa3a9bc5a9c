//! Acceptance for the observability layer: the trace is *true*.
//!
//! A QoS background-GC run on the 4ch×2d topology is traced through a
//! [`RingRecorder`] attached mid-life (after load + warm-up), and the
//! recording must reconcile exactly with the controller's own counters
//! over the same window: one `Completed` event per dispatched command,
//! one `Promoted` instant per promoted read, and `Suspended`/`Resumed`
//! pairs matching the erase-suspend count. The Chrome export must parse
//! and put events on every die's track, and the bounded read-latency
//! histogram must agree with the exact-sample oracle to within its
//! log2 bucket at every reported quantile.

use std::sync::{Arc, Mutex};

use ipa_controller::{RingRecorder, SharedSink, TracePhase};
use ipa_flash::FlashMode;
use ipa_ftl::{StripePolicy, WriteStrategy};
use ipa_trace::{chrome_trace_dies, chrome_trace_json, LatencyHistogram};
use ipa_workloads::{
    build, Driver, DriverConfig, LatencyPercentiles, MaintMode, StackSpec, Topology, WorkloadKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn trace_reconciles_with_controller_stats() {
    let cfg = DriverConfig::default();
    let topo = Topology::new(4, 2, StripePolicy::RoundRobin);
    let mut bench = build(WorkloadKind::TpcB, 1, 8 * 1024);
    let mut engine = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
        .striped(topo, MaintMode::background(None).with_qos())
        .build(bench.as_mut(), 8 * 1024, &cfg)
        .expect("engine builds");
    let mut rng = StdRng::seed_from_u64(0x7C_B5EED);
    bench.load(&mut engine, &mut rng).expect("load");
    for _ in 0..500 {
        bench.run_tx(&mut engine, &mut rng).expect("warm-up tx");
    }
    engine.flush_all().expect("flush");

    // Attach the recorder mid-life and window the controller's counters,
    // latency samples and histogram from the same instant.
    let ctrl = Driver::controller_of(&engine).expect("striped device has a controller");
    let before = ctrl.stats();
    let hist_before = ctrl.read_latency_histogram();
    let cursor = ctrl.read_latency_count();
    let rec = Arc::new(Mutex::new(RingRecorder::new(1 << 22)));
    let sink: SharedSink = rec.clone();
    ctrl.set_tracer(sink);
    assert!(ctrl.tracing_enabled());

    for _ in 0..6_000 {
        bench.run_tx(&mut engine, &mut rng).expect("measured tx");
    }
    engine.flush_all().expect("flush");

    ctrl.clear_tracer();
    let after = ctrl.stats();
    let d = after.delta_since(&before);
    let rec = rec.lock().unwrap();
    let events = rec.to_vec();
    assert_eq!(rec.dropped(), 0, "ring must not have evicted");
    assert!(!events.is_empty());

    // Event counts == counter deltas, phase by phase. This is the claim
    // that the trace is an *account* of the run, not a sample of it.
    let count = |p: TracePhase| events.iter().filter(|e| e.phase == p).count() as u64;
    assert_eq!(
        count(TracePhase::Completed),
        d.commands,
        "every dispatched command completes exactly once in the trace"
    );
    assert_eq!(
        count(TracePhase::Promoted),
        d.reads_promoted,
        "promotion instants match the promoted-reads counter"
    );
    assert_eq!(
        count(TracePhase::Suspended),
        d.erase_suspends,
        "suspend instants match the erase-suspend counter"
    );
    assert_eq!(
        count(TracePhase::Resumed),
        count(TracePhase::Suspended),
        "every suspended erase resumes"
    );
    assert!(
        d.reads_promoted > 0,
        "the QoS run must actually promote reads for this wall to bite"
    );
    assert!(count(TracePhase::Started) >= d.commands);

    // The Chrome export parses and covers every die's track.
    let doc = chrome_trace_json(&events, "observability wall");
    let dies_seen = chrome_trace_dies(&doc).expect("chrome trace JSON parses");
    for die in 0..topo.dies() as u64 {
        assert!(
            dies_seen.contains(&die),
            "die {die} has no events on its track"
        );
    }

    // The bounded histogram agrees with the exact-sample oracle over the
    // same window: same count, and every reported quantile in the same
    // log2 bucket (the histogram's resolution guarantee).
    let hist = ctrl.read_latency_histogram().delta_since(&hist_before);
    let exact = LatencyPercentiles::from_samples(ctrl.read_latencies()[cursor..].to_vec());
    assert_eq!(hist.count(), exact.count);
    assert!(hist.count() > 1_000, "enough reads for a p99.9");
    for (q, e) in [
        (0.50, exact.p50_ns),
        (0.95, exact.p95_ns),
        (0.99, exact.p99_ns),
        (0.999, exact.p999_ns),
    ] {
        let est = hist.percentile(q);
        assert_eq!(
            LatencyHistogram::bucket_index(est),
            LatencyHistogram::bucket_index(e),
            "q={q}: histogram {est} vs exact {e} disagree beyond one log2 bucket"
        );
    }
    // A windowed delta carries the lifetime extremes (min/max cannot be
    // subtracted out of a histogram), so max bounds the window's max.
    assert!(hist.max() >= exact.max_ns);
}
