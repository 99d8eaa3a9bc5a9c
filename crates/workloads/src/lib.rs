//! # `ipa-workloads` — deterministic OLTP workload generators
//!
//! The paper evaluates IPA under TPC-B, TPC-C and TATP, and motivates the
//! write-amplification analysis with a LinkBench-based social-network
//! trace. This crate implements all four as seeded, deterministic
//! transaction generators over the [`ipa_storage::StorageEngine`], plus
//! the [`Driver`] that produces the per-run counters every bench table is
//! built from.

pub mod driver;
pub mod linkbench;
pub mod metrics;
pub mod spec;
pub mod tatp;
pub mod tpcb;
pub mod tpcc;
pub mod util;

pub use driver::{
    fairness_spread, Driver, DriverConfig, LatencyPercentiles, MaintMode, RunResult, ScanResult,
    StackSpec, StreamLatency, ThreadedConfig, ThreadedRunResult, Topology, CPU_NS_PER_TX,
};
pub use ipa_controller::ControllerStats;
pub use ipa_heat::{DefaultPolicy as HeatPolicy, HeatDevice, HeatStats};
pub use ipa_maint::{MaintStats, MaintainedFtl};
pub use ipa_trace::{
    chrome_trace_json, trace_csv, LatencyHistogram, MetricSection, MetricsSnapshot, RingRecorder,
    TraceEvent,
};
pub use linkbench::LinkBench;
pub use metrics::engine_metrics;
pub use spec::{build, heap_pages, index_pages, rows_per_page, Benchmark, WorkloadKind};
pub use tatp::Tatp;
pub use tpcb::TpcB;
pub use tpcc::TpcC;
pub use util::{Zipf, ZipfTable};
