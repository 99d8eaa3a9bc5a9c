//! `ipa-trace` — the observability layer for the in-place-appends stack.
//!
//! Three pieces, deliberately dependency-free so every other crate can
//! sit on top of this one:
//!
//! * **Event tracing** ([`event`]): a [`TraceSink`] trait plus the
//!   bounded [`RingRecorder`], fed per-command lifecycle events
//!   (`Submitted`/`Dispatched`/`Started`/`Suspended`/`Resumed`/
//!   `Completed`, plus `Promoted` instants) by `FlashController` and
//!   `MaintenanceScheduler`. The [`export`] module renders a recording
//!   as Chrome trace-event JSON — one track per die, opens directly in
//!   Perfetto — or CSV.
//! * **Bounded histograms** ([`histogram`]): [`LatencyHistogram`], a
//!   log2-bucketed fixed-memory percentile sketch replacing unbounded
//!   `Vec<u64>` sample buffers on long soaks.
//! * **Unified metrics** ([`metrics`]): [`MetricsSnapshot`], the one
//!   tree every stats struct in the stack reports into, with
//!   counter/gauge-aware `delta_since` and JSON in/out.
//!
//! The vendored `serde` is a no-op offline stand-in, so serialization
//! here is hand-rolled through the small [`json`] module.

pub mod event;
pub mod export;
pub mod histogram;
pub mod json;
pub mod metrics;

pub use event::{CommandKind, CommandOrigin, RingRecorder, TraceEvent, TracePhase, TraceSink};
pub use export::{chrome_trace_dies, chrome_trace_json, trace_csv};
pub use histogram::LatencyHistogram;
pub use metrics::{Metric, MetricKind, MetricSection, MetricValue, MetricsSnapshot};

/// The controller-facing handle: a shared, optional sink.
///
/// `None` (the default everywhere) short-circuits every emission to a
/// single branch, which is what keeps the parity walls bit-identical
/// with tracing disabled. The handle is `Arc<Mutex<..>>` (not
/// `Rc<RefCell<..>>`) so a controller shared across host threads can
/// keep emitting; with tracing off the mutex is never touched.
pub type SharedSink = std::sync::Arc<std::sync::Mutex<dyn TraceSink + Send>>;
