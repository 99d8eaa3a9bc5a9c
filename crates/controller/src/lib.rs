//! # `ipa-controller` — multi-channel flash controller
//!
//! Real SSDs get their throughput from package-level parallelism: several
//! channel buses, several dies per channel, commands in flight on all of
//! them at once. This crate adds that layer to the simulator:
//!
//! * [`ControllerConfig`] — the topology (`channels × dies_per_channel`)
//!   plus the per-die chip configuration.
//! * [`FlashController`] — owns the [`ipa_flash::FlashChip`] instances,
//!   keeps a per-die command queue and per-die/per-channel [`ipa_flash::SimClock`]s,
//!   and schedules reads (synchronous), programs (posted after the bus
//!   transfer) and erases (fully posted) against them. Clocks are
//!   max-merged at sync points.
//! * [`DieHandle`] — a per-die façade implementing [`ipa_flash::Nand`], so
//!   the FTL drives a scheduled die with the same code it uses for a bare
//!   chip.
//! * [`ControllerStats`] — queue waits, bus occupancy and peak per-die /
//!   per-channel utilisation.
//! * [`CmdContext`] / [`Lane`] — how the commands a [`DieHandle`] issues
//!   are scheduled (blocking or posted, host or firmware-internal).
//!
//! With a sink attached via [`FlashController::set_tracer`], every
//! scheduled command also emits `ipa_trace` lifecycle events (submit /
//! dispatch / start / complete, plus QoS suspend/resume/promotion
//! instants) — zero cost when no tracer is attached.
//!
//! The scheduler reorders *time*, never state: chip mutations happen
//! eagerly in submission order (FIFO per die), so logical outcomes are
//! identical to a single-chip run — the property the `sharded_parity`
//! suite checks end-to-end.

pub mod config;
pub mod controller;
pub mod stats;

pub use config::ControllerConfig;
pub use controller::{CmdContext, DieHandle, FlashController, Lane};
pub use stats::ControllerStats;

// Re-export the trace vocabulary callers need to drive the hooks.
pub use ipa_trace::{
    CommandKind, CommandOrigin, LatencyHistogram, RingRecorder, SharedSink, TraceEvent, TracePhase,
    TraceSink,
};
