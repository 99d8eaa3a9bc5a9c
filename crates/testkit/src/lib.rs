//! # `ipa-testkit` — shared test fixtures for the IPA workspace
//!
//! Every suite in the workspace needs the same three ingredients:
//!
//! * **deterministic devices and engines** ([`fixtures`]) — small, quiet
//!   (no-disturb) flash configurations and storage engines built for a
//!   given write strategy, so a test exercises exactly one variable;
//! * **seeded operation streams** ([`ops`]) — the model-check harness: a
//!   reproducible random stream of inserts / field updates / row updates /
//!   deletes / aborts applied to an engine and an in-memory model in
//!   lockstep, and the device-level [`ops::QueuedOp`] stream with its
//!   queued-interface driver, shared by the queued and QoS parity walls;
//! * **cross-strategy assertions** ([`check`]) — "run the same seed under
//!   Traditional, IpaConventional and IpaNative and the logical state must
//!   be identical" is the workspace's strongest equivalence claim, used by
//!   the root `model_check` suite and regression tests alike.
//!
//! The crate is a dev-dependency everywhere (including, via cargo's
//! dev-dependency-cycle support, in crates it itself depends on).

pub mod check;
pub mod fixtures;
pub mod ops;

pub use check::{assert_strategies_agree, quick_run};
pub use fixtures::{
    aggressive_heat_policy, all_strategies, compact_heap_engine, device_layout, engine,
    heap_engine, heat_heap_engine, ipa_strategies, maintained_heap_engine, quiet_device, quiet_slc,
    sharded_heap_engine, sharded_plane_engine, small_chip, small_pool, striped_device,
    striped_qos_device, traditional_ftl,
};
pub use ops::{
    assert_same_final_state, run_ops, run_queued, synthetic_trace, ModelHarness, QueuedOp,
    QUEUED_SPAN,
};
