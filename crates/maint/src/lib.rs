//! # `ipa-maint` — the background maintenance subsystem
//!
//! The IPA design wins by deferring erases, but deferral only pays if the
//! reclaim work eventually done does not land on the host's critical
//! path. This crate owns that scheduling problem:
//!
//! * [`MaintenanceScheduler`] — dispatches single-command reclaim steps
//!   (victim selection, live-delta copy-back, erase — an
//!   [`ipa_ftl::GcJob`] resumed by [`ipa_ftl::Ftl::background_gc_step`])
//!   onto dies the [`ipa_controller::FlashController`] reports idle,
//!   interleaving reclaim with host traffic at single-command
//!   granularity instead of running whole-block reclaims inline with the
//!   write that tripped the low-water mark.
//! * [`WearShifter`] — the hook for cross-die background work (the
//!   `ipa-heat` crate's destage and wear-shifting steps), stepped under
//!   the same idle gate; [`NoShift`] is the GC-only default.
//! * [`MaintainedFtl`] — a [`ipa_ftl::ShardedFtl`] wrapper implementing
//!   the same [`ipa_ftl::BlockDevice`] / [`ipa_ftl::NativeFlashDevice`]
//!   contract; every host command is followed by one scheduler poll, the
//!   moment the controller's clocks say which dies are idle.
//! * [`MaintStats`] — the subsystem's own counters (steps placed, dies
//!   skipped busy, peak cross-die wear spread). [`MaintConfig`], the
//!   policy parameter, has no setting left.
//!
//! Who owns what: the scheduler owns *when* a step runs and nothing else.
//! A half-done GC job lives in its shard; a half-done shift job lives in
//! the shifter `S`, owned by value (`MaintainedFtl<S>` →
//! `MaintenanceScheduler<S>` → `S`). A layer on top keeps its placement
//! state in `S` and borrows it back through
//! [`MaintainedFtl::shifter_mut`] — one owner, no lock.
//!
//! Scheduling choices are fed by two controller-level views added for
//! this subsystem: per-die idleness (`die_idle`, from the die `SimClock`s)
//! and the wear view (`die_erase_count`, min/max spread in
//! `ControllerStats`), so reclaim pressure is ordered by urgency first
//! and wear second — the two-level-hierarchy cost game of scheduling the
//! slow tier so the fast path never waits.
//!
//! Pairs with the controller's NCQ queue caps
//! ([`ipa_controller::ControllerConfig::with_queue_cap`]): caps give
//! "idle" teeth by bounding how much posted host work can pile onto a
//! die, and back-pressure makes the host feel a die it is overdriving —
//! while firmware-internal maintenance work is exempt and gated on
//! idleness instead.

pub mod config;
pub mod device;
pub mod scheduler;
pub mod stats;

pub use config::MaintConfig;
pub use device::MaintainedFtl;
pub use scheduler::{MaintenanceScheduler, NoShift, ShiftStep, WearShifter};
pub use stats::MaintStats;
