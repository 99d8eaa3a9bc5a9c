//! Multi-tenant fleet harness over one shared in-place-appendable device.
//!
//! The paper's economics only matter at fleet scale: many independent
//! database tenants sharing one flash device, each with its own WAL,
//! buffer pool and OLTP stream, all competing for the same channels and
//! dies. This crate builds that shape out of the existing pieces:
//!
//! - [`TenantDevice`] — a per-tenant sub-device *view* (an LBA window)
//!   over one shared [`ipa_ftl::ShardedFtl`], enforcing the partition on
//!   every command surface.
//! - [`Fleet`] / [`FleetBuilder`] — partition one fixed-shape device
//!   ([`TOPOLOGY`], NCQ cap [`QUEUE_CAP`] with latency QoS) into N
//!   tenants, each a full [`ipa_storage::StorageEngine`] with its own
//!   striped WAL of [`WAL_PAGES`] pages; [`TenantHandle`] gives each
//!   tenant a kill → recover-via-WAL-replay lifecycle and returns its
//!   window to the shared device on drop. The fleet runs on one host
//!   thread and owns the device.
//! - [`TenantWorkload`] — seeded, model-tracked TPC-B-style and
//!   TATP-style streams whose [`TenantWorkload::verify`] is the
//!   per-tenant logical-state invariant.
//! - [`run_soak`] — the crash/recovery soak: dozens of tenants, random
//!   kill/recover cycles mid-run, invariants held after every recovery,
//!   WAL space bounded by checkpoint-driven log reclamation, and
//!   per-tenant p99.9 fairness measured under shared-queue contention.

mod device;
mod fleet;
mod soak;
mod workload;

pub use device::TenantDevice;
pub use fleet::{Fleet, FleetBuilder, TenantHandle, QUEUE_CAP, TOPOLOGY, WAL_PAGES};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use workload::{TenantMix, TenantWorkload};
