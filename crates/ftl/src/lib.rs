//! # `ipa-ftl` — flash translation layer and NoFTL native interface
//!
//! The device-side substrate of the reproduction:
//!
//! * [`Ftl`] — a page-mapping FTL with greedy GC and over-provisioning,
//!   configurable as a traditional SSD, an IPA-aware conventional SSD
//!   (in-place detection of overwrite-compatible images), or a NoFTL-style
//!   native device exposing the paper's `write_delta` command.
//! * [`ShardedFtl`] — the same contract die-striped across a
//!   multi-channel [`ipa_controller::FlashController`] (round-robin or
//!   hash stripe, per-die GC, per-region IPA semantics preserved).
//! * [`RegionTable`] — NoFTL Regions: per-object IPA formatting.
//! * [`OobCodec`] — the Figure 3 OOB layout (`ECC_initial` +
//!   `ECC_delta_rec 1..N`).
//! * [`BlockDevice`] / [`NativeFlashDevice`] — the host contracts the
//!   storage engine programs against.

pub mod error;
pub mod ftl;
pub mod interface;
pub mod oob;
pub mod region;
pub mod sharded;
pub mod stats;
pub mod wear;

pub use error::{FtlError, Lba, Result};
pub use ftl::{exported_capacity, overwrite_compatible, Ftl, FtlConfig, GcJob, GcProgress};
pub use interface::{
    BlockDevice, IoCompletion, IoQueue, IoRequest, IoToken, NativeFlashDevice, QueuedBlockDevice,
    VectoredCounters, WriteStrategy,
};
pub use oob::{OobCodec, UncorrectableError, VerifyOutcome};
pub use region::{Region, RegionTable};
pub use sharded::{ShardedFtl, StripePolicy};
pub use stats::DeviceStats;
pub use wear::{WearConfig, WearLeveler, WearSummary};

/// Familiar aliases: a conventional page-mapped SSD and a NoFTL native
/// device are the same machinery under different configurations.
pub type PageFtl = Ftl;
/// See [`PageFtl`].
pub type NoFtl = Ftl;
