//! # `ipa-flash` — cell-accurate NAND flash simulator
//!
//! The hardware substrate for the IPA reproduction (the paper runs on the
//! OpenSSD Jasmine board; a simulated chip makes every run repeatable bit
//! for bit and needs no hardware). The simulator enforces the physics the
//! technique depends on:
//!
//! * **Erase-before-overwrite, relaxed precisely.** A page re-program is
//!   accepted iff every bit transition is `1 → 0` — the bitwise shadow of
//!   "ISPP can only add charge". Appends into still-erased bytes pass;
//!   anything else needs [`FlashChip::erase_block`].
//! * **ISPP timing** ([`ispp`]): program latency = pulse-staircase length,
//!   reproducing the fast-LSB / slow-MSB MLC asymmetry.
//! * **NOP budgets**: bounded partial programs per page between erases.
//! * **Program interference** ([`interference`]): re-programs disturb
//!   wordline neighbours; margins depend on [`FlashMode`], which is what
//!   makes pSLC / odd-MLC the safe IPA configurations.
//! * **OOB + SECDED ECC** ([`ecc`]): per-chunk codewords for page bodies
//!   and per-delta-record codewords, Figure 3 style.
//!
//! Every operation advances a deterministic [`SimClock`]; all randomness is
//! seeded. Two runs with the same config are identical.

pub mod block;
pub mod cell;
pub mod chip;
pub mod clock;
pub mod config;
pub mod ecc;
pub mod error;
pub mod geometry;
pub mod interference;
pub mod ispp;
pub mod nand;
pub mod stats;

pub use cell::{CellType, FlashMode};
pub use chip::{FlashChip, MultiPlaneWrite, PageImage};
pub use clock::SimClock;
pub use config::{DeviceConfig, LatencyModel};
pub use ecc::{check_region, encode_region, Codeword, EccOutcome};
pub use error::{FlashError, Result};
pub use geometry::{Geometry, Ppa};
pub use interference::{DisturbModel, DisturbRates};
pub use ispp::{IsppParams, ProgramKind};
pub use nand::Nand;
pub use stats::FlashStats;
