//! # In-Place Appends (IPA) — facade crate
//!
//! Reproduction of *"In-Place Appends for Real: DBMS Overwrites on Flash
//! without Erase"* (Hardock, Petrov, Gottstein, Buchmann — EDBT 2017).
//!
//! This crate re-exports the whole workspace so downstream users (and the
//! `examples/` and `tests/` trees) depend on a single crate:
//!
//! * [`flash`] — cell-accurate NAND flash simulator (ISPP, 1→0 program
//!   legality, NOP budgets, program interference, OOB + ECC).
//! * [`ftl`] — page-mapping FTL with garbage collection, plus the NoFTL
//!   native interface with Regions and the `write_delta` command.
//! * [`core`] — the paper's contribution: delta records, the N×M scheme,
//!   change tracking and the IPA page layout (Figure 3).
//! * [`storage`] — a compact storage engine (slotted NSM pages, buffer
//!   pool, heap files, B+-tree, WAL/transactions) standing in for Shore-MT.
//! * [`ipl`] — the In-Page Logging baseline (Lee & Moon, SIGMOD 2007).
//! * [`heat`] — heat-based data placement: decaying LBA heat tracking,
//!   the SLC hot tier and wear-shifting stripe migration.
//! * [`workloads`] — deterministic TPC-B / TPC-C / TATP / LinkBench-style
//!   generators and the benchmark driver.
//!
//! ## Quickstart
//!
//! ```
//! use in_place_appends::prelude::*;
//!
//! // Run 200 TPC-B transactions under IPA (native write_delta) on
//! // simulated pSLC flash, and compare against the traditional path.
//! let cfg = DriverConfig::quick().with_transactions(200);
//! let ipa = StackSpec::paper(WriteStrategy::IpaNative, FlashMode::PSlc);
//! let trad = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc);
//! let ipa = Driver::run_spec(WorkloadKind::TpcB, 1, &ipa, &cfg).unwrap();
//! let trad = Driver::run_spec(WorkloadKind::TpcB, 1, &trad, &cfg).unwrap();
//! assert!(ipa.device.page_invalidations <= trad.device.page_invalidations);
//! ```
pub use ipa_controller as controller;
pub use ipa_core as core;
pub use ipa_flash as flash;
pub use ipa_ftl as ftl;
pub use ipa_heat as heat;
pub use ipa_ipl as ipl;
pub use ipa_storage as storage;
pub use ipa_workloads as workloads;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use ipa_core::{ChangeTracker, DeltaRecord, IpaVerdict, NmScheme, PageLayout};
    pub use ipa_flash::{
        CellType, DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry, Ppa,
    };
    pub use ipa_ftl::{
        BlockDevice, DeviceStats, Ftl, FtlConfig, NativeFlashDevice, Region, RegionTable,
        WriteStrategy,
    };
    pub use ipa_heat::{DefaultPolicy, HeatDevice, HeatStats};
    pub use ipa_ipl::{replay_ipa, replay_ipl, IplConfig, IplStore};
    pub use ipa_storage::{
        standard_layout, BufferPool, EngineConfig, Rid, StorageEngine, TableSpec,
    };
    pub use ipa_workloads::{Benchmark, Driver, DriverConfig, RunResult, StackSpec, WorkloadKind};
}
