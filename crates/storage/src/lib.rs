//! # `ipa-storage` — a compact storage engine (the Shore-MT stand-in)
//!
//! The DBMS substrate the paper modifies: NSM slotted pages with the IPA
//! delta-record area ([`page`]), a buffer pool whose eviction path
//! implements the paper's fetch/modify/evict protocol ([`buffer`]), heap
//! files ([`heap`]), a B+-tree index ([`btree`]), a write-ahead log on its
//! own device ([`wal`]), transactions with physical undo ([`tx`]), and the
//! [`StorageEngine`] facade gluing them together.
//!
//! Concurrency note: the engine is deliberately single-threaded — the
//! simulated device clock serialises I/O time anyway, and the paper's
//! metrics (writes, erases, migrations, throughput-from-latency) need no
//! thread-level parallelism to reproduce.

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod heap;
pub mod page;
pub mod tx;
pub mod wal;

pub use buffer::{BufferPool, NetBytesHistogram, PageId, PoolStats, TraceEvent};
pub use catalog::{Catalog, TableId, TableInfo, TableKind, TableSpec};
pub use engine::{EngineConfig, EngineStats, RecoveryReport, StorageEngine};
pub use error::{Result, StorageError};
pub use heap::Rid;
pub use page::{standard_layout, write_ops, PageMut, PageRef, SlottedPage, FOOTER_LEN, HEADER_LEN};
pub use tx::{TxId, TxManager, UndoChain};
pub use wal::{Wal, WalKind, WalRecord};
