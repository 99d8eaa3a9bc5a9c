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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by an id the engine hands out itself — a page id, a
/// transaction id.
///
/// Not `std`'s SipHash: its DoS resistance guards against keys an adversary
/// picks, and these are dense internal counters, so all it bought was most
/// of the cost of a buffer-pool hit — and a per-process random seed that
/// made iteration order differ between identical runs. One FxHash-style
/// multiply spreads consecutive ids over both the bucket bits and the
/// control bits of the table. Nothing may depend on iteration order.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The [`IdMap`] hasher: `h = (h.rotl(5) ^ word) · K` per word.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}
