//! Transactions: begin/commit/abort with physical undo.
//!
//! The engine is single-threaded by design (the simulated clock serialises
//! device time anyway), so there is no lock manager; transactional
//! semantics reduce to atomicity — undo on abort, WAL-backed redo on
//! recovery. The paper notes IPA leaves "regular database functionality
//! (e.g. recovery, locking)" untouched, and this module is where that
//! claim is exercised: undo/abort work identically under every write
//! strategy.
//!
//! An [`UndoChain`] is one arena per transaction: the `old` halves of its
//! page-write captures back to back, plus a 16-byte entry per write. The
//! engine records undo *before* the WAL append, so a transaction whose
//! append failed can still abort. A committed transaction hands its emptied
//! chain to the next [`TxManager::begin`] — unless it outgrew 4 KiB
//! (`SPARE_LIMIT`): the load phase is one giant transaction, and parking
//! its chain cost +9.6 % / +12 % `peak_rss_mb` on the ledger's
//! `tpcb_chip_*` workloads.

use crate::buffer::PageId;
use crate::error::{Result, StorageError};
use crate::page::write_ops;
use crate::IdMap;

/// Transaction identifier.
pub type TxId = u64;

/// Most bytes of arena a committed transaction hands to the next one.
const SPARE_LIMIT: usize = 4096;

/// `(page, offset, len)` of one write to reverse.
type Entry = (PageId, u16, u16);

/// One transaction's undo chain.
#[derive(Debug, Default)]
pub struct UndoChain {
    /// One per write, oldest first; the write's `len` replaced bytes sit in
    /// `old`, in the same order.
    entries: Vec<Entry>,
    old: Vec<u8>,
}

impl UndoChain {
    /// The writes to reverse, newest first, as `(page, offset, old bytes)`.
    pub fn newest_first(&self) -> impl Iterator<Item = (PageId, u16, &[u8])> {
        let mut end = self.old.len();
        self.entries.iter().rev().map(move |&(page, offset, len)| {
            let start = end - len as usize;
            let old = &self.old[start..end];
            end = start;
            (page, offset, old)
        })
    }
}

/// Bookkeeping for active transactions.
#[derive(Debug, Default)]
pub struct TxManager {
    next_id: TxId,
    active: IdMap<TxId, UndoChain>,
    /// The last committed chain, emptied, for the next `begin` to reuse.
    spare: UndoChain,
    pub committed: u64,
    pub aborted: u64,
}

impl TxManager {
    pub fn new() -> Self {
        TxManager::default()
    }

    pub fn begin(&mut self) -> TxId {
        self.next_id += 1;
        self.active
            .insert(self.next_id, std::mem::take(&mut self.spare));
        self.next_id
    }

    /// Record undo information for the writes of one page-write capture.
    pub fn log_undo(&mut self, tx: TxId, page: PageId, ops: &[u8]) -> Result<()> {
        let chain = self
            .active
            .get_mut(&tx)
            .ok_or(StorageError::NoSuchTransaction(tx))?;
        for (offset, old, _) in write_ops(ops) {
            chain.entries.push((page, offset, old.len() as u16));
            chain.old.extend_from_slice(old);
        }
        Ok(())
    }

    /// Finish a commit: drop undo state.
    pub fn commit(&mut self, tx: TxId) -> Result<()> {
        let mut chain = self.take(tx)?;
        let entry_bytes = chain.entries.capacity() * std::mem::size_of::<Entry>();
        if chain.old.capacity() + entry_bytes <= SPARE_LIMIT {
            chain.entries.clear();
            chain.old.clear();
            self.spare = chain;
        }
        self.committed += 1;
        Ok(())
    }

    /// Take the undo chain for an abort.
    pub fn take_undo(&mut self, tx: TxId) -> Result<UndoChain> {
        let chain = self.take(tx)?;
        self.aborted += 1;
        Ok(chain)
    }

    fn take(&mut self, tx: TxId) -> Result<UndoChain> {
        self.active
            .remove(&tx)
            .ok_or(StorageError::NoSuchTransaction(tx))
    }

    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capture of one write at `offset` replacing `old` (with zeroes).
    fn op(offset: u16, old: &[u8]) -> Vec<u8> {
        let [o0, o1] = offset.to_le_bytes();
        let mut bytes = vec![o0, o1, old.len() as u8, 0];
        bytes.extend_from_slice(old);
        bytes.resize(bytes.len() + old.len(), 0);
        bytes
    }

    #[test]
    fn begin_commit_cycle() {
        let mut m = TxManager::new();
        let t = m.begin();
        assert_eq!(m.active_count(), 1);
        m.log_undo(t, 5, &op(10, &[1])).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.committed, 1);
    }

    #[test]
    fn abort_returns_undo_newest_first() {
        let mut m = TxManager::new();
        let t = m.begin();
        m.log_undo(t, 1, &op(10, &[1])).unwrap();
        m.log_undo(t, 2, &[op(20, &[2, 2, 2]), op(30, &[3, 3])].concat())
            .unwrap();
        let undo = m.take_undo(t).unwrap();
        assert_eq!(
            undo.newest_first().collect::<Vec<_>>(),
            [
                (2, 30, &[3u8, 3][..]),
                (2, 20, &[2, 2, 2][..]),
                (1, 10, &[1][..])
            ]
        );
        assert_eq!(m.aborted, 1);
    }

    #[test]
    fn unknown_tx_rejected() {
        let mut m = TxManager::new();
        assert!(matches!(
            m.commit(99),
            Err(StorageError::NoSuchTransaction(99))
        ));
        assert!(matches!(
            m.log_undo(99, 0, &[]),
            Err(StorageError::NoSuchTransaction(99))
        ));
    }

    #[test]
    fn ids_are_unique() {
        let mut m = TxManager::new();
        let a = m.begin();
        let b = m.begin();
        assert_ne!(a, b);
        assert_eq!(m.active_count(), 2);
    }

    #[test]
    fn a_bulk_load_chain_is_not_parked() {
        let mut m = TxManager::new();
        // The load shape: one transaction, far more than 4 KiB of undo.
        let load = m.begin();
        for page in 0..2_000 {
            m.log_undo(load, page, &op(8, &[7; 4])).unwrap();
        }
        m.commit(load).unwrap();
        assert_eq!(
            (m.spare.old.capacity(), m.spare.entries.capacity()),
            (0, 0),
            "dropped at commit, not parked"
        );

        // Small transactions hand one small arena from each to the next.
        let mut small = || {
            let t = m.begin();
            m.log_undo(t, 1, &op(8, &[7; 4])).unwrap();
            m.commit(t).unwrap();
            (m.spare.old.capacity(), m.spare.entries.capacity())
        };
        let first = small();
        assert!(first.0 > 0 && first.1 > 0);
        assert!(first.0 + first.1 * std::mem::size_of::<Entry>() <= SPARE_LIMIT);
        assert_eq!(small(), first, "the same arena, reused");
        assert!(m.spare.old.is_empty() && m.spare.entries.is_empty());
    }
}
