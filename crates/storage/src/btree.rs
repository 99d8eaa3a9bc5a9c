//! B+-tree index: `u64` key → [`Rid`], stored on engine pages.
//!
//! Node pages use the standard 32-byte page header (so LSN/format checks
//! work uniformly) followed by a node header and sorted fixed-width
//! entries. Index pages live in non-IPA regions by default — index
//! maintenance shifts entry arrays, which is exactly the structural change
//! the N×M scheme cannot absorb — but nothing prevents placing an index in
//! an IPA region to measure that (the `nm_sweep` bench does).
//!
//! **Nodes are views.** Like heap pages ([`crate::page::PageRef`]), a node
//! is never decoded: `NodeRef` reads keys and payloads straight out of
//! the buffer frame, and a mutation stores the node header and then the
//! entries *from the changed position on* through [`PageMut::write`], in
//! ascending offset order (the tracker's budget check is sticky and
//! order-sensitive once an index sits in an IPA region). Entries past
//! `count` are never cleared: a split or delete leaves stale entries
//! behind, a fresh page keeps `0xFF` there.
//!
//! **The pool call pattern is part of the model.** `PoolStats` and the
//! clock's reference bits decide evictions, and so simulated time:
//! `descend` opens every node on the path once, leaf included; the
//! operation opens its node once more to read; a mutation is one
//! `with_page_mut`; a split allocates the right sibling (three calls)
//! *before* rewriting the left node, then reads and writes the parent.

use crate::buffer::{BufferPool, PageId};
use crate::catalog::TableInfo;
use crate::error::{Result, StorageError};
use crate::heap::Rid;
use crate::page::{PageMut, SlottedPage, HEADER_LEN};

/// Sentinel for "no page".
const NIL: u64 = u64::MAX;
/// Leaf entry width: key (8) + rid (10).
const LEAF_ENTRY: usize = 18;
/// Internal entry width: key (8) + child (8).
const INT_ENTRY: usize = 16;
/// Node header: type (1) + pad (1) + count (2) + next/leftmost (8).
const NODE_HEADER: usize = 12;

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8-byte slice"))
}

/// Borrowed view of a node: the page bytes behind the page header.
/// Internal entry `i` is separator `i` and the child holding keys in
/// `[key(i), key(i + 1))`; keys below `key(0)` live under [`NodeRef::ptr`].
#[derive(Clone, Copy)]
struct NodeRef<'a>(&'a [u8]);

impl<'a> NodeRef<'a> {
    fn new(page: &'a [u8]) -> Self {
        NodeRef(&page[HEADER_LEN..])
    }

    fn is_leaf(self) -> bool {
        self.0[0] == 0
    }

    fn count(self) -> usize {
        u16::from_le_bytes([self.0[2], self.0[3]]) as usize
    }

    /// Next-leaf link (leaf, [`NIL`] at the end) or leftmost child.
    fn ptr(self) -> u64 {
        u64_at(self.0, 4)
    }

    fn offset(self, i: usize) -> usize {
        let width = if self.is_leaf() {
            LEAF_ENTRY
        } else {
            INT_ENTRY
        };
        NODE_HEADER + i * width
    }

    fn key(self, i: usize) -> u64 {
        u64_at(self.0, self.offset(i))
    }

    fn rid(self, i: usize) -> Rid {
        let off = self.offset(i) + 8;
        Rid::from_bytes(self.0[off..off + 10].try_into().expect("10-byte slice"))
    }

    fn child(self, i: usize) -> PageId {
        u64_at(self.0, self.offset(i) + 8)
    }

    /// The raw bytes of entries `from..to`.
    fn entries(self, from: usize, to: usize) -> &'a [u8] {
        &self.0[self.offset(from)..self.offset(to)]
    }

    /// Number of leading keys for which `pred` holds (keys are sorted).
    fn partition_point(self, pred: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the first key `>= key`, and whether it equals `key`.
    fn find(self, key: u64) -> (usize, bool) {
        let pos = self.partition_point(|k| k < key);
        (pos, pos < self.count() && self.key(pos) == key)
    }

    /// The child behind the last separator `<= key`, leftmost if none.
    fn child_for(self, key: u64) -> PageId {
        match self.partition_point(|k| k <= key) {
            0 => self.ptr(),
            i => self.child(i - 1),
        }
    }
}

/// Entries of `width` bytes that fit a node on page `pid`.
fn capacity(pool: &BufferPool, pid: PageId, width: usize) -> usize {
    (pool.layout_of(pid).delta_area_offset() - HEADER_LEN - NODE_HEADER) / width
}

/// Store a node whose entries `from..` are `entries` (`width` bytes each;
/// those before `from` stay as they are): the node header, the entries,
/// then the page LSN. Equal bytes cost nothing in [`PageMut::write`].
fn store(pm: &mut PageMut<'_>, width: usize, ptr: u64, from: usize, entries: &[u8], lsn: u64) {
    let mut header = [0u8; NODE_HEADER];
    header[0] = u8::from(width == INT_ENTRY);
    header[2..4].copy_from_slice(&((from + entries.len() / width) as u16).to_le_bytes());
    header[4..].copy_from_slice(&ptr.to_le_bytes());
    pm.write(HEADER_LEN, &header);
    pm.write(HEADER_LEN + NODE_HEADER + from * width, entries);
    SlottedPage::new(pm).set_lsn(lsn);
}

fn table_full(table: &TableInfo) -> StorageError {
    StorageError::TableFull(table.spec.name.clone())
}

/// Allocate and format a fresh node page from the index region.
fn alloc_node(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    width: usize,
    ptr: u64,
    entries: &[u8],
    lsn: u64,
) -> Result<PageId> {
    if table.allocated_pages == table.spec.pages {
        return Err(table_full(table));
    }
    let pid = table.page(table.allocated_pages);
    pool.new_page(pid)?;
    table.allocated_pages += 1;
    pool.with_page_mut(pid, None, |pm| {
        SlottedPage::new(pm).format(pid as u32);
    })?;
    pool.with_page_mut(pid, None, |pm| store(pm, width, ptr, 0, entries, lsn))?;
    Ok(pid)
}

/// Create an empty tree (root = empty leaf).
pub fn create(pool: &mut BufferPool, table: &mut TableInfo, lsn: u64) -> Result<()> {
    assert!(table.root.is_none(), "index already created");
    table.root = Some(alloc_node(pool, table, LEAF_ENTRY, NIL, &[], lsn)?);
    Ok(())
}

/// Descend to the leaf that owns `key`, handing each internal page on the
/// path to `visit` (root first); returns the leaf page id.
fn descend(
    pool: &mut BufferPool,
    root: PageId,
    key: u64,
    mut visit: impl FnMut(PageId),
) -> Result<PageId> {
    let mut pid = root;
    loop {
        let child = pool.with_page(pid, |page| {
            let node = NodeRef::new(page);
            (!node.is_leaf()).then(|| node.child_for(key))
        })?;
        let Some(child) = child else {
            return Ok(pid);
        };
        visit(pid);
        pid = child;
    }
}

/// Point lookup.
pub fn lookup(pool: &mut BufferPool, table: &TableInfo, key: u64) -> Result<Option<Rid>> {
    let Some(root) = table.root else {
        return Ok(None);
    };
    let leaf = descend(pool, root, key, |_| {})?;
    pool.with_page(leaf, |page| {
        let node = NodeRef::new(page);
        let (pos, found) = node.find(key);
        found.then(|| node.rid(pos))
    })
}

/// Pages a split cascade from a full leaf takes: one per full node from
/// the leaf up `path`, plus one if the root splits too.
fn split_pages(pool: &mut BufferPool, path: &[PageId]) -> Result<u64> {
    let mut pages = 1;
    for &pid in path.iter().rev() {
        let cap = capacity(pool, pid, INT_ENTRY);
        if pool.with_page(pid, |page| NodeRef::new(page).count())? < cap {
            return Ok(pages);
        }
        pages += 1;
    }
    Ok(pages + 1)
}

/// Insert a key; duplicate keys are rejected (primary-key semantics). An
/// insert that fails with [`StorageError::TableFull`] changes nothing.
pub fn insert(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    mut key: u64,
    rid: Rid,
    lsn: u64,
) -> Result<()> {
    let root = table.root.expect("index not created");
    let mut path = Vec::new();
    let mut pid = descend(pool, root, key, |pid| path.push(pid))?;
    let mut entry = [&key.to_le_bytes()[..], &rid.to_bytes()].concat();
    // Store `entry` at a level; a split carries `(separator, right page)`
    // one level up the path, an empty path grows a root.
    loop {
        let width = entry.len();
        let cap = capacity(pool, pid, width);
        // A full node hands out its pointer and its entries with the new
        // one merged in: the image the split divides.
        let (pos, found, full) = pool.with_page(pid, |page| {
            let node = NodeRef::new(page);
            let (pos, found) = node.find(key);
            let full = (node.count() == cap && !found).then(|| {
                let merged = [node.entries(0, pos), &entry, node.entries(pos, cap)].concat();
                (node.ptr(), merged)
            });
            (pos, found, full)
        })?;
        if found {
            // Leaves only: a separator lies strictly inside its child's
            // key range, so it meets no equal key further up.
            return Err(StorageError::DuplicateKey(key));
        }
        let Some((ptr, merged)) = full else {
            return pool.with_page_mut(pid, None, |pm| {
                let node = NodeRef::new(pm.bytes());
                let tail = [&entry, node.entries(pos, node.count())].concat();
                store(pm, width, node.ptr(), pos, &tail, lsn);
            });
        };
        // Only a full leaf starts a cascade: before the first page
        // changes, make sure the region can supply all of it. Ancestors
        // are peeked at only when the worst case would not fit.
        let free = table.spec.pages - table.allocated_pages;
        if width == LEAF_ENTRY && free < path.len() as u64 + 2 && free < split_pages(pool, &path)? {
            return Err(table_full(table));
        }
        // A leaf keeps the middle entry on the right and chains
        // left → right; an internal node moves the middle key up and its
        // child becomes the right node's leftmost.
        let mid = merged.len() / width / 2;
        key = u64_at(&merged, mid * width);
        let (right_ptr, right_from) = match width {
            LEAF_ENTRY => (ptr, mid),
            _ => (u64_at(&merged, mid * width + 8), mid + 1),
        };
        let moved = &merged[right_from * width..];
        let right = alloc_node(pool, table, width, right_ptr, moved, lsn)?;
        let left_ptr = if width == LEAF_ENTRY { right } else { ptr };
        let from = pos.min(mid);
        pool.with_page_mut(pid, None, |pm| {
            let kept = &merged[from * width..mid * width];
            store(pm, width, left_ptr, from, kept, lsn);
        })?;
        entry = [key.to_le_bytes(), right.to_le_bytes()].concat();
        let Some(parent) = path.pop() else {
            table.root = Some(alloc_node(pool, table, INT_ENTRY, pid, &entry, lsn)?);
            return Ok(());
        };
        pid = parent;
    }
}

/// Remove a key. Returns whether it existed. Leaves are never merged —
/// benchmark deletes are rare and sparse leaves stay searchable.
pub fn delete(pool: &mut BufferPool, table: &TableInfo, key: u64, lsn: u64) -> Result<bool> {
    let Some(root) = table.root else {
        return Ok(false);
    };
    let leaf = descend(pool, root, key, |_| {})?;
    let (pos, found) = pool.with_page(leaf, |page| NodeRef::new(page).find(key))?;
    if found {
        pool.with_page_mut(leaf, None, |pm| {
            let node = NodeRef::new(pm.bytes());
            let tail = node.entries(pos + 1, node.count()).to_vec();
            store(pm, LEAF_ENTRY, node.ptr(), pos, &tail, lsn);
        })?;
    }
    Ok(found)
}

/// Visit `(key, rid)` pairs with `lo ≤ key ≤ hi`, in key order.
pub fn range(
    pool: &mut BufferPool,
    table: &TableInfo,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, Rid),
) -> Result<()> {
    let Some(root) = table.root else {
        return Ok(());
    };
    let mut leaf = descend(pool, root, lo, |_| {})?;
    while leaf != NIL {
        leaf = pool.with_page(leaf, |page| {
            let node = NodeRef::new(page);
            for i in node.find(lo).0..node.count() {
                if node.key(i) > hi {
                    return NIL;
                }
                f(node.key(i), node.rid(i));
            }
            node.ptr()
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableSpec};
    use crate::page::standard_layout;
    use ipa_core::{ChangeTracker, NmScheme};
    use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
    use ipa_ftl::{Ftl, FtlConfig, WriteStrategy};

    /// A pool over a quiet SLC chip; `ipa` formats every page `[2×4]`
    /// under the native strategy.
    fn pool_with(ipa: bool, frames: usize) -> BufferPool {
        let chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(128, 16, 2048, 64), FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        );
        let (config, strategy) = if ipa {
            let layout = standard_layout(2048, NmScheme::new(2, 4));
            (FtlConfig::ipa_native(layout), WriteStrategy::IpaNative)
        } else {
            (FtlConfig::traditional(), WriteStrategy::Traditional)
        };
        BufferPool::new(Box::new(Ftl::new(chip, config)), strategy, frames)
    }

    fn pool() -> BufferPool {
        pool_with(false, 16)
    }

    fn index(pages: u64) -> TableInfo {
        let mut c = Catalog::new();
        let id = c.add(TableSpec::index("idx", pages));
        c.get(id).clone()
    }

    fn rid_of(k: u64) -> Rid {
        Rid::new(k * 7, (k % 100) as u16)
    }

    #[test]
    fn empty_tree_lookup() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1).unwrap();
        assert_eq!(lookup(&mut p, &t, 42).unwrap(), None);
    }

    #[test]
    fn insert_and_find_small() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1).unwrap();
        for k in [5u64, 1, 9, 3, 7] {
            insert(&mut p, &mut t, k, rid_of(k), 2).unwrap();
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)));
        }
        assert_eq!(lookup(&mut p, &t, 2).unwrap(), None);
    }

    #[test]
    fn duplicate_rejected() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1).unwrap();
        insert(&mut p, &mut t, 5, rid_of(5), 2).unwrap();
        assert!(matches!(
            insert(&mut p, &mut t, 5, rid_of(5), 3),
            Err(StorageError::DuplicateKey(5))
        ));
    }

    #[test]
    fn splits_preserve_all_keys() {
        let mut p = pool();
        let mut t = index(64);
        create(&mut p, &mut t, 1).unwrap();
        // Enough keys to force multiple leaf and internal splits
        // (leaf capacity ≈ (2048-32-12)/18 ≈ 111).
        let n = 2000u64;
        for k in 0..n {
            // Scatter inserts to stress both append and mid-leaf paths.
            let key = (k * 2_654_435_761) % 100_000;
            let _ = insert(&mut p, &mut t, key, rid_of(key), 2);
        }
        let mut seen = Vec::new();
        range(&mut p, &t, 0, u64::MAX, |k, _| seen.push(k)).unwrap();
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(seen, sorted, "range scan must be ordered and unique");
        for &k in &seen {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)), "key {k}");
        }
        assert!(t.allocated_pages > 10, "tree must have split");
    }

    #[test]
    fn sequential_inserts() {
        let mut p = pool();
        let mut t = index(64);
        create(&mut p, &mut t, 1).unwrap();
        for k in 0..1000u64 {
            insert(&mut p, &mut t, k, rid_of(k), 2).unwrap();
        }
        for k in (0..1000u64).step_by(37) {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)));
        }
    }

    #[test]
    fn delete_then_miss() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1).unwrap();
        for k in 0..50u64 {
            insert(&mut p, &mut t, k, rid_of(k), 2).unwrap();
        }
        assert!(delete(&mut p, &t, 25, 3).unwrap());
        assert!(!delete(&mut p, &t, 25, 4).unwrap());
        assert_eq!(lookup(&mut p, &t, 25).unwrap(), None);
        assert_eq!(lookup(&mut p, &t, 24).unwrap(), Some(rid_of(24)));
    }

    #[test]
    fn range_bounds() {
        let mut p = pool();
        let mut t = index(16);
        create(&mut p, &mut t, 1).unwrap();
        for k in (0..300u64).step_by(3) {
            insert(&mut p, &mut t, k, rid_of(k), 2).unwrap();
        }
        let mut seen = Vec::new();
        range(&mut p, &t, 10, 20, |k, _| seen.push(k)).unwrap();
        assert_eq!(seen, vec![12, 15, 18]);
    }

    #[test]
    fn survives_cache_drop() {
        let mut p = pool();
        let mut t = index(64);
        create(&mut p, &mut t, 1).unwrap();
        for k in 0..500u64 {
            insert(&mut p, &mut t, k, rid_of(k), 2).unwrap();
        }
        p.drop_cache().unwrap();
        for k in (0..500u64).step_by(11) {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)));
        }
    }

    fn height(p: &mut BufferPool, t: &TableInfo) -> usize {
        let (mut pid, mut height) = (t.root.unwrap(), 1);
        loop {
            let leftmost = |page: &[u8]| {
                let node = NodeRef::new(page);
                (!node.is_leaf()).then(|| node.ptr())
            };
            match p.with_page(pid, leftmost).unwrap() {
                Some(child) => (pid, height) = (child, height + 1),
                None => return height,
            }
        }
    }

    /// An insert the region cannot hold fails before it changes a page.
    /// (The parent commit split the leaf first: at budget 2 the 55 keys
    /// of the right half were lost and the rejected key stayed scannable.)
    #[test]
    fn table_full_mid_split_loses_nothing() {
        for budget in 2..12u64 {
            let mut p = pool();
            let mut t = index(budget);
            create(&mut p, &mut t, 1).unwrap();
            let mut stored = 0u64;
            loop {
                let allocated = t.allocated_pages;
                match insert(&mut p, &mut t, stored, rid_of(stored), 2) {
                    Ok(()) => stored += 1,
                    Err(StorageError::TableFull(_)) => {
                        assert_eq!(t.allocated_pages, allocated, "budget {budget}");
                        break;
                    }
                    Err(e) => panic!("budget {budget}: {e}"),
                }
            }
            assert!(stored >= 110, "budget {budget}: a full leaf at least");
            for k in 0..stored {
                let found = lookup(&mut p, &t, k).unwrap();
                assert_eq!(found, Some(rid_of(k)), "budget {budget} key {k}");
            }
            assert_eq!(lookup(&mut p, &t, stored).unwrap(), None);
            let mut seen = Vec::new();
            range(&mut p, &t, 0, u64::MAX, |k, _| seen.push(k)).unwrap();
            assert_eq!(seen, (0..stored).collect::<Vec<_>>(), "budget {budget}");
        }
    }

    /// A page image holding one node: internal entry `k` points at `!k`.
    fn node_page(width: usize, ptr: u64, keys: &[u64]) -> Vec<u8> {
        let mut buf = vec![0xFF; 2048];
        let layout = standard_layout(2048, NmScheme::disabled());
        let mut tracker = ChangeTracker::new_unflashed(layout);
        let entries: Vec<u8> = keys
            .iter()
            .flat_map(|&k| match width {
                LEAF_ENTRY => [&k.to_le_bytes()[..], &Rid::new(k, 3).to_bytes()].concat(),
                _ => [k.to_le_bytes(), (!k).to_le_bytes()].concat(),
            })
            .collect();
        let mut pm = PageMut::new(&mut buf, &mut tracker, None);
        store(&mut pm, width, ptr, 0, &entries, 1);
        buf
    }

    #[test]
    fn node_ref_on_empty_and_one_entry_nodes() {
        let page = node_page(LEAF_ENTRY, NIL, &[]);
        let leaf = NodeRef::new(&page);
        assert!(leaf.is_leaf());
        assert_eq!((leaf.count(), leaf.ptr()), (0, NIL));
        assert_eq!(leaf.partition_point(|_| true), 0);
        assert_eq!(leaf.find(0), (0, false));
        assert_eq!(leaf.find(u64::MAX), (0, false));
        assert!(leaf.entries(0, 0).is_empty());

        let page = node_page(INT_ENTRY, 7, &[]);
        let internal = NodeRef::new(&page);
        assert!(!internal.is_leaf());
        assert_eq!(internal.child_for(0), 7);
        assert_eq!(internal.child_for(u64::MAX), 7);

        for key in [0, 42, u64::MAX] {
            let page = node_page(LEAF_ENTRY, 9, &[key]);
            let leaf = NodeRef::new(&page);
            assert_eq!((leaf.count(), leaf.ptr()), (1, 9));
            assert_eq!(leaf.find(key), (0, true));
            assert_eq!(leaf.rid(0), Rid::new(key, 3));
            assert_eq!(leaf.find(0), (0, key == 0));
            assert_eq!(
                leaf.find(u64::MAX),
                (usize::from(key != u64::MAX), key == u64::MAX)
            );
            assert_eq!(leaf.entries(0, 1).len(), LEAF_ENTRY);

            let page = node_page(INT_ENTRY, 7, &[key]);
            let internal = NodeRef::new(&page);
            // A separator equal to the key sends the search behind it.
            assert_eq!(internal.child_for(key), !key);
            assert_eq!(internal.child_for(u64::MAX), !key);
            assert_eq!(internal.child_for(0), if key == 0 { !key } else { 7 });
        }
    }

    #[test]
    fn node_ref_on_full_nodes() {
        // Full 2 KiB nodes whose first key is 0 and whose last is u64::MAX.
        let keys = |n: u64| -> Vec<u64> { (0..n - 1).map(|i| i * 10).chain([u64::MAX]).collect() };
        let (leaf_keys, seps) = (keys(110), keys(124));
        let (leaf_page, int_page) = (
            node_page(LEAF_ENTRY, NIL, &leaf_keys),
            node_page(INT_ENTRY, 7, &seps),
        );
        let (leaf, internal) = (NodeRef::new(&leaf_page), NodeRef::new(&int_page));
        assert_eq!((leaf.count(), internal.count()), (110, 124));
        assert_eq!(leaf.partition_point(|_| true), 110);
        assert_eq!(leaf.partition_point(|_| false), 0);
        assert_eq!(leaf.entries(3, 110).len(), 107 * LEAF_ENTRY);
        for (i, &k) in leaf_keys.iter().enumerate() {
            assert_eq!((leaf.key(i), leaf.rid(i)), (k, Rid::new(k, 3)));
            assert_eq!(leaf.find(k), (i, true));
            if k != u64::MAX {
                assert_eq!(leaf.find(k + 1), (i + 1, false));
            }
        }
        for (i, &k) in seps.iter().enumerate() {
            assert_eq!((internal.key(i), internal.child(i)), (k, !k));
            assert_eq!(internal.child_for(k), !k, "separator == key");
            if k != u64::MAX {
                assert_eq!(internal.child_for(k + 9), !k);
            }
            if k > 0 {
                assert_eq!(internal.child_for(k - 1), !seps[i - 1]);
            }
        }
    }

    /// FNV-1a, folded over a byte stream.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// What [`golden_index_images`] pins per region kind.
    #[derive(Debug, PartialEq)]
    struct Golden {
        height: usize,
        pages: u64,
        /// FNV-1a over every index page as the device returns it.
        image_fnv: u64,
        /// hits, misses, evictions, evict_in_place, evict_out_of_place.
        pool: [u64; 5],
        /// host_writes, host_write_deltas, in_place_appends.
        device: [u64; 3],
    }

    /// The scripted stream: 9 500 scattered inserts with interleaved
    /// deletes, duplicate inserts, lookups and sub-range scans, then 4 500
    /// ascending inserts, through a 12-frame pool so nodes evict and
    /// re-fetch. `ipa` formats the index region `[2×4]` under the native
    /// strategy.
    fn golden_run(ipa: bool) -> Golden {
        let mut p = pool_with(ipa, 12);
        let mut t = index(512);
        let mut lsn = 1;
        create(&mut p, &mut t, lsn).unwrap();

        // Every outcome (delete hit or miss, duplicate or not, lookup
        // result, entries a scan visited) is folded into the image hash.
        let scattered = |i: u64| (i * 2_654_435_761) % 1_000_003;
        let mut outcomes = 0u64;
        for i in 0..9_500u64 {
            lsn += 1;
            let key = scattered(i);
            insert(&mut p, &mut t, key, rid_of(key), lsn).unwrap();
            if i % 5 == 4 {
                let victim = scattered(i.saturating_sub(4 * (i % 9)));
                let hit = delete(&mut p, &t, victim, lsn).unwrap();
                outcomes = outcomes.wrapping_mul(31).wrapping_add(u64::from(hit));
            }
            if i % 11 == 10 {
                let again = scattered(i - 3);
                let dup = match insert(&mut p, &mut t, again, rid_of(again), lsn) {
                    Ok(()) => false,
                    Err(StorageError::DuplicateKey(_)) => true,
                    Err(e) => panic!("{e}"),
                };
                outcomes = outcomes.wrapping_mul(31).wrapping_add(u64::from(dup));
            }
            if i % 13 == 12 {
                assert!(!delete(&mut p, &t, 1_000_003 + i, lsn).unwrap());
                let found = lookup(&mut p, &t, scattered(i / 2)).unwrap();
                outcomes = outcomes
                    .wrapping_mul(31)
                    .wrapping_add(found.map_or(0, |r| r.page));
            }
            if i % 97 == 96 {
                range(&mut p, &t, key, key + 20_000, |k, _| {
                    outcomes = outcomes.wrapping_mul(31).wrapping_add(k);
                })
                .unwrap();
            }
        }
        for k in 2_000_000..2_004_500u64 {
            lsn += 1;
            insert(&mut p, &mut t, k, rid_of(k), lsn).unwrap();
        }
        p.flush_all().unwrap();

        let (s, d) = (*p.stats(), p.device().device_stats());
        let mut page = vec![0u8; 2048];
        let mut image_fnv = fnv1a(0xCBF2_9CE4_8422_2325, &outcomes.to_le_bytes());
        for i in 0..t.allocated_pages {
            p.device_mut().read(t.page(i), &mut page).unwrap();
            image_fnv = fnv1a(image_fnv, &page);
        }
        Golden {
            height: height(&mut p, &t),
            pages: t.allocated_pages,
            image_fnv,
            pool: [
                s.hits,
                s.misses,
                s.evictions,
                s.evict_in_place,
                s.evict_out_of_place,
            ],
            device: [d.host_writes, d.host_write_deltas, d.in_place_appends],
        }
    }

    const PLAIN: Golden = Golden {
        height: 3,
        pages: 202,
        image_fnv: 10460669943871990402,
        pool: [71573, 4176, 4164, 0, 3585],
        device: [3585, 0, 0],
    };
    const IPA: Golden = Golden {
        height: 3,
        pages: 211,
        image_fnv: 7295110442682238293,
        pool: [72290, 4550, 4538, 11, 3864],
        device: [3864, 11, 11],
    };

    /// Bit-identity of the refactor, internal splits included (which no
    /// ledger workload reaches): constants captured by running this very
    /// test at the parent commit 6a2fc16 (owned `Node` implementation).
    #[test]
    fn golden_index_images() {
        assert_eq!(golden_run(false), PLAIN);
        assert_eq!(golden_run(true), IPA);
    }
}
