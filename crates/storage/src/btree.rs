//! B+-tree index: `u64` key → [`Rid`], stored on engine pages.
//!
//! Node pages use the standard 32-byte page header (so LSN/format checks
//! work uniformly) followed by a node header and sorted fixed-width
//! entries. Index pages live in non-IPA regions by default — index
//! maintenance shifts entry arrays, which is exactly the structural change
//! the N×M scheme cannot absorb — but nothing prevents placing an index in
//! an IPA region to measure that (the `nm_sweep` bench does).
//!
//! Mutations read the node, rewrite it in memory, and write back only the
//! changed byte span, so WAL records and change tracking stay proportional
//! to the actual modification.

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

/// Decoded node image.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        keys: Vec<u64>,
        rids: Vec<Rid>,
        next: Option<PageId>,
    },
    Internal {
        keys: Vec<u64>,
        /// `children.len() == keys.len() + 1`; child `i` holds keys in
        /// `[keys[i-1], keys[i])`.
        children: Vec<PageId>,
    },
}

impl Node {
    fn parse(buf: &[u8]) -> Node {
        let b = &buf[HEADER_LEN..];
        let leaf = b[0] == 0;
        let count = u16::from_le_bytes(b[2..4].try_into().unwrap()) as usize;
        let ptr = u64::from_le_bytes(b[4..12].try_into().unwrap());
        if leaf {
            let mut keys = Vec::with_capacity(count);
            let mut rids = Vec::with_capacity(count);
            for i in 0..count {
                let off = NODE_HEADER + i * LEAF_ENTRY;
                keys.push(u64::from_le_bytes(b[off..off + 8].try_into().unwrap()));
                rids.push(Rid::from_bytes(b[off + 8..off + 18].try_into().unwrap()));
            }
            Node::Leaf {
                keys,
                rids,
                next: (ptr != NIL).then_some(ptr),
            }
        } else {
            let mut keys = Vec::with_capacity(count);
            let mut children = Vec::with_capacity(count + 1);
            children.push(ptr); // leftmost child
            for i in 0..count {
                let off = NODE_HEADER + i * INT_ENTRY;
                keys.push(u64::from_le_bytes(b[off..off + 8].try_into().unwrap()));
                children.push(u64::from_le_bytes(b[off + 8..off + 16].try_into().unwrap()));
            }
            Node::Internal { keys, children }
        }
    }

    /// Serialize into a body image of `body_len` bytes (0xFF padded so the
    /// unchanged tail never shows up as a diff).
    fn serialize(&self, body_len: usize, previous: &[u8]) -> Vec<u8> {
        let mut b = previous.to_vec();
        debug_assert_eq!(b.len(), body_len);
        match self {
            Node::Leaf { keys, rids, next } => {
                b[0] = 0;
                b[1] = 0;
                b[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                b[4..12].copy_from_slice(&next.unwrap_or(NIL).to_le_bytes());
                for (i, (k, r)) in keys.iter().zip(rids).enumerate() {
                    let off = NODE_HEADER + i * LEAF_ENTRY;
                    b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    b[off + 8..off + 18].copy_from_slice(&r.to_bytes());
                }
            }
            Node::Internal { keys, children } => {
                b[0] = 1;
                b[1] = 0;
                b[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                b[4..12].copy_from_slice(&children[0].to_le_bytes());
                for (i, k) in keys.iter().enumerate() {
                    let off = NODE_HEADER + i * INT_ENTRY;
                    b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    b[off + 8..off + 16].copy_from_slice(&children[i + 1].to_le_bytes());
                }
            }
        }
        b
    }
}

fn body_len(pool: &BufferPool, pid: PageId) -> usize {
    let l = pool.layout_of(pid);
    l.delta_area_offset() - HEADER_LEN
}

/// Max leaf entries for a given body length.
fn leaf_capacity(body: usize) -> usize {
    (body - NODE_HEADER) / LEAF_ENTRY
}

fn internal_capacity(body: usize) -> usize {
    (body - NODE_HEADER) / INT_ENTRY
}

fn read_node(pool: &mut BufferPool, pid: PageId) -> Result<Node> {
    pool.with_page(pid, Node::parse)
}

/// Write a node image back, touching only the changed byte span.
fn write_node(pool: &mut BufferPool, pid: PageId, node: &Node, lsn: u64) -> Result<()> {
    pool.with_page_mut(pid, None, |pm| {
        let body_len = pm.layout().delta_area_offset() - HEADER_LEN;
        let old = pm.bytes()[HEADER_LEN..HEADER_LEN + body_len].to_vec();
        let new = node.serialize(body_len, &old);
        write_diff_span(pm, HEADER_LEN, &old, &new);
        let mut sp = SlottedPage::new(pm);
        sp.set_lsn(lsn);
    })
}

/// Write only the span between the first and last differing byte.
fn write_diff_span(pm: &mut PageMut<'_>, base: usize, old: &[u8], new: &[u8]) {
    debug_assert_eq!(old.len(), new.len());
    let Some(first) = old.iter().zip(new).position(|(a, b)| a != b) else {
        return;
    };
    let last = old
        .iter()
        .zip(new)
        .rposition(|(a, b)| a != b)
        .expect("diff exists");
    pm.write(base + first, &new[first..=last]);
}

/// Allocate and format a fresh node page from the index region.
fn alloc_node(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    node: &Node,
    lsn: u64,
) -> Result<PageId> {
    if table.allocated_pages == table.spec.pages {
        return Err(StorageError::TableFull(table.spec.name.clone()));
    }
    let pid = table.page(table.allocated_pages);
    table.allocated_pages += 1;
    pool.new_page(pid)?;
    pool.with_page_mut(pid, None, |pm| {
        SlottedPage::new(pm).format(pid as u32);
    })?;
    write_node(pool, pid, node, lsn)?;
    Ok(pid)
}

/// Create an empty tree (root = empty leaf).
pub fn create(pool: &mut BufferPool, table: &mut TableInfo, lsn: u64) -> Result<()> {
    assert!(table.root.is_none(), "index already created");
    let root = alloc_node(
        pool,
        table,
        &Node::Leaf {
            keys: Vec::new(),
            rids: Vec::new(),
            next: None,
        },
        lsn,
    )?;
    table.root = Some(root);
    Ok(())
}

/// Descend to the leaf that owns `key`, returning the path of internal
/// pages (root first) and the leaf page id.
fn descend(pool: &mut BufferPool, root: PageId, key: u64) -> Result<(Vec<PageId>, PageId)> {
    let mut path = Vec::new();
    let mut pid = root;
    loop {
        let node = read_node(pool, pid)?;
        match node {
            Node::Leaf { .. } => return Ok((path, pid)),
            Node::Internal { keys, children } => {
                path.push(pid);
                // Last separator ≤ key decides the child.
                let idx = keys.partition_point(|&k| k <= key);
                pid = children[idx];
            }
        }
    }
}

/// Point lookup.
pub fn lookup(pool: &mut BufferPool, table: &TableInfo, key: u64) -> Result<Option<Rid>> {
    let Some(root) = table.root else {
        return Ok(None);
    };
    let (_, leaf) = descend(pool, root, key)?;
    let Node::Leaf { keys, rids, .. } = read_node(pool, leaf)? else {
        unreachable!("descend returns a leaf");
    };
    Ok(keys.binary_search(&key).ok().map(|i| rids[i]))
}

/// Insert a key; duplicate keys are rejected (primary-key semantics).
pub fn insert(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    key: u64,
    rid: Rid,
    lsn: u64,
) -> Result<()> {
    let root = table.root.expect("index not created");
    let (path, leaf_pid) = descend(pool, root, key)?;
    let Node::Leaf {
        mut keys,
        mut rids,
        next,
    } = read_node(pool, leaf_pid)?
    else {
        unreachable!()
    };
    let pos = match keys.binary_search(&key) {
        Ok(_) => return Err(StorageError::DuplicateKey(key)),
        Err(p) => p,
    };
    keys.insert(pos, key);
    rids.insert(pos, rid);

    let cap = leaf_capacity(body_len(pool, leaf_pid));
    if keys.len() <= cap {
        write_node(pool, leaf_pid, &Node::Leaf { keys, rids, next }, lsn)?;
        return Ok(());
    }

    // Leaf split.
    let mid = keys.len() / 2;
    let right_keys = keys.split_off(mid);
    let right_rids = rids.split_off(mid);
    let sep = right_keys[0];
    let right_pid = alloc_node(
        pool,
        table,
        &Node::Leaf {
            keys: right_keys,
            rids: right_rids,
            next,
        },
        lsn,
    )?;
    write_node(
        pool,
        leaf_pid,
        &Node::Leaf {
            keys,
            rids,
            next: Some(right_pid),
        },
        lsn,
    )?;
    insert_separator(pool, table, path, leaf_pid, sep, right_pid, lsn)
}

/// Propagate a split upward.
fn insert_separator(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    mut path: Vec<PageId>,
    left: PageId,
    sep: u64,
    right: PageId,
    lsn: u64,
) -> Result<()> {
    let Some(parent_pid) = path.pop() else {
        // Split reached the root: grow the tree.
        let new_root = alloc_node(
            pool,
            table,
            &Node::Internal {
                keys: vec![sep],
                children: vec![left, right],
            },
            lsn,
        )?;
        table.root = Some(new_root);
        return Ok(());
    };
    let Node::Internal {
        mut keys,
        mut children,
    } = read_node(pool, parent_pid)?
    else {
        unreachable!("path contains internals only")
    };
    let pos = keys.partition_point(|&k| k <= sep);
    keys.insert(pos, sep);
    children.insert(pos + 1, right);

    let cap = internal_capacity(body_len(pool, parent_pid));
    if keys.len() <= cap {
        write_node(pool, parent_pid, &Node::Internal { keys, children }, lsn)?;
        return Ok(());
    }

    // Internal split: middle key moves up.
    let mid = keys.len() / 2;
    let up = keys[mid];
    let right_keys = keys.split_off(mid + 1);
    keys.pop(); // `up` leaves this node
    let right_children = children.split_off(mid + 1);
    let right_pid = alloc_node(
        pool,
        table,
        &Node::Internal {
            keys: right_keys,
            children: right_children,
        },
        lsn,
    )?;
    write_node(pool, parent_pid, &Node::Internal { keys, children }, lsn)?;
    insert_separator(pool, table, path, parent_pid, up, right_pid, lsn)
}

/// Remove a key. Returns whether it existed. Leaves are never merged —
/// benchmark deletes are rare and sparse leaves stay searchable.
pub fn delete(pool: &mut BufferPool, table: &TableInfo, key: u64, lsn: u64) -> Result<bool> {
    let Some(root) = table.root else {
        return Ok(false);
    };
    let (_, leaf_pid) = descend(pool, root, key)?;
    let Node::Leaf {
        mut keys,
        mut rids,
        next,
    } = read_node(pool, leaf_pid)?
    else {
        unreachable!()
    };
    match keys.binary_search(&key) {
        Ok(i) => {
            keys.remove(i);
            rids.remove(i);
            write_node(pool, leaf_pid, &Node::Leaf { keys, rids, next }, lsn)?;
            Ok(true)
        }
        Err(_) => Ok(false),
    }
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
    let (_, mut leaf_pid) = descend(pool, root, lo)?;
    loop {
        let Node::Leaf { keys, rids, next } = read_node(pool, leaf_pid)? else {
            unreachable!()
        };
        for (k, r) in keys.iter().zip(&rids) {
            if *k > hi {
                return Ok(());
            }
            if *k >= lo {
                f(*k, *r);
            }
        }
        match next {
            Some(n) => leaf_pid = n,
            None => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableSpec};
    use crate::page::standard_layout;
    use ipa_core::NmScheme;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
    use ipa_ftl::{Ftl, FtlConfig, WriteStrategy};

    fn pool() -> BufferPool {
        let chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(128, 16, 2048, 64), FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        );
        let _ = standard_layout(2048, NmScheme::disabled());
        BufferPool::new(
            Box::new(Ftl::new(chip, FtlConfig::traditional())),
            WriteStrategy::Traditional,
            16,
        )
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
}
