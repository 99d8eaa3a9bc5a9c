//! Heap files: fixed-length rows in slotted pages.
//!
//! Rows are addressed by [`Rid`] (page, slot). Inserts fill pages in order
//! and never reuse tombstoned space (the OLTP benchmarks are
//! insert/update-only on their hot tables).

use serde::{Deserialize, Serialize};

use crate::buffer::{BufferPool, PageId};
use crate::catalog::TableInfo;
use crate::error::{Result, StorageError};
use crate::page::{PageRef, SlottedPage};

/// Row identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Rid {
    pub page: PageId,
    pub slot: u16,
}

impl Rid {
    pub const fn new(page: PageId, slot: u16) -> Self {
        Rid { page, slot }
    }

    /// Pack into 10 bytes (for index payloads).
    pub fn to_bytes(self) -> [u8; 10] {
        let mut b = [0u8; 10];
        b[..8].copy_from_slice(&self.page.to_le_bytes());
        b[8..].copy_from_slice(&self.slot.to_le_bytes());
        b
    }

    pub fn from_bytes(b: &[u8; 10]) -> Self {
        Rid {
            page: u64::from_le_bytes(b[..8].try_into().unwrap()),
            slot: u16::from_le_bytes(b[8..].try_into().unwrap()),
        }
    }
}

/// Insert a row, formatting new pages as the region fills.
pub fn insert(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    row: &[u8],
    lsn: u64,
    mut capture: Option<&mut Vec<u8>>,
) -> Result<Rid> {
    if row.len() != table.spec.row_len {
        return Err(StorageError::RowSizeMismatch {
            expected: table.spec.row_len,
            got: row.len(),
        });
    }
    loop {
        // Allocate/format a fresh page when the cursor catches up.
        if table.insert_cursor == table.allocated_pages {
            if table.allocated_pages == table.spec.pages {
                return Err(StorageError::TableFull(table.spec.name.clone()));
            }
            let pid = table.page(table.allocated_pages);
            pool.new_page(pid)?;
            // Formatting is a system action outside the transaction: an
            // abort must undo the tuple insert but leave the page
            // formatted (otherwise the allocation cursor would point at
            // erased garbage).
            pool.with_page_mut(pid, None, |pm| {
                SlottedPage::new(pm).format(pid as u32);
            })?;
            table.allocated_pages += 1;
        }
        let pid = table.page(table.insert_cursor);
        let slot = pool.with_page_mut(pid, capture.as_deref_mut(), |pm| {
            let mut sp = SlottedPage::new(pm);
            match sp.insert(row) {
                Ok(s) => {
                    sp.set_lsn(lsn);
                    Ok(Some(s))
                }
                Err(StorageError::PageFull { .. }) => Ok(None),
                Err(e) => Err(e),
            }
        })??;
        match slot {
            Some(slot) => {
                table.row_count += 1;
                return Ok(Rid::new(pid, slot));
            }
            None => {
                table.insert_cursor += 1;
            }
        }
    }
}

/// Read a whole row. (`table` is unused today but kept in the signature so
/// schema checks can move here without touching call sites.)
pub fn get(pool: &mut BufferPool, _table: &TableInfo, rid: Rid) -> Result<Vec<u8>> {
    let layout = pool.layout_of(rid.page);
    pool.with_page(rid.page, |buf| {
        PageRef::new(buf, layout)
            .tuple(rid.slot)
            .map(<[u8]>::to_vec)
            .ok_or(StorageError::SlotNotFound {
                page: rid.page,
                slot: rid.slot,
            })
    })?
}

/// Update `bytes.len()` bytes at `offset` within the row — the paper's
/// canonical small update.
pub fn update_field(
    pool: &mut BufferPool,
    rid: Rid,
    offset: usize,
    bytes: &[u8],
    lsn: u64,
    capture: Option<&mut Vec<u8>>,
) -> Result<()> {
    pool.with_page_mut(rid.page, capture, |pm| {
        let mut sp = SlottedPage::new(pm);
        sp.update_field(rid.slot, offset, bytes)?;
        sp.set_lsn(lsn);
        Ok(())
    })?
}

/// Replace a whole row (same length).
pub fn update_row(
    pool: &mut BufferPool,
    rid: Rid,
    row: &[u8],
    lsn: u64,
    capture: Option<&mut Vec<u8>>,
) -> Result<()> {
    pool.with_page_mut(rid.page, capture, |pm| {
        let mut sp = SlottedPage::new(pm);
        sp.update(rid.slot, row)?;
        sp.set_lsn(lsn);
        Ok(())
    })?
}

/// Tombstone a row.
pub fn delete(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    rid: Rid,
    lsn: u64,
    capture: Option<&mut Vec<u8>>,
) -> Result<()> {
    pool.with_page_mut(rid.page, capture, |pm| -> Result<()> {
        let mut sp = SlottedPage::new(pm);
        sp.delete(rid.slot)?;
        sp.set_lsn(lsn);
        Ok(())
    })??;
    table.row_count -= 1;
    Ok(())
}

/// Visit every live row in the table.
pub fn scan(pool: &mut BufferPool, table: &TableInfo, mut f: impl FnMut(Rid, &[u8])) -> Result<()> {
    for i in 0..table.allocated_pages {
        let pid = table.page(i);
        let layout = pool.layout_of(pid);
        pool.with_page(pid, |buf| {
            let r = PageRef::new(buf, layout);
            for (slot, tuple) in r.iter_tuples() {
                f(Rid::new(pid, slot), tuple);
            }
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSpec;
    use crate::page::standard_layout;
    use ipa_core::NmScheme;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
    use ipa_ftl::{Ftl, FtlConfig, WriteStrategy};

    fn pool() -> BufferPool {
        let chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(64, 8, 2048, 64), FlashMode::PSlc)
                .with_disturb(DisturbRates::none()),
        );
        let layout = standard_layout(2048, NmScheme::new(2, 4));
        BufferPool::new(
            Box::new(Ftl::new(chip, FtlConfig::ipa_native(layout))),
            WriteStrategy::IpaNative,
            8,
        )
    }

    fn table(pages: u64, row_len: usize) -> TableInfo {
        let mut c = crate::catalog::Catalog::new();
        let id = c.add(TableSpec::heap("t", row_len, pages));
        c.get(id).clone()
    }

    #[test]
    fn insert_get_round_trip() {
        let mut p = pool();
        let mut t = table(4, 32);
        let rid = insert(&mut p, &mut t, &[9u8; 32], 1, None).unwrap();
        assert_eq!(get(&mut p, &t, rid).unwrap(), vec![9u8; 32]);
        assert_eq!(t.row_count, 1);
    }

    #[test]
    fn inserts_spill_to_next_page() {
        let mut p = pool();
        let mut t = table(4, 400);
        let mut rids = Vec::new();
        for i in 0..8 {
            rids.push(insert(&mut p, &mut t, &[i as u8; 400], 1, None).unwrap());
        }
        // 2048-byte pages hold ~4 rows of 400 B; expect ≥2 pages used.
        assert!(t.insert_cursor >= 1);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(get(&mut p, &t, *rid).unwrap(), vec![i as u8; 400]);
        }
    }

    #[test]
    fn table_full_reported() {
        let mut p = pool();
        let mut t = table(1, 400);
        let mut n = 0;
        loop {
            match insert(&mut p, &mut t, &[0u8; 400], 1, None) {
                Ok(_) => n += 1,
                Err(StorageError::TableFull(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(n > 0);
    }

    #[test]
    fn update_field_round_trip() {
        let mut p = pool();
        let mut t = table(2, 64);
        let rid = insert(&mut p, &mut t, &[0u8; 64], 1, None).unwrap();
        update_field(&mut p, rid, 10, &[1, 2, 3], 2, None).unwrap();
        let row = get(&mut p, &t, rid).unwrap();
        assert_eq!(&row[10..13], &[1, 2, 3]);
        assert_eq!(&row[..10], &[0u8; 10]);
    }

    #[test]
    fn update_row_and_delete() {
        let mut p = pool();
        let mut t = table(2, 16);
        let rid = insert(&mut p, &mut t, &[1u8; 16], 1, None).unwrap();
        update_row(&mut p, rid, &[2u8; 16], 2, None).unwrap();
        assert_eq!(get(&mut p, &t, rid).unwrap(), vec![2u8; 16]);
        delete(&mut p, &mut t, rid, 3, None).unwrap();
        assert!(matches!(
            get(&mut p, &t, rid),
            Err(StorageError::SlotNotFound { .. })
        ));
        assert_eq!(t.row_count, 0);
    }

    #[test]
    fn scan_visits_live_rows() {
        let mut p = pool();
        let mut t = table(4, 100);
        for i in 0..10u8 {
            insert(&mut p, &mut t, &[i; 100], 1, None).unwrap();
        }
        let rid3 = Rid::new(t.page(0), 3);
        delete(&mut p, &mut t, rid3, 2, None).unwrap();
        let mut seen = Vec::new();
        scan(&mut p, &t, |_, row| seen.push(row[0])).unwrap();
        assert_eq!(seen.len(), 9);
        assert!(!seen.contains(&3));
    }

    #[test]
    fn wrong_row_size_rejected() {
        let mut p = pool();
        let mut t = table(1, 8);
        assert!(matches!(
            insert(&mut p, &mut t, &[0u8; 9], 1, None),
            Err(StorageError::RowSizeMismatch { .. })
        ));
    }

    #[test]
    fn rid_pack_round_trip() {
        let r = Rid::new(0xDEAD_BEEF_u64, 513);
        assert_eq!(Rid::from_bytes(&r.to_bytes()), r);
    }

    #[test]
    fn survives_cache_drop() {
        let mut p = pool();
        let mut t = table(2, 24);
        let rid = insert(&mut p, &mut t, &[7u8; 24], 1, None).unwrap();
        update_field(&mut p, rid, 0, &[8], 2, None).unwrap();
        p.drop_cache().unwrap();
        let row = get(&mut p, &t, rid).unwrap();
        assert_eq!(row[0], 8);
        assert_eq!(&row[1..], &[7u8; 23]);
    }
}
