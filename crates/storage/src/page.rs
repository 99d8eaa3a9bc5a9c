//! NSM slotted pages over the IPA layout, with tracked writes.
//!
//! Every byte mutation flows through [`PageMut::write`], which
//! simultaneously:
//!
//! 1. patches the buffer frame,
//! 2. reports old/new values to the page's [`ChangeTracker`] (feeding the
//!    N×M conformance check), and
//! 3. appends `[offset u16][len u16][old; len][new; len]` to an optional
//!    capture — the bytes of the WAL update record's payload, which the log
//!    copies verbatim. Only [`PageMut::write`] writes that header and only
//!    [`write_ops`] reads it: undo, redo and replay all go through it.
//!
//! The page format follows Figure 3: a 32-byte header, the tuple body with
//! a slot directory growing down from the end of the body region, the
//! reserved delta-record area, and an 8-byte footer.
//!
//! Header fields (offsets within the page):
//!
//! | off | len | field |
//! |-----|-----|------------------------------------------|
//! | 0   | 4   | page id (low 32 bits)                    |
//! | 4   | 12  | page LSN (u64) + reserved                |
//! | 12  | 2   | slot count                               |
//! | 14  | 2   | free-space start (tuples grow up)        |
//! | 16  | 2   | live tuple count                         |
//! | 18  | 14  | reserved                                 |
//!
//! Footer: page-id echo (4) + format magic (4) for torn-write detection.

use ipa_core::{ChangeTracker, NmScheme, PageLayout};

use crate::error::{Result, StorageError};

/// Bytes of page header captured in `Δmetadata`.
pub const HEADER_LEN: usize = 32;
/// Bytes of page footer captured in `Δmetadata`.
pub const FOOTER_LEN: usize = 8;
/// Footer magic identifying an initialised page of this format.
pub const PAGE_MAGIC: u32 = 0x1BA0_17E5;

/// Size of one slot-directory entry (offset u16 + len u16).
const SLOT_BYTES: usize = 4;

/// Build the standard page layout for a page size and scheme.
pub fn standard_layout(page_size: usize, scheme: NmScheme) -> PageLayout {
    PageLayout::new(page_size, HEADER_LEN, FOOTER_LEN, scheme)
}

/// Bytes one tracked write of `len` bytes adds to a capture.
pub const fn write_op_len(len: usize) -> usize {
    4 + 2 * len
}

/// The writes of a capture, oldest first, as `(offset, old, new)`. These
/// bytes also come back off the log device, so a write they cannot hold
/// ends the iteration instead of indexing past the end.
pub fn write_ops(mut bytes: &[u8]) -> impl Iterator<Item = (u16, &[u8], &[u8])> {
    std::iter::from_fn(move || {
        let (&[o0, o1, l0, l1], rest) = bytes.split_first_chunk()?;
        let len = u16::from_le_bytes([l0, l1]) as usize;
        let (old, rest) = rest.split_at_checked(len)?;
        let (new, rest) = rest.split_at_checked(len)?;
        bytes = rest;
        Some((u16::from_le_bytes([o0, o1]), old, new))
    })
}

/// Mutable view of a buffered page that funnels all writes through the
/// tracker (and optionally a write capture).
pub struct PageMut<'a> {
    buf: &'a mut [u8],
    tracker: &'a mut ChangeTracker,
    capture: Option<&'a mut Vec<u8>>,
}

impl<'a> PageMut<'a> {
    pub fn new(
        buf: &'a mut [u8],
        tracker: &'a mut ChangeTracker,
        capture: Option<&'a mut Vec<u8>>,
    ) -> Self {
        PageMut {
            buf,
            tracker,
            capture,
        }
    }

    /// Current page bytes (read-only).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.buf
    }

    #[inline]
    pub fn layout(&self) -> PageLayout {
        *self.tracker.layout()
    }

    /// The tracked write primitive.
    pub fn write(&mut self, offset: usize, new: &[u8]) {
        let old = &self.buf[offset..offset + new.len()];
        if old == new {
            return; // no-op writes cost nothing anywhere
        }
        if let Some(cap) = self.capture.as_deref_mut() {
            cap.extend_from_slice(&(offset as u16).to_le_bytes());
            cap.extend_from_slice(&(new.len() as u16).to_le_bytes());
            cap.extend_from_slice(old);
            cap.extend_from_slice(new);
        }
        self.tracker
            .record_range_write(offset, &self.buf[offset..offset + new.len()], new);
        self.buf[offset..offset + new.len()].copy_from_slice(new);
    }

    /// Escape hatch for the tracker (e.g. marking structural changes).
    #[inline]
    pub fn tracker_mut(&mut self) -> &mut ChangeTracker {
        self.tracker
    }

    fn write_u16(&mut self, offset: usize, v: u16) {
        self.write(offset, &v.to_le_bytes());
    }

    fn write_u32(&mut self, offset: usize, v: u32) {
        self.write(offset, &v.to_le_bytes());
    }

    fn write_u64(&mut self, offset: usize, v: u64) {
        self.write(offset, &v.to_le_bytes());
    }
}

/// Read-only accessors shared by [`SlottedPage`] and raw page images.
pub struct PageRef<'a> {
    buf: &'a [u8],
    layout: PageLayout,
}

impl<'a> PageRef<'a> {
    pub fn new(buf: &'a [u8], layout: PageLayout) -> Self {
        debug_assert_eq!(buf.len(), layout.page_size);
        PageRef { buf, layout }
    }

    #[inline]
    pub fn page_id(&self) -> u32 {
        u32::from_le_bytes(self.buf[0..4].try_into().unwrap())
    }

    #[inline]
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.buf[4..12].try_into().unwrap())
    }

    #[inline]
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes(self.buf[12..14].try_into().unwrap())
    }

    #[inline]
    pub fn free_start(&self) -> u16 {
        u16::from_le_bytes(self.buf[14..16].try_into().unwrap())
    }

    #[inline]
    pub fn live_tuples(&self) -> u16 {
        u16::from_le_bytes(self.buf[16..18].try_into().unwrap())
    }

    /// Is this page initialised with our format?
    pub fn is_formatted(&self) -> bool {
        let magic_off = self.layout.page_size - 4;
        u32::from_le_bytes(self.buf[magic_off..].try_into().unwrap()) == PAGE_MAGIC
    }

    /// Offset of slot `i`'s directory entry (slots grow down from the end
    /// of the body region). Saturating so that a corrupt slot count reads
    /// as "no space" instead of panicking.
    fn slot_entry_offset(&self, slot: u16) -> usize {
        self.layout
            .delta_area_offset()
            .saturating_sub((slot as usize + 1) * SLOT_BYTES)
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let off = self.slot_entry_offset(slot);
        (
            u16::from_le_bytes(self.buf[off..off + 2].try_into().unwrap()),
            u16::from_le_bytes(self.buf[off + 2..off + 4].try_into().unwrap()),
        )
    }

    /// Tuple bytes of a live slot.
    pub fn tuple(&self, slot: u16) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if len == 0 {
            return None; // deleted
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Iterate live `(slot, tuple)` pairs.
    pub fn iter_tuples(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.tuple(s).map(|t| (s, t)))
    }

    /// Contiguous free bytes between the tuple heap and the slot directory.
    pub fn free_space(&self) -> usize {
        let dir_bottom = self.slot_entry_offset(self.slot_count().saturating_sub(1));
        let dir_bottom = if self.slot_count() == 0 {
            self.layout.delta_area_offset()
        } else {
            dir_bottom
        };
        dir_bottom.saturating_sub(self.free_start() as usize)
    }

    /// Space needed to insert a tuple of `len` bytes (tuple + new slot).
    pub fn space_needed(len: usize) -> usize {
        len + SLOT_BYTES
    }
}

/// Most capture bytes [`SlottedPage::insert`] + [`SlottedPage::set_lsn`]
/// produce for a `len`-byte tuple: the tuple, five `u16` slot/header
/// fields and the LSN.
pub const fn insert_capture_bound(len: usize) -> usize {
    write_op_len(len) + 5 * write_op_len(2) + write_op_len(8)
}

/// Mutable slotted-page operations over a [`PageMut`].
pub struct SlottedPage<'a, 'b> {
    pm: &'a mut PageMut<'b>,
    layout: PageLayout,
}

impl<'a, 'b> SlottedPage<'a, 'b> {
    pub fn new(pm: &'a mut PageMut<'b>) -> Self {
        let layout = pm.layout();
        SlottedPage { pm, layout }
    }

    fn r(&self) -> PageRef<'_> {
        PageRef::new(self.pm.bytes(), self.layout)
    }

    /// Format a fresh page. This is a structural operation: the tracker is
    /// marked out-of-place (a new page has no flash original anyway).
    pub fn format(&mut self, page_id: u32) {
        self.pm.tracker_mut().mark_out_of_place();
        self.pm.write_u32(0, page_id);
        self.pm.write_u64(4, 0); // LSN
        self.pm.write_u16(12, 0); // slot count
        self.pm.write_u16(14, HEADER_LEN as u16); // free start
        self.pm.write_u16(16, 0); // live tuples
        let end = self.layout.page_size;
        self.pm.write_u32(end - 8, page_id);
        self.pm.write_u32(end - 4, PAGE_MAGIC);
    }

    pub fn set_lsn(&mut self, lsn: u64) {
        self.pm.write_u64(4, lsn);
    }

    /// Insert a tuple, returning its slot. Inserts are structural (new
    /// slot entry + tuple bytes + header churn), so they mark the page
    /// out-of-place — exactly the paper's behaviour: IPA pays off on
    /// *updates*, not inserts.
    pub fn insert(&mut self, tuple: &[u8]) -> Result<u16> {
        let r = self.r();
        let page = r.page_id() as u64;
        if r.free_space() < PageRef::space_needed(tuple.len()) {
            return Err(StorageError::PageFull { page });
        }
        let slot = r.slot_count();
        let off = r.free_start();
        let live = r.live_tuples();
        let entry_off = r.slot_entry_offset(slot);

        self.pm.tracker_mut().mark_out_of_place();
        self.pm.write(off as usize, tuple);
        self.pm.write_u16(entry_off, off);
        self.pm.write_u16(entry_off + 2, tuple.len() as u16);
        self.pm.write_u16(12, slot + 1);
        self.pm.write_u16(14, off + tuple.len() as u16);
        self.pm.write_u16(16, live + 1);
        Ok(slot)
    }

    /// Overwrite a whole tuple in place (same length). This is the
    /// delta-friendly path: only differing bytes are tracked.
    pub fn update(&mut self, slot: u16, tuple: &[u8]) -> Result<()> {
        let r = self.r();
        let page = r.page_id() as u64;
        let Some(existing) = r.tuple(slot) else {
            return Err(StorageError::SlotNotFound { page, slot });
        };
        if existing.len() != tuple.len() {
            return Err(StorageError::RowSizeMismatch {
                expected: existing.len(),
                got: tuple.len(),
            });
        }
        let (off, _) = r.slot_entry(slot);
        self.pm.write(off as usize, tuple);
        Ok(())
    }

    /// Update `len = bytes.len()` bytes at `field_offset` within a tuple —
    /// the paper's canonical small update.
    pub fn update_field(&mut self, slot: u16, field_offset: usize, bytes: &[u8]) -> Result<()> {
        let r = self.r();
        let page = r.page_id() as u64;
        let Some(existing) = r.tuple(slot) else {
            return Err(StorageError::SlotNotFound { page, slot });
        };
        if field_offset + bytes.len() > existing.len() {
            return Err(StorageError::FieldOutOfRange {
                row_len: existing.len(),
                offset: field_offset,
                len: bytes.len(),
            });
        }
        let (off, _) = r.slot_entry(slot);
        self.pm.write(off as usize + field_offset, bytes);
        Ok(())
    }

    /// Tombstone a tuple (len = 0). Space is not compacted — benchmark
    /// tables never reuse it, and compaction would be a structural rewrite.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        let r = self.r();
        let page = r.page_id() as u64;
        if r.tuple(slot).is_none() {
            return Err(StorageError::SlotNotFound { page, slot });
        }
        let entry_off = r.slot_entry_offset(slot);
        let live = r.live_tuples();
        self.pm.tracker_mut().mark_out_of_place();
        self.pm.write_u16(entry_off + 2, 0);
        self.pm.write_u16(16, live - 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::IpaVerdict;
    use proptest::prelude::*;

    fn setup(scheme: NmScheme) -> (Vec<u8>, ChangeTracker, PageLayout) {
        let layout = standard_layout(2048, scheme);
        let buf = vec![0xFFu8; 2048];
        let tracker = ChangeTracker::new_unflashed(layout);
        (buf, tracker, layout)
    }

    #[test]
    fn format_and_read_back() {
        let (mut buf, mut tr, layout) = setup(NmScheme::new(2, 4));
        let mut pm = PageMut::new(&mut buf, &mut tr, None);
        SlottedPage::new(&mut pm).format(42);
        let r = PageRef::new(&buf, layout);
        assert_eq!(r.page_id(), 42);
        assert_eq!(r.slot_count(), 0);
        assert_eq!(r.free_start() as usize, HEADER_LEN);
        assert!(r.is_formatted());
    }

    #[test]
    fn insert_then_read() {
        let (mut buf, mut tr, layout) = setup(NmScheme::new(2, 4));
        let mut pm = PageMut::new(&mut buf, &mut tr, None);
        let mut sp = SlottedPage::new(&mut pm);
        sp.format(1);
        let s0 = sp.insert(b"hello").unwrap();
        let s1 = sp.insert(b"world!").unwrap();
        let r = PageRef::new(&buf, layout);
        assert_eq!(r.tuple(s0).unwrap(), b"hello");
        assert_eq!(r.tuple(s1).unwrap(), b"world!");
        assert_eq!(r.live_tuples(), 2);
        assert_eq!(r.iter_tuples().count(), 2);
    }

    #[test]
    fn page_full_detected() {
        let (mut buf, mut tr, _) = setup(NmScheme::new(2, 4));
        let mut pm = PageMut::new(&mut buf, &mut tr, None);
        let mut sp = SlottedPage::new(&mut pm);
        sp.format(1);
        let row = [0u8; 100];
        let mut inserted = 0;
        loop {
            match sp.insert(&row) {
                Ok(_) => inserted += 1,
                Err(StorageError::PageFull { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // 2048 - 32 header - 8 footer - 90 delta - … ⇒ about 18 rows.
        assert!((15..=20).contains(&inserted), "inserted {inserted}");
    }

    #[test]
    fn update_field_is_ipa_friendly() {
        let (mut buf, mut tr, _) = setup(NmScheme::new(2, 4));
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            let mut sp = SlottedPage::new(&mut pm);
            sp.format(1);
            sp.insert(&[0u8; 64]).unwrap();
        }
        // Simulate the page having been flushed: history clean.
        tr.commit_out_of_place();
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            let mut sp = SlottedPage::new(&mut pm);
            sp.update_field(0, 10, &[7, 8]).unwrap();
            sp.set_lsn(99);
        }
        assert_eq!(tr.changed_body_bytes(), 2);
        assert_eq!(tr.verdict(), IpaVerdict::InPlace { records: 1 });
        let r = PageRef::new(&buf, standard_layout(2048, NmScheme::new(2, 4)));
        assert_eq!(r.lsn(), 99);
        assert_eq!(&r.tuple(0).unwrap()[10..12], &[7, 8]);
    }

    #[test]
    fn whole_tuple_update_tracks_net_changes_only() {
        let (mut buf, mut tr, _) = setup(NmScheme::new(2, 4));
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            let mut sp = SlottedPage::new(&mut pm);
            sp.format(1);
            sp.insert(&[5u8; 64]).unwrap();
        }
        tr.commit_out_of_place();
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            let mut sp = SlottedPage::new(&mut pm);
            let mut row = [5u8; 64];
            row[3] = 9; // single byte differs
            sp.update(0, &row).unwrap();
        }
        assert_eq!(tr.changed_body_bytes(), 1);
    }

    #[test]
    fn insert_marks_out_of_place() {
        let (mut buf, mut tr, _) = setup(NmScheme::new(2, 4));
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            let mut sp = SlottedPage::new(&mut pm);
            sp.format(1);
        }
        tr.commit_out_of_place();
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            SlottedPage::new(&mut pm).insert(b"row").unwrap();
        }
        assert!(tr.is_out_of_place());
    }

    #[test]
    fn delete_tombstones() {
        let (mut buf, mut tr, layout) = setup(NmScheme::new(2, 4));
        let mut pm = PageMut::new(&mut buf, &mut tr, None);
        let mut sp = SlottedPage::new(&mut pm);
        sp.format(1);
        let s = sp.insert(b"gone").unwrap();
        sp.delete(s).unwrap();
        assert!(matches!(
            sp.delete(s),
            Err(StorageError::SlotNotFound { .. })
        ));
        let r = PageRef::new(&buf, layout);
        assert_eq!(r.tuple(s), None);
        assert_eq!(r.live_tuples(), 0);
        assert_eq!(r.slot_count(), 1, "slot remains, tombstoned");
    }

    #[test]
    fn capture_records_old_and_new() {
        let (mut buf, mut tr, _) = setup(NmScheme::new(2, 4));
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            let mut sp = SlottedPage::new(&mut pm);
            sp.format(1);
            sp.insert(&[1u8; 8]).unwrap();
        }
        tr.commit_out_of_place();
        let mut ops = Vec::new();
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, Some(&mut ops));
            let mut sp = SlottedPage::new(&mut pm);
            sp.update_field(0, 2, &[9]).unwrap();
        }
        let at = (HEADER_LEN + 2) as u16;
        assert_eq!(
            write_ops(&ops).collect::<Vec<_>>(),
            [(at, &[1u8][..], &[9u8][..])]
        );
        let [o0, o1] = at.to_le_bytes();
        assert_eq!(ops, [o0, o1, 1, 0, 1, 9], "the wire bytes, verbatim");
    }

    #[test]
    fn write_ops_stops_on_hostile_bytes() {
        let count = |bytes: &[u8]| write_ops(bytes).count();
        assert_eq!(count(&[]), 0, "empty");
        assert_eq!(count(&[9, 0, 1]), 0, "a 3-byte tail");
        assert_eq!(count(&[9, 0, 2, 0, 1, 1, 2]), 0, "new half cut short");
        assert_eq!(count(&[9, 0, 0xFF, 0xFF, 1, 2]), 0, "len past the end");
        // A sound write, then garbage: the sound one is read, then a stop.
        let ops = [9, 0, 1, 0, 5, 6, 3, 0, 200, 0, 1];
        assert_eq!(
            write_ops(&ops).collect::<Vec<_>>(),
            [(9, &[5u8][..], &[6u8][..])]
        );
        assert_eq!(count(&[0, 0, 0, 0]), 1, "a zero-length write is a write");
    }

    proptest! {
        /// What `PageMut::write` captures, `write_ops` reads back — and
        /// every truncation of it reads back as a prefix, never a panic.
        #[test]
        fn capture_round_trips_through_the_reader(
            writes in proptest::collection::vec(
                (40usize..1900, proptest::collection::vec(any::<u8>(), 0..9)),
                0..12,
            ),
            cut in 0usize..400,
        ) {
            let (mut buf, mut tr, _) = setup(NmScheme::disabled());
            let (mut ops, mut model) = (Vec::new(), Vec::new());
            let mut pm = PageMut::new(&mut buf, &mut tr, Some(&mut ops));
            for (at, new) in &writes {
                let old = pm.bytes()[*at..at + new.len()].to_vec();
                if old != *new {
                    model.push((*at as u16, old, new.clone()));
                }
                pm.write(*at, new);
            }
            let read = |bytes| -> Vec<_> {
                write_ops(bytes)
                    .map(|(at, old, new)| (at, old.to_vec(), new.to_vec()))
                    .collect()
            };
            prop_assert_eq!(&read(&ops), &model);
            let cut = cut.min(ops.len());
            let prefix = read(&ops[..cut]);
            prop_assert_eq!(&prefix[..], &model[..prefix.len()]);
        }
    }

    #[test]
    fn noop_write_costs_nothing() {
        let (mut buf, mut tr, _) = setup(NmScheme::new(2, 4));
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, None);
            let mut sp = SlottedPage::new(&mut pm);
            sp.format(1);
            sp.insert(&[3u8; 8]).unwrap();
        }
        tr.commit_out_of_place();
        let mut ops = Vec::new();
        {
            let mut pm = PageMut::new(&mut buf, &mut tr, Some(&mut ops));
            let mut sp = SlottedPage::new(&mut pm);
            sp.update_field(0, 0, &[3]).unwrap(); // same value
        }
        assert!(ops.is_empty());
        assert_eq!(tr.changed_body_bytes(), 0);
    }

    #[test]
    fn update_wrong_length_rejected() {
        let (mut buf, mut tr, _) = setup(NmScheme::new(2, 4));
        let mut pm = PageMut::new(&mut buf, &mut tr, None);
        let mut sp = SlottedPage::new(&mut pm);
        sp.format(1);
        sp.insert(&[0u8; 8]).unwrap();
        assert!(matches!(
            sp.update(0, &[0u8; 9]),
            Err(StorageError::RowSizeMismatch { .. })
        ));
        assert!(matches!(
            sp.update_field(0, 6, &[0u8; 4]),
            Err(StorageError::FieldOutOfRange { .. })
        ));
    }
}
