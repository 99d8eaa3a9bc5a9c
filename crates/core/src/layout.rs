//! The IPA database-page layout — Figure 3 of the paper.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ Page Header                                                │ header_len
//! ├────────────────────────────────────────────────────────────┤
//! │ Tuple 1 │ Tuple 2 │ Tuple 3 │ … free space … │ slot dir    │ body
//! ├────────────────────────────────────────────────────────────┤
//! │ Delta-Record Area:  rec 0 │ rec 1 │ … │ rec N-1            │ N×(1+3M+Δmeta)
//! ├────────────────────────────────────────────────────────────┤
//! │ Page Footer                                                │ footer_len
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! The delta-record area is carved out *before* the footer and stays
//! all-`0xFF` (the erased state) in every out-of-place page image, so that
//! appending a record later is always a legal `1 → 0` flash program.
//! `Δmetadata` is the concatenated header + footer image: the one part of
//! the page that changes on *every* update (LSN, free-space counters) and
//! therefore cannot be byte-diffed economically.

use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::config::NmScheme;

/// Geometry of an IPA-formatted database page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageLayout {
    /// Total page size in bytes (must match the flash page size).
    pub page_size: usize,
    /// Bytes of page header captured in `Δmetadata`.
    pub header_len: usize,
    /// Bytes of page footer captured in `Δmetadata`.
    pub footer_len: usize,
    /// The N×M scheme carving out the delta-record area.
    pub scheme: NmScheme,
}

impl PageLayout {
    pub fn new(page_size: usize, header_len: usize, footer_len: usize, scheme: NmScheme) -> Self {
        let l = PageLayout {
            page_size,
            header_len,
            footer_len,
            scheme,
        };
        assert!(
            header_len + footer_len + l.delta_area_len() < page_size,
            "layout leaves no body space: page {page_size}, header {header_len}, \
             footer {footer_len}, delta area {}",
            l.delta_area_len()
        );
        l
    }

    /// Length of `Δmetadata` (header + footer image).
    #[inline]
    pub const fn meta_len(&self) -> usize {
        self.header_len + self.footer_len
    }

    /// Encoded size of one delta record under this layout.
    #[inline]
    pub const fn record_size(&self) -> usize {
        self.scheme.record_size(self.meta_len())
    }

    /// Total bytes reserved for the delta-record area.
    #[inline]
    pub const fn delta_area_len(&self) -> usize {
        self.scheme.delta_area_size(self.meta_len())
    }

    /// Byte offset where the delta-record area starts.
    #[inline]
    pub const fn delta_area_offset(&self) -> usize {
        self.page_size - self.footer_len - self.delta_area_len()
    }

    /// Byte range of the delta-record area.
    #[inline]
    pub fn delta_area_range(&self) -> Range<usize> {
        self.delta_area_offset()..self.page_size - self.footer_len
    }

    /// Byte range of the tuple body (between header and delta area).
    #[inline]
    pub fn body_range(&self) -> Range<usize> {
        self.header_len..self.delta_area_offset()
    }

    /// Byte range of the header.
    #[inline]
    pub fn header_range(&self) -> Range<usize> {
        0..self.header_len
    }

    /// Byte range of the footer.
    #[inline]
    pub fn footer_range(&self) -> Range<usize> {
        self.page_size - self.footer_len..self.page_size
    }

    /// Offset of delta record `i` within the page.
    #[inline]
    pub fn record_offset(&self, i: u16) -> usize {
        debug_assert!(i < self.scheme.n);
        self.delta_area_offset() + i as usize * self.record_size()
    }

    /// The record slots a `write_delta` of `len` bytes at page `offset`
    /// covers, as `(first_slot, count)` — or why the append is malformed:
    /// it must start on a record-slot boundary, span whole records, and
    /// end inside the delta-record area.
    pub fn append_slots(&self, offset: usize, len: usize) -> Result<(u16, u16), &'static str> {
        let rs = self.record_size();
        let area = self.delta_area_offset();
        if offset < area || !(offset - area).is_multiple_of(rs) {
            return Err("offset is not a record-slot boundary");
        }
        if len == 0 || !len.is_multiple_of(rs) {
            return Err("length is not a whole number of record slots");
        }
        let (first, count) = ((offset - area) / rs, len / rs);
        if first + count > self.scheme.n as usize {
            return Err("append beyond the delta-record area");
        }
        Ok((first as u16, count as u16))
    }

    /// Does `offset` fall in the tuple body (i.e. is it representable as a
    /// delta pair)?
    #[inline]
    pub fn in_body(&self, offset: usize) -> bool {
        self.body_range().contains(&offset)
    }

    /// Does `offset` fall in the header or footer (captured via
    /// `Δmetadata` instead of pairs)?
    #[inline]
    pub fn in_meta(&self, offset: usize) -> bool {
        offset < self.header_len || offset >= self.page_size - self.footer_len
    }

    /// Copy the current `Δmetadata` (header ‖ footer) out of a page image.
    pub fn capture_meta(&self, page: &[u8]) -> Vec<u8> {
        debug_assert_eq!(page.len(), self.page_size);
        let mut meta = Vec::with_capacity(self.meta_len());
        meta.extend_from_slice(&page[self.header_range()]);
        meta.extend_from_slice(&page[self.footer_range()]);
        meta
    }

    /// Write a captured `Δmetadata` back into a page image.
    pub fn restore_meta(&self, page: &mut [u8], meta: &[u8]) {
        debug_assert_eq!(page.len(), self.page_size);
        assert_eq!(meta.len(), self.meta_len(), "Δmetadata length mismatch");
        let hr = self.header_range();
        page[hr].copy_from_slice(&meta[..self.header_len]);
        let fr = self.footer_range();
        page[fr].copy_from_slice(&meta[self.header_len..]);
    }

    /// Reset the delta-record area to the erased state (`0xFF`), as the
    /// paper requires before every out-of-place write.
    pub fn wipe_delta_area(&self, page: &mut [u8]) {
        let r = self.delta_area_range();
        page[r].fill(0xFF);
    }

    /// Is the delta-record area entirely erased?
    pub fn delta_area_is_clean(&self, page: &[u8]) -> bool {
        page[self.delta_area_range()].iter().all(|&b| b == 0xFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> PageLayout {
        PageLayout::new(8192, 24, 8, NmScheme::new(2, 4))
    }

    #[test]
    fn regions_partition_the_page() {
        let l = layout();
        assert_eq!(l.header_range().end, l.body_range().start);
        assert_eq!(l.body_range().end, l.delta_area_range().start);
        assert_eq!(l.delta_area_range().end, l.footer_range().start);
        assert_eq!(l.footer_range().end, l.page_size);
    }

    #[test]
    fn sizes_follow_paper_formula() {
        let l = layout();
        // meta = 24+8 = 32; record = 1+12+32 = 45; area = 2*45 = 90.
        assert_eq!(l.meta_len(), 32);
        assert_eq!(l.record_size(), 45);
        assert_eq!(l.delta_area_len(), 90);
        assert_eq!(l.delta_area_offset(), 8192 - 8 - 90);
    }

    #[test]
    fn record_offsets_are_contiguous() {
        let l = layout();
        assert_eq!(l.record_offset(0), l.delta_area_offset());
        assert_eq!(l.record_offset(1), l.delta_area_offset() + 45);
    }

    #[test]
    fn append_slots_accepts_whole_records_inside_the_area_only() {
        let l = layout();
        let (area, rs) = (l.delta_area_offset(), l.record_size());
        assert_eq!(l.append_slots(area + rs, rs), Ok((1, 1)));
        assert_eq!(l.append_slots(area, 2 * rs), Ok((0, 2)));
        let boundary = Err("offset is not a record-slot boundary");
        assert_eq!(l.append_slots(area + 1, rs), boundary);
        assert_eq!(l.append_slots(area - rs, rs), boundary, "before the area");
        let whole = Err("length is not a whole number of record slots");
        assert_eq!(l.append_slots(area, rs - 1), whole);
        assert_eq!(l.append_slots(area, 0), whole);
        let beyond = Err("append beyond the delta-record area");
        assert_eq!(l.append_slots(area + rs, 2 * rs), beyond);
    }

    #[test]
    fn classification() {
        let l = layout();
        assert!(l.in_meta(0));
        assert!(l.in_meta(23));
        assert!(l.in_body(24));
        assert!(l.in_body(l.delta_area_offset() - 1));
        assert!(!l.in_body(l.delta_area_offset()));
        assert!(l.in_meta(8191));
        assert!(!l.in_meta(l.delta_area_offset())); // delta area is neither
        assert!(!l.in_body(8191));
    }

    #[test]
    fn meta_capture_restore_round_trip() {
        let l = layout();
        let mut page = vec![0u8; l.page_size];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i % 256) as u8;
        }
        let meta = l.capture_meta(&page);
        assert_eq!(meta.len(), 32);
        let mut other = vec![0xAAu8; l.page_size];
        l.restore_meta(&mut other, &meta);
        assert_eq!(&other[..24], &page[..24]);
        assert_eq!(&other[8192 - 8..], &page[8192 - 8..]);
        assert!(other[24..8192 - 8].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn wipe_and_cleanliness() {
        let l = layout();
        let mut page = vec![0u8; l.page_size];
        assert!(!l.delta_area_is_clean(&page));
        l.wipe_delta_area(&mut page);
        assert!(l.delta_area_is_clean(&page));
        // Body and footer untouched.
        assert_eq!(page[0], 0);
        assert_eq!(page[8191], 0);
    }

    #[test]
    fn disabled_scheme_has_empty_area() {
        let l = PageLayout::new(8192, 24, 8, NmScheme::disabled());
        assert_eq!(l.delta_area_len(), 0);
        assert_eq!(l.body_range(), 24..8184);
        assert!(l.delta_area_is_clean(&vec![0u8; 8192]));
    }

    #[test]
    #[should_panic(expected = "no body space")]
    fn degenerate_layout_rejected() {
        // Delta area would swallow the whole page.
        let _ = PageLayout::new(256, 24, 8, NmScheme::new(10, 60));
    }
}
