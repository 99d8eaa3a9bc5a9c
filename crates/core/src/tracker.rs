//! Buffer-side change tracking and the N×M conformance check.
//!
//! The paper (§3, "Page operations"): *"When a transaction updates the
//! content of the page, the buffer manager checks if it conforms to the IPA
//! N×M scheme … The violation of one of the above conditions means that
//! upon eviction the page cannot be written out using IPA, and will
//! therefore be written in a traditional out-of-place manner. In this case,
//! the out-of-place flag is set, and further updates are not tracked until
//! eviction."*
//!
//! One [`ChangeTracker`] lives next to every buffered page. The buffer
//! manager reports byte writes; the tracker
//!
//! * keeps the **net** set of changed body bytes (a byte rewritten to its
//!   at-fetch value drops out — this is what makes the "<100 net bytes per
//!   dirty page" statistic of Figure 1 measurable),
//! * notes whether the metadata region (header/footer) changed,
//! * enforces the N×M budget against the records already on flash, and
//! * builds the delta records (native path) or the full overwrite-
//!   compatible page image (conventional-SSD path) at eviction time.

use std::collections::BTreeMap;

use crate::delta::{write_record_into, DeltaRecord};
use crate::layout::PageLayout;

/// Eviction-time decision for a dirty page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpaVerdict {
    /// Nothing changed; no write needed.
    Clean,
    /// The update history fits the scheme: append `records` delta records
    /// in place.
    InPlace {
        /// Number of new records this eviction will append.
        records: u16,
    },
    /// Budget exceeded (or tracking disabled): full out-of-place write.
    OutOfPlace,
}

/// Net change to one body byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByteChange {
    /// Value the byte had when first touched since the last eviction.
    base: u8,
    /// Latest value written.
    latest: u8,
}

/// Per-buffered-page update tracker.
#[derive(Debug, Clone)]
pub struct ChangeTracker {
    layout: PageLayout,
    /// Delta records already present on the physical flash page (only
    /// their number matters: it is the budget already spent).
    on_flash: u16,
    /// Net changed body bytes since the last eviction, by offset.
    changes: BTreeMap<u16, ByteChange>,
    /// Whether any header/footer byte changed since the last eviction.
    meta_changed: bool,
    /// Sticky out-of-place flag; set on budget violation or structural
    /// modification, cleared by an out-of-place eviction.
    out_of_place: bool,
}

impl ChangeTracker {
    /// Tracker for a freshly fetched page. `existing` are the delta records
    /// found on flash (from [`crate::delta::apply_and_collect`]).
    pub fn new(layout: PageLayout, existing: Vec<DeltaRecord>) -> Self {
        assert!(
            layout.page_size <= u16::MAX as usize + 1,
            "delta pair offsets are u16; page too large"
        );
        let over = existing.len() > layout.scheme.n as usize;
        ChangeTracker {
            layout,
            on_flash: existing.len() as u16,
            changes: BTreeMap::new(),
            meta_changed: false,
            // A page carrying more records than the scheme allows (scheme
            // reconfiguration) must go out-of-place next time.
            out_of_place: over,
        }
    }

    /// Tracker for a brand-new page that has never been written to flash
    /// (first eviction is necessarily out-of-place: there is no original
    /// image to append to).
    pub fn new_unflashed(layout: PageLayout) -> Self {
        let mut t = ChangeTracker::new(layout, Vec::new());
        t.out_of_place = true;
        t
    }

    #[inline]
    pub fn layout(&self) -> &PageLayout {
        &self.layout
    }

    /// Records already on the physical page.
    #[inline]
    pub fn records_on_flash(&self) -> u16 {
        self.on_flash
    }

    /// Net changed body bytes currently pending.
    #[inline]
    pub fn changed_body_bytes(&self) -> usize {
        self.changes.len()
    }

    /// Has anything (body or metadata) changed since the last eviction?
    #[inline]
    pub fn dirty(&self) -> bool {
        !self.changes.is_empty() || self.meta_changed || self.out_of_place
    }

    #[inline]
    pub fn is_out_of_place(&self) -> bool {
        self.out_of_place
    }

    /// Force the next eviction out-of-place (structural page changes, slot
    /// compaction, anything not expressible as byte deltas). Pending change
    /// tracking stops, as in the paper.
    pub fn mark_out_of_place(&mut self) {
        self.out_of_place = true;
        self.changes.clear();
        self.meta_changed = true;
    }

    /// Report one byte write: `old` is the value before this write. Calls
    /// after the out-of-place flag is set are cheap no-ops.
    ///
    /// A layout without a delta area (`[0×0]`: index pages, `history`, the
    /// whole traditional baseline) can only ever be written out of place,
    /// so its first differing byte sets the flag and nothing is mapped.
    /// The one observable difference to tracking it: such a page modified
    /// and then restored byte for byte within one residency is written
    /// back instead of dropped as clean. No engine path does that — every
    /// tracked write also moves the page LSN.
    pub fn record_write(&mut self, offset: usize, old: u8, new: u8) {
        if self.out_of_place || old == new {
            return;
        }
        if self.layout.scheme.is_disabled() {
            self.mark_out_of_place();
            return;
        }
        if self.layout.in_meta(offset) {
            self.meta_changed = true;
            return;
        }
        if !self.layout.in_body(offset) {
            // Writes into the reserved delta area are a layering bug.
            debug_assert!(false, "engine wrote into the delta-record area");
            self.mark_out_of_place();
            return;
        }
        let off = offset as u16;
        match self.changes.entry(off) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(ByteChange {
                    base: old,
                    latest: new,
                });
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                if o.get().base == new {
                    // Byte returned to its at-fetch value: net change gone.
                    o.remove();
                } else {
                    o.get_mut().latest = new;
                }
            }
        }
        // Conformance check (paper: checked on update, not at eviction).
        if self.pending_records() + self.records_on_flash() as usize > self.layout.scheme.n as usize
        {
            self.mark_out_of_place();
        }
    }

    /// Report a multi-byte write; `old` is the region content before the
    /// write.
    pub fn record_range_write(&mut self, offset: usize, old: &[u8], new: &[u8]) {
        debug_assert_eq!(old.len(), new.len());
        for (i, (&o, &n)) in old.iter().zip(new).enumerate() {
            if self.out_of_place {
                return;
            }
            self.record_write(offset + i, o, n);
        }
    }

    /// Delta records the pending changes would need.
    fn pending_records(&self) -> usize {
        if self.changes.is_empty() {
            usize::from(self.meta_changed)
        } else {
            self.layout.scheme.records_for(self.changes.len())
        }
    }

    /// Eviction-time decision.
    pub fn verdict(&self) -> IpaVerdict {
        if self.out_of_place {
            return IpaVerdict::OutOfPlace;
        }
        if self.changes.is_empty() && !self.meta_changed {
            return IpaVerdict::Clean;
        }
        let pending = self.pending_records();
        if pending + self.on_flash as usize <= self.layout.scheme.n as usize {
            IpaVerdict::InPlace {
                records: pending as u16,
            }
        } else {
            IpaVerdict::OutOfPlace
        }
    }

    /// Build the new delta records for an in-place eviction. `current_page`
    /// supplies the up-to-date `Δmetadata`. Panics if the verdict is not
    /// [`IpaVerdict::InPlace`].
    pub fn build_new_records(&self, current_page: &[u8]) -> Vec<DeltaRecord> {
        let records = match self.verdict() {
            IpaVerdict::InPlace { records } => records,
            v => panic!("build_new_records on a page with verdict {v:?}"),
        };
        let meta = self.layout.capture_meta(current_page);
        let m = self.layout.scheme.m as usize;
        let pairs: Vec<(u16, u8)> = self
            .changes
            .iter()
            .map(|(&off, ch)| (off, ch.latest))
            .collect();
        let mut out = Vec::with_capacity(records as usize);
        if pairs.is_empty() {
            // Metadata-only update: one record with zero pairs.
            out.push(DeltaRecord::new(Vec::new(), meta, self.layout.scheme));
        } else {
            for chunk in pairs.chunks(m) {
                out.push(DeltaRecord::new(
                    chunk.to_vec(),
                    meta.clone(),
                    self.layout.scheme,
                ));
            }
        }
        debug_assert_eq!(out.len(), records as usize);
        out
    }

    /// Build the full page image for the **conventional-SSD** IPA path
    /// (demo scenario 2): the *original* flash image (body untouched) with
    /// the new records appended into its delta area. Writing this image
    /// through a block interface is overwrite-compatible with the stored
    /// page, so an IPA-aware FTL can program it in place.
    ///
    /// `original` is the raw flash image captured at fetch time (before
    /// delta application); `current_page` supplies the up-to-date metadata.
    pub fn build_conventional_image(&self, original: &[u8], current_page: &[u8]) -> Vec<u8> {
        let new_records = self.build_new_records(current_page);
        let mut image = original.to_vec();
        for (slot, rec) in (self.records_on_flash()..).zip(new_records.iter()) {
            write_record_into(&mut image, &self.layout, slot, rec);
        }
        image
    }

    /// Account a successful in-place eviction: the `new_records` built for
    /// it are now on flash, pending changes are consumed.
    pub fn commit_in_place(&mut self, new_records: u16) {
        self.on_flash += new_records;
        debug_assert!(self.on_flash <= self.layout.scheme.n);
        self.changes.clear();
        self.meta_changed = false;
    }

    /// Account a successful out-of-place eviction: the rewritten page has
    /// an empty delta area and a clean history.
    pub fn commit_out_of_place(&mut self) {
        self.on_flash = 0;
        self.changes.clear();
        self.meta_changed = false;
        self.out_of_place = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NmScheme;
    use proptest::prelude::*;

    fn layout() -> PageLayout {
        PageLayout::new(2048, 24, 8, NmScheme::new(2, 4))
    }

    fn body_off(l: &PageLayout, i: usize) -> usize {
        l.body_range().start + i
    }

    #[test]
    fn clean_page_verdict() {
        let t = ChangeTracker::new(layout(), Vec::new());
        assert_eq!(t.verdict(), IpaVerdict::Clean);
        assert!(!t.dirty());
    }

    #[test]
    fn small_update_fits_in_place() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        for i in 0..3 {
            t.record_write(body_off(&l, i), 0, 1);
        }
        assert_eq!(t.verdict(), IpaVerdict::InPlace { records: 1 });
        assert_eq!(t.changed_body_bytes(), 3);
    }

    #[test]
    fn updates_spanning_two_records() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        for i in 0..6 {
            t.record_write(body_off(&l, i), 0, 1);
        }
        // 6 bytes / M=4 → 2 records; N=2 → still in place.
        assert_eq!(t.verdict(), IpaVerdict::InPlace { records: 2 });
    }

    #[test]
    fn budget_violation_sets_sticky_flag() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        for i in 0..9 {
            t.record_write(body_off(&l, i), 0, 1);
        }
        // 9 bytes needs 3 records > N=2.
        assert!(t.is_out_of_place());
        assert_eq!(t.verdict(), IpaVerdict::OutOfPlace);
        // Tracking stopped: further updates are no-ops.
        t.record_write(body_off(&l, 100), 0, 1);
        assert_eq!(t.changed_body_bytes(), 0);
    }

    #[test]
    fn existing_records_consume_budget() {
        let l = layout();
        let existing = vec![DeltaRecord::new(
            vec![(100, 1)],
            vec![0; l.meta_len()],
            l.scheme,
        )];
        let mut t = ChangeTracker::new(l, existing);
        for i in 0..5 {
            t.record_write(body_off(&l, i), 0, 1);
        }
        // 5 bytes needs 2 records; 1 already on flash → 3 > N=2.
        assert_eq!(t.verdict(), IpaVerdict::OutOfPlace);
    }

    #[test]
    fn rewriting_base_value_cancels_change() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        let off = body_off(&l, 10);
        t.record_write(off, 7, 9);
        assert_eq!(t.changed_body_bytes(), 1);
        t.record_write(off, 9, 7); // back to base
        assert_eq!(t.changed_body_bytes(), 0);
        assert_eq!(t.verdict(), IpaVerdict::Clean);
    }

    #[test]
    fn same_byte_many_times_is_one_pair() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        let off = body_off(&l, 10);
        let mut v = 0u8;
        for next in 1..100u8 {
            t.record_write(off, v, next);
            v = next;
        }
        assert_eq!(t.changed_body_bytes(), 1);
        assert_eq!(t.verdict(), IpaVerdict::InPlace { records: 1 });
    }

    #[test]
    fn meta_only_update_needs_one_record() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        t.record_write(0, 1, 2); // header byte
        assert!(t.dirty());
        assert_eq!(t.changed_body_bytes(), 0);
        assert_eq!(t.verdict(), IpaVerdict::InPlace { records: 1 });
        let page = vec![0x42u8; l.page_size];
        let recs = t.build_new_records(&page);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].pairs.is_empty());
        assert_eq!(recs[0].meta, l.capture_meta(&page));
    }

    #[test]
    fn build_records_chunks_by_m() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        for i in 0..6 {
            t.record_write(body_off(&l, i), 0, (i + 1) as u8);
        }
        let page = vec![0u8; l.page_size];
        let recs = t.build_new_records(&page);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].pairs.len(), 4);
        assert_eq!(recs[1].pairs.len(), 2);
        let all: Vec<(u16, u8)> = recs.iter().flat_map(|r| r.pairs.clone()).collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], (body_off(&l, 0) as u16, 1));
    }

    #[test]
    fn commit_in_place_accumulates_budget() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        t.record_write(body_off(&l, 0), 0, 1);
        let page = vec![0u8; l.page_size];
        let recs = t.build_new_records(&page);
        t.commit_in_place(recs.len() as u16);
        assert_eq!(t.records_on_flash(), 1);
        assert!(!t.dirty());
        // Second round: one more record fits, then the budget is gone.
        t.record_write(body_off(&l, 1), 0, 1);
        assert_eq!(t.verdict(), IpaVerdict::InPlace { records: 1 });
        let recs = t.build_new_records(&page);
        t.commit_in_place(recs.len() as u16);
        t.record_write(body_off(&l, 2), 0, 1);
        assert_eq!(t.verdict(), IpaVerdict::OutOfPlace);
    }

    #[test]
    fn commit_out_of_place_resets_everything() {
        let l = layout();
        let mut t = ChangeTracker::new(l, Vec::new());
        for i in 0..20 {
            t.record_write(body_off(&l, i), 0, 1);
        }
        assert!(t.is_out_of_place());
        t.commit_out_of_place();
        assert!(!t.is_out_of_place());
        assert_eq!(t.records_on_flash(), 0);
        assert_eq!(t.verdict(), IpaVerdict::Clean);
    }

    #[test]
    fn unflashed_page_goes_out_of_place_first() {
        let l = layout();
        let mut t = ChangeTracker::new_unflashed(l);
        t.record_write(body_off(&l, 0), 0, 1);
        assert_eq!(t.verdict(), IpaVerdict::OutOfPlace);
        t.commit_out_of_place();
        t.record_write(body_off(&l, 0), 1, 2);
        assert_eq!(t.verdict(), IpaVerdict::InPlace { records: 1 });
    }

    #[test]
    fn delta_less_layout_maps_nothing() {
        let l = PageLayout::new(2048, 24, 8, NmScheme::disabled());
        let mut t = ChangeTracker::new(l, Vec::new());
        assert_eq!(t.verdict(), IpaVerdict::Clean);
        let off = body_off(&l, 10);
        t.record_write(off, 7, 9);
        assert!(t.is_out_of_place() && t.dirty());
        assert_eq!(t.changed_body_bytes(), 0, "no per-byte map");
        // Restoring the byte does not make the page clean again (it did
        // while every byte was mapped): it is written back.
        t.record_write(off, 9, 7);
        assert_eq!(t.verdict(), IpaVerdict::OutOfPlace);
        t.commit_out_of_place();
        assert_eq!(t.verdict(), IpaVerdict::Clean);
        // A header byte alone has the same effect.
        t.record_write(0, 1, 2);
        assert_eq!(t.verdict(), IpaVerdict::OutOfPlace);
    }

    #[test]
    fn conventional_image_preserves_original_body() {
        let l = layout();
        // Original flash image: recognizable body, clean delta area.
        let mut original = vec![0x5Au8; l.page_size];
        l.wipe_delta_area(&mut original);
        // Buffered image: body updated at two offsets, header LSN bumped.
        let mut current = original.clone();
        let o1 = body_off(&l, 3);
        let o2 = body_off(&l, 4);
        current[o1] = 0x11;
        current[o2] = 0x22;
        current[0] = 0x99;

        let mut t = ChangeTracker::new(l, Vec::new());
        t.record_write(o1, 0x5A, 0x11);
        t.record_write(o2, 0x5A, 0x22);
        t.record_write(0, 0x5A, 0x99);

        let image = t.build_conventional_image(&original, &current);
        // Body outside the delta area identical to the original → the
        // image is flash-overwrite-compatible.
        assert_eq!(
            &image[..l.delta_area_offset()],
            &original[..l.delta_area_offset()]
        );
        let legal = image.iter().zip(&original).all(|(&n, &o)| n & !o == 0);
        assert!(legal, "conventional image must be a pure append");

        // Applying the image's delta records reproduces the buffer state.
        let mut reconstructed = image.clone();
        let recs = crate::delta::apply_and_collect(&mut reconstructed, &l);
        assert_eq!(recs.len(), 1);
        assert_eq!(reconstructed[o1], 0x11);
        assert_eq!(reconstructed[o2], 0x22);
        assert_eq!(reconstructed[0], 0x99);
    }

    proptest! {
        /// Tracked net changes always equal the brute-force diff of body
        /// bytes between the evolving page and its at-fetch snapshot.
        #[test]
        fn net_changes_match_brute_force_diff(
            writes in proptest::collection::vec((0usize..1800, any::<u8>()), 0..40)
        ) {
            let l = PageLayout::new(2048, 24, 8, NmScheme::new(16, 8));
            let mut page = vec![0u8; l.page_size];
            let snapshot = page.clone();
            let mut t = ChangeTracker::new(l, Vec::new());
            for (rel, val) in writes {
                let off = l.body_range().start + rel % (l.body_range().len());
                let old = page[off];
                page[off] = val;
                t.record_write(off, old, val);
            }
            if !t.is_out_of_place() {
                let expect: Vec<usize> = l
                    .body_range()
                    .filter(|&i| page[i] != snapshot[i])
                    .collect();
                prop_assert_eq!(t.changed_body_bytes(), expect.len());
            }
        }

        /// For any in-place verdict, applying the built records to the
        /// at-fetch snapshot reproduces the current body exactly.
        #[test]
        fn records_reconstruct_page(
            writes in proptest::collection::vec((0usize..1500, 1u8..255), 1..24)
        ) {
            let l = PageLayout::new(2048, 24, 8, NmScheme::new(8, 4));
            let mut page = vec![0u8; l.page_size];
            let snapshot = page.clone();
            let mut t = ChangeTracker::new(l, Vec::new());
            for (rel, val) in writes {
                let off = l.body_range().start + rel % l.body_range().len();
                let old = page[off];
                page[off] = val;
                t.record_write(off, old, val);
            }
            if let IpaVerdict::InPlace { .. } = t.verdict() {
                let recs = t.build_new_records(&page);
                let mut rebuilt = snapshot.clone();
                for r in &recs {
                    r.apply(&mut rebuilt, &l);
                }
                // Body must match; meta was restored from `page`.
                prop_assert_eq!(&rebuilt[l.body_range()], &page[l.body_range()]);
            }
        }
    }
}
