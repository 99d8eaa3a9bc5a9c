//! In-memory representation of erase blocks and pages.
//!
//! Page images are materialised lazily: an erased page stores no buffer and
//! reads as all-`0xFF` (the erased state of NAND), which keeps even the
//! paper's full 8 GB geometry cheap to construct.

use crate::geometry::Geometry;

/// Lifecycle state of a physical page since the last block erase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// All cells erased (reads as `0xFF`).
    Erased,
    /// Programmed at least once.
    Programmed,
}

/// One physical flash page: data area + OOB area + program bookkeeping.
#[derive(Debug, Clone)]
pub struct Page {
    /// Data-area image; `None` while erased.
    data: Option<Box<[u8]>>,
    /// OOB-area image; `None` while erased.
    oob: Option<Box<[u8]>>,
    /// Program operations since the last erase (NOP accounting).
    pub program_count: u16,
}

impl Page {
    /// A fresh, erased page.
    pub const fn erased() -> Self {
        Page {
            data: None,
            oob: None,
            program_count: 0,
        }
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> PageState {
        if self.program_count == 0 {
            PageState::Erased
        } else {
            PageState::Programmed
        }
    }

    #[inline]
    pub fn is_erased(&self) -> bool {
        self.program_count == 0
    }

    /// Data image, materialising an all-`0xFF` buffer on first touch.
    pub fn data_mut(&mut self, page_size: usize) -> &mut [u8] {
        self.data
            .get_or_insert_with(|| vec![0xFF; page_size].into_boxed_slice())
    }

    /// Store `bytes` at `off` of the data area (a program's splice; a
    /// whole image sits at offset 0).
    pub fn store_data(&mut self, page_size: usize, off: usize, bytes: &[u8]) {
        store(&mut self.data, page_size, off, bytes);
    }

    /// Store `bytes` at `off` of the OOB area.
    pub fn store_oob(&mut self, oob_size: usize, off: usize, bytes: &[u8]) {
        store(&mut self.oob, oob_size, off, bytes);
    }

    /// Data image for reading; `None` while never programmed.
    #[inline]
    pub fn data(&self) -> Option<&[u8]> {
        self.data.as_deref()
    }

    /// OOB image for reading; `None` while never programmed.
    #[inline]
    pub fn oob(&self) -> Option<&[u8]> {
        self.oob.as_deref()
    }

    /// Drop buffers and reset bookkeeping (block erase path).
    pub fn erase(&mut self) {
        self.data = None;
        self.oob = None;
        self.program_count = 0;
    }
}

/// A whole image onto an unmaterialised area is one allocation and one
/// copy — filling `0xFF` first would write every byte twice. A partial
/// store materialises the erased state, then splices.
fn store(area: &mut Option<Box<[u8]>>, size: usize, off: usize, bytes: &[u8]) {
    match area {
        None if off == 0 && bytes.len() == size => *area = Some(bytes.into()),
        _ => area.get_or_insert_with(|| vec![0xFF; size].into_boxed_slice())
            [off..off + bytes.len()]
            .copy_from_slice(bytes),
    }
}

/// One erase block: pages plus wear bookkeeping.
#[derive(Debug, Clone)]
pub struct Block {
    pages: Vec<Page>,
    /// Erase operations this block has absorbed (wear).
    pub erase_count: u32,
    /// Retired blocks reject all operations.
    pub bad: bool,
}

impl Block {
    pub fn new(pages_per_block: u32) -> Self {
        Block {
            pages: (0..pages_per_block).map(|_| Page::erased()).collect(),
            erase_count: 0,
            bad: false,
        }
    }

    #[inline]
    pub fn page(&self, idx: u32) -> &Page {
        &self.pages[idx as usize]
    }

    #[inline]
    pub fn page_mut(&mut self, idx: u32) -> &mut Page {
        &mut self.pages[idx as usize]
    }

    /// Erase every page and bump the wear counter.
    pub fn erase(&mut self) {
        for p in &mut self.pages {
            p.erase();
        }
        self.erase_count += 1;
    }

    /// Number of pages programmed at least once since the last erase.
    pub fn programmed_pages(&self) -> u32 {
        self.pages.iter().filter(|p| !p.is_erased()).count() as u32
    }
}

/// Build the block array for a geometry.
pub fn build_blocks(geometry: &Geometry) -> Vec<Block> {
    (0..geometry.blocks)
        .map(|_| Block::new(geometry.pages_per_block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erased_page_has_no_buffers() {
        let p = Page::erased();
        assert!(p.is_erased());
        assert_eq!(p.state(), PageState::Erased);
        assert!(p.data().is_none());
        assert!(p.oob().is_none());
    }

    #[test]
    fn materialises_as_all_ff() {
        let mut p = Page::erased();
        assert!(p.data_mut(64).iter().all(|&b| b == 0xFF));
        p.store_oob(16, 0, &[]);
        assert!(p.oob().unwrap().iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn whole_image_store_equals_fill_then_copy() {
        let image: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5A).collect();
        let (mut direct, mut filled) = (Page::erased(), Page::erased());
        direct.store_data(64, 0, &image);
        direct.store_oob(16, 0, &image[..16]);
        filled.data_mut(64).copy_from_slice(&image);
        assert_eq!(direct.data(), filled.data());
        assert_eq!(direct.oob(), Some(&image[..16]));
        // A second whole image lands in the buffer the first one made.
        direct.store_data(64, 0, &[0u8; 64]);
        assert_eq!(direct.data(), Some(&[0u8; 64][..]));
    }

    #[test]
    fn partial_store_onto_an_erased_page_reads_ff_outside_the_splice() {
        let mut p = Page::erased();
        p.store_data(64, 8, &[0x11, 0x22, 0x33]);
        p.store_oob(16, 15, &[0x44]);
        let mut want = [0xFFu8; 64];
        want[8..11].copy_from_slice(&[0x11, 0x22, 0x33]);
        assert_eq!(p.data(), Some(&want[..]));
        let mut want_oob = [0xFFu8; 16];
        want_oob[15] = 0x44;
        assert_eq!(p.oob(), Some(&want_oob[..]));
    }

    #[test]
    fn erase_resets_everything() {
        let mut p = Page::erased();
        p.data_mut(32)[0] = 0x00;
        p.program_count = 3;
        p.erase();
        assert!(p.is_erased());
        assert!(p.data().is_none());
        assert_eq!(p.program_count, 0);
    }

    #[test]
    fn block_erase_bumps_wear_and_clears_pages() {
        let mut b = Block::new(4);
        b.page_mut(2).data_mut(16)[0] = 0;
        b.page_mut(2).program_count = 1;
        assert_eq!(b.programmed_pages(), 1);
        b.erase();
        assert_eq!(b.erase_count, 1);
        assert_eq!(b.programmed_pages(), 0);
    }

    #[test]
    fn build_matches_geometry() {
        let g = Geometry::new(7, 5, 128, 8);
        let blocks = build_blocks(&g);
        assert_eq!(blocks.len(), 7);
        assert_eq!(blocks[0].programmed_pages(), 0);
    }
}
