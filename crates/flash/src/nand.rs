//! The NAND operation contract — what it means to "be a flash target".
//!
//! [`FlashChip`] is the canonical implementation: a single die driven
//! directly, advancing its own clock. The multi-channel controller crate
//! provides a second one: a die *handle* that routes every command through
//! a scheduler modelling channel-bus and die-busy timing. The FTL is
//! generic over this trait, so the exact same translation-layer logic runs
//! unchanged on a bare chip or behind a controller.
//!
//! Inspection methods return owned values (`Geometry` and `FlashStats` are
//! `Copy`; peeks clone the page image) so implementations that proxy
//! through shared interior-mutable state can satisfy the trait without
//! leaking borrows.
//!
//! A read comes in two forms. [`Nand::read_page`] returns an image the
//! caller keeps. [`Nand::read_page_into`] fills buffers the caller already
//! owns — the FTL reads a host page straight into the host's frame and a
//! migrating page into its own scratch — and is a *provided* method (owned
//! read + copy), so an implementor outside this workspace supplies only
//! `read_page`; the two targets that hold the array override it to copy
//! from the array once. Same for [`Nand::copyback_read`] /
//! [`Nand::copyback_read_into`].

use crate::cell::FlashMode;
use crate::chip::{check_sizes, FlashChip, MultiPlaneWrite, PageImage};
use crate::error::Result;
use crate::geometry::{Geometry, Ppa};
use crate::stats::FlashStats;

/// A target that obeys NAND physics: erase-before-overwrite (relaxed to
/// pure `1 → 0` re-programs), NOP budgets, per-block erase.
pub trait Nand {
    /// Static shape of the target.
    fn geometry(&self) -> Geometry;

    /// Cell mode (SLC / pSLC / MLC / …) of the target.
    fn mode(&self) -> FlashMode;

    /// Raw device-level counters.
    fn flash_stats(&self) -> FlashStats;

    /// Simulated time this target has consumed, nanoseconds.
    fn elapsed_ns(&self) -> u64;

    /// NOP budget (programs between erases) for a page index.
    fn nop_limit(&self, page: u32) -> u16;

    /// Is the page still erased (never programmed since last erase)?
    fn is_erased(&self, ppa: Ppa) -> Result<bool>;

    /// Programs since last erase for a page.
    fn program_count(&self, ppa: Ppa) -> Result<u16>;

    /// Wear (erase count) of a block.
    fn erase_count(&self, block: u32) -> Result<u32>;

    /// Maximum erase count across all blocks.
    fn max_erase_count(&self) -> u32;

    /// Is the block retired?
    fn is_bad(&self, block: u32) -> bool;

    /// Side-effect-free copy of a page's data image (`None` if never
    /// programmed).
    fn peek_data(&self, ppa: Ppa) -> Option<Vec<u8>>;

    /// Would `new` program over the page's current data without an erase
    /// (pure `1 → 0` transitions)? `None` if the page was never
    /// programmed. Implementations answer from a borrow — this is the
    /// hot-path query behind conventional-SSD in-place detection, asked
    /// (and usually answered "no") on every overwrite.
    fn peek_overwrite_compatible(&self, ppa: Ppa, new: &[u8]) -> Option<bool> {
        self.peek_data(ppa)
            .map(|old| old.iter().zip(new).all(|(&o, &n)| n & !o == 0))
    }

    /// Side-effect-free copy of a page's OOB image.
    fn peek_oob(&self, ppa: Ppa) -> Option<Vec<u8>>;

    /// Read a page (data + OOB), paying sense + transfer time.
    fn read_page(&mut self, ppa: Ppa) -> Result<PageImage>;

    /// [`Nand::read_page`] into buffers the caller owns (`page_size` and
    /// `oob_size` bytes): same checks, same time, same counters. A
    /// rejected read leaves both buffers untouched. The default reads an
    /// owned image and copies it out, so an implementor need only supply
    /// `read_page`; targets that hold the array ([`FlashChip`], the
    /// controller's die handle) copy straight from it instead.
    fn read_page_into(&mut self, ppa: Ppa, data: &mut [u8], oob: &mut [u8]) -> Result<()> {
        copy_out(self.geometry(), data, oob, || self.read_page(ppa))
    }

    /// Firmware-internal read (GC migration, wear levelling): the data
    /// lands in a controller buffer, not in host memory, so a scheduled
    /// implementation occupies the die and channel without stalling the
    /// host interface — host commands to the same die simply queue behind
    /// it. On a bare chip this is indistinguishable from [`Nand::read_page`].
    fn copyback_read(&mut self, ppa: Ppa) -> Result<PageImage> {
        self.read_page(ppa)
    }

    /// [`Nand::copyback_read`] into buffers the caller owns — to
    /// `copyback_read` what [`Nand::read_page_into`] is to `read_page`.
    fn copyback_read_into(&mut self, ppa: Ppa, data: &mut [u8], oob: &mut [u8]) -> Result<()> {
        copy_out(self.geometry(), data, oob, || self.copyback_read(ppa))
    }

    /// First program of an erased page.
    fn program_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()>;

    /// In-place overwrite of a programmed page (`1 → 0` transitions only).
    fn reprogram_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()>;

    /// Splice `bytes`/`oob_bytes` into the current image and re-program in
    /// place, transferring only the spliced bytes.
    fn append_region(
        &mut self,
        ppa: Ppa,
        data_off: usize,
        bytes: &[u8],
        oob_off: usize,
        oob_bytes: &[u8],
    ) -> Result<()>;

    /// Erase a block — the only way to restore `1` bits.
    fn erase_block(&mut self, block: u32) -> Result<()>;

    /// Program one page per plane under a single command staircase. The
    /// pages must be plane-aligned (same in-plane block index and page
    /// offset, distinct planes — see [`Geometry::check_multi_plane`]).
    /// The default implementation validates the alignment and then issues
    /// plain per-plane programs, so targets without multi-plane support
    /// keep identical state semantics and merely forgo the time overlap.
    fn multi_plane_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        self.geometry()
            .check_multi_plane(&pages.iter().map(|p| p.ppa).collect::<Vec<_>>())?;
        for p in pages {
            if self.is_erased(p.ppa)? {
                self.program_page(p.ppa, p.data, p.oob)?;
            } else {
                self.reprogram_page(p.ppa, p.data, p.oob)?;
            }
        }
        Ok(())
    }

    /// Read one plane-aligned page per plane under a single sense. The
    /// default falls back to sequential reads (same images, no overlap).
    fn multi_plane_read(&mut self, ppas: &[Ppa]) -> Result<Vec<PageImage>> {
        self.geometry().check_multi_plane(ppas)?;
        ppas.iter().map(|&ppa| self.read_page(ppa)).collect()
    }

    /// Program a batch of pages as one cached (pipelined) command: the
    /// bus transfer of member `i + 1` overlaps the program pulse of
    /// member `i`. Unlike the multi-plane command there is no alignment
    /// rule — any pages of the die qualify. The default falls back to
    /// plain sequential programs, so targets without a cache register
    /// keep identical state semantics and merely forgo the overlap.
    fn cache_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        for p in pages {
            if self.is_erased(p.ppa)? {
                self.program_page(p.ppa, p.data, p.oob)?;
            } else {
                self.reprogram_page(p.ppa, p.data, p.oob)?;
            }
        }
        Ok(())
    }

    /// Erase one block per plane under a single pulse. The blocks must be
    /// plane-aligned (same in-plane block index, distinct planes — see
    /// [`Geometry::check_multi_plane_blocks`]). The default validates the
    /// group and issues plain per-block erases: identical state, no time
    /// overlap.
    fn multi_plane_erase(&mut self, blocks: &[u32]) -> Result<()> {
        self.geometry().check_multi_plane_blocks(blocks)?;
        for &block in blocks {
            self.erase_block(block)?;
        }
        Ok(())
    }
}

/// The provided borrowed reads: check the caller's buffers as
/// [`FlashChip`] would before issuing the owned `read`, then copy its
/// image out.
fn copy_out(
    g: Geometry,
    data: &mut [u8],
    oob: &mut [u8],
    read: impl FnOnce() -> Result<PageImage>,
) -> Result<()> {
    check_sizes(&g, data, oob)?;
    let img = read()?;
    data.copy_from_slice(&img.data);
    oob.copy_from_slice(&img.oob);
    Ok(())
}

impl Nand for FlashChip {
    fn geometry(&self) -> Geometry {
        *FlashChip::geometry(self)
    }

    fn mode(&self) -> FlashMode {
        FlashChip::mode(self)
    }

    fn flash_stats(&self) -> FlashStats {
        *FlashChip::stats(self)
    }

    fn elapsed_ns(&self) -> u64 {
        FlashChip::elapsed_ns(self)
    }

    fn nop_limit(&self, page: u32) -> u16 {
        FlashChip::nop_limit(self, page)
    }

    fn is_erased(&self, ppa: Ppa) -> Result<bool> {
        FlashChip::is_erased(self, ppa)
    }

    fn program_count(&self, ppa: Ppa) -> Result<u16> {
        FlashChip::program_count(self, ppa)
    }

    fn erase_count(&self, block: u32) -> Result<u32> {
        FlashChip::erase_count(self, block)
    }

    fn max_erase_count(&self) -> u32 {
        FlashChip::max_erase_count(self)
    }

    fn is_bad(&self, block: u32) -> bool {
        FlashChip::is_bad(self, block)
    }

    fn peek_data(&self, ppa: Ppa) -> Option<Vec<u8>> {
        FlashChip::peek_data(self, ppa).map(<[u8]>::to_vec)
    }

    fn peek_overwrite_compatible(&self, ppa: Ppa, new: &[u8]) -> Option<bool> {
        FlashChip::peek_data(self, ppa).map(|old| old.iter().zip(new).all(|(&o, &n)| n & !o == 0))
    }

    fn peek_oob(&self, ppa: Ppa) -> Option<Vec<u8>> {
        FlashChip::peek_oob(self, ppa).map(<[u8]>::to_vec)
    }

    fn read_page(&mut self, ppa: Ppa) -> Result<PageImage> {
        FlashChip::read_page(self, ppa)
    }

    fn read_page_into(&mut self, ppa: Ppa, data: &mut [u8], oob: &mut [u8]) -> Result<()> {
        FlashChip::read_page_into(self, ppa, data, oob)
    }

    fn copyback_read_into(&mut self, ppa: Ppa, data: &mut [u8], oob: &mut [u8]) -> Result<()> {
        FlashChip::read_page_into(self, ppa, data, oob)
    }

    fn program_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()> {
        FlashChip::program_page(self, ppa, data, oob)
    }

    fn reprogram_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()> {
        FlashChip::reprogram_page(self, ppa, data, oob)
    }

    fn append_region(
        &mut self,
        ppa: Ppa,
        data_off: usize,
        bytes: &[u8],
        oob_off: usize,
        oob_bytes: &[u8],
    ) -> Result<()> {
        FlashChip::append_region(self, ppa, data_off, bytes, oob_off, oob_bytes)
    }

    fn erase_block(&mut self, block: u32) -> Result<()> {
        FlashChip::erase_block(self, block)
    }

    fn multi_plane_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        FlashChip::multi_plane_program(self, pages)
    }

    fn multi_plane_read(&mut self, ppas: &[Ppa]) -> Result<Vec<PageImage>> {
        FlashChip::multi_plane_read(self, ppas)
    }

    fn cache_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        FlashChip::cache_program(self, pages)
    }

    fn multi_plane_erase(&mut self, blocks: &[u32]) -> Result<()> {
        FlashChip::multi_plane_erase(self, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::interference::DisturbRates;

    /// Drive a chip exclusively through the trait: the generic FTL path.
    fn via_trait<N: Nand>(n: &mut N) {
        let g = n.geometry();
        let ppa = Ppa::new(0, 0);
        let mut data = vec![0xFF; g.page_size];
        data[..16].fill(0x5A);
        let oob = vec![0xFF; g.oob_size];
        n.program_page(ppa, &data, &oob).unwrap();
        assert!(!n.is_erased(ppa).unwrap());
        assert_eq!(n.program_count(ppa).unwrap(), 1);
        assert_eq!(n.peek_data(ppa).unwrap(), data);
        data[16..24].fill(0x21);
        n.reprogram_page(ppa, &data, &oob).unwrap();
        let img = n.read_page(ppa).unwrap();
        assert_eq!(img.data, data);
        n.erase_block(0).unwrap();
        assert!(n.is_erased(ppa).unwrap());
        assert_eq!(n.erase_count(0).unwrap(), 1);
        assert!(n.elapsed_ns() > 0);
        assert_eq!(n.flash_stats().page_programs, 1);
    }

    #[test]
    fn flash_chip_satisfies_the_contract() {
        let mut chip = FlashChip::new(
            DeviceConfig::tiny()
                .with_mode(FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        );
        via_trait(&mut chip);
    }
}
