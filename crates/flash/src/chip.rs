//! The simulated NAND chip: the only place flash physics is enforced.
//!
//! Operations:
//!
//! * [`FlashChip::read_page_into`] — copy a page out of the array into
//!   the caller's buffers; [`FlashChip::read_page`] is the same read into
//!   a freshly allocated [`PageImage`].
//! * [`FlashChip::program_page`] — first program of an erased page.
//! * [`FlashChip::reprogram_page`] — in-place overwrite of a programmed
//!   page; legal only if every bit transition is `1 → 0` (the IPA append).
//! * [`FlashChip::append_region`] — the `write_delta` primitive: splice a
//!   byte range into the stored image in place. Only the spliced bytes
//!   cross the bus, are checked for `1 → 0` legality and are copied.
//! * [`FlashChip::erase_block`] — the only way to get `0 → 1` transitions.
//!
//! Each mutation advances the simulated clock by a datasheet-class latency
//! and exposes neighbouring pages to program interference.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::block::{build_blocks, Block, Page};
use crate::cell::FlashMode;
use crate::clock::SimClock;
use crate::config::DeviceConfig;
use crate::error::{FlashError, Result};
use crate::geometry::{Geometry, Ppa};
use crate::interference::{Coupling, DisturbModel};
use crate::ispp::ProgramKind;
use crate::stats::FlashStats;

/// A page image returned by [`FlashChip::read_page`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageImage {
    pub data: Vec<u8>,
    pub oob: Vec<u8>,
}

/// One plane's page of a multi-plane program command.
#[derive(Debug, Clone, Copy)]
pub struct MultiPlaneWrite<'a> {
    pub ppa: Ppa,
    pub data: &'a [u8],
    pub oob: &'a [u8],
}

/// The simulated NAND device.
pub struct FlashChip {
    config: DeviceConfig,
    blocks: Vec<Block>,
    clock: SimClock,
    stats: FlashStats,
    disturb: DisturbModel,
    rng: StdRng,
    /// Erase operations per plane (`plane = block % planes`). The
    /// controller's die-level wear view must aggregate these — reporting
    /// plane 0 alone undercounts wear on every multi-plane die.
    plane_erases: Vec<u64>,
}

impl FlashChip {
    pub fn new(config: DeviceConfig) -> Self {
        let blocks = build_blocks(&config.geometry);
        let rng = StdRng::seed_from_u64(config.seed);
        let disturb = DisturbModel::new(config.disturb);
        let plane_erases = vec![0; config.geometry.planes as usize];
        FlashChip {
            config,
            blocks,
            clock: SimClock::new(),
            stats: FlashStats::default(),
            disturb,
            rng,
            plane_erases,
        }
    }

    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    #[inline]
    pub fn mode(&self) -> FlashMode {
        self.config.mode
    }

    #[inline]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    #[inline]
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    #[inline]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Simulated time elapsed since device creation, nanoseconds.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// NOP budget (programs between erases) for a page index.
    #[inline]
    pub fn nop_limit(&self, page: u32) -> u16 {
        self.config
            .nop_override
            .unwrap_or_else(|| self.config.mode.default_nop(page))
    }

    fn check_bounds(&self, ppa: Ppa) -> Result<()> {
        if !self.config.geometry.contains(ppa) {
            return Err(FlashError::OutOfBounds { ppa });
        }
        if self.blocks[ppa.block as usize].bad {
            return Err(FlashError::BadBlock { block: ppa.block });
        }
        if !self.config.mode.page_usable(ppa.page) {
            return Err(FlashError::PageNotUsable { ppa });
        }
        Ok(())
    }

    fn check_sizes(&self, data: &[u8], oob: &[u8]) -> Result<()> {
        check_sizes(&self.config.geometry, data, oob)
    }

    /// Is the page still erased (never programmed since last erase)?
    pub fn is_erased(&self, ppa: Ppa) -> Result<bool> {
        if !self.config.geometry.contains(ppa) {
            return Err(FlashError::OutOfBounds { ppa });
        }
        Ok(self.blocks[ppa.block as usize].page(ppa.page).is_erased())
    }

    /// Programs since last erase for a page.
    pub fn program_count(&self, ppa: Ppa) -> Result<u16> {
        if !self.config.geometry.contains(ppa) {
            return Err(FlashError::OutOfBounds { ppa });
        }
        Ok(self.blocks[ppa.block as usize].page(ppa.page).program_count)
    }

    /// Wear (erase count) of a block.
    pub fn erase_count(&self, block: u32) -> Result<u32> {
        if block >= self.config.geometry.blocks {
            return Err(FlashError::BlockOutOfBounds { block });
        }
        Ok(self.blocks[block as usize].erase_count)
    }

    /// Maximum erase count across all blocks (wear peak; drives the
    /// longevity experiment).
    pub fn max_erase_count(&self) -> u32 {
        self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0)
    }

    /// Side-effect-free view of a page's current data image, for tests and
    /// internal FTL bookkeeping. Returns `None` for never-programmed pages.
    pub fn peek_data(&self, ppa: Ppa) -> Option<&[u8]> {
        self.config
            .geometry
            .contains(ppa)
            .then(|| self.blocks[ppa.block as usize].page(ppa.page).data())
            .flatten()
    }

    /// Side-effect-free view of a page's OOB image.
    pub fn peek_oob(&self, ppa: Ppa) -> Option<&[u8]> {
        self.config
            .geometry
            .contains(ppa)
            .then(|| self.blocks[ppa.block as usize].page(ppa.page).oob())
            .flatten()
    }

    /// Read a page (data + OOB), advancing the clock by sense + transfer
    /// time. Reading an erased page is an explicit error so layering bugs
    /// surface immediately.
    ///
    /// The owned form of [`FlashChip::read_page_into`]: the same command
    /// (`read_with`) handing back a fresh copy of the image, so the two
    /// cannot differ in what a read checks or costs.
    pub fn read_page(&mut self, ppa: Ppa) -> Result<PageImage> {
        self.read_with(ppa, snapshot)
    }

    /// Read a page into buffers the caller owns (`data`: `page_size`
    /// bytes, `oob`: `oob_size` bytes), one copy per area out of the
    /// array. Every check runs before the first byte is written — buffer
    /// sizes, bounds, bad block, usable page, erased — so a rejected read
    /// leaves both buffers exactly as they were; a successful one
    /// overwrites all of both.
    pub fn read_page_into(&mut self, ppa: Ppa, data: &mut [u8], oob: &mut [u8]) -> Result<()> {
        self.check_sizes(data, oob)?;
        self.read_with(ppa, |page, _| {
            for (dst, src) in [(data, page.data()), (oob, page.oob())] {
                match src {
                    Some(src) => dst.copy_from_slice(src),
                    None => dst.fill(0xFF),
                }
            }
        })
    }

    /// The single-page read command: every check, then `take` sees the
    /// stored page, then sense + transfer time and the read counters.
    fn read_with<R>(&mut self, ppa: Ppa, take: impl FnOnce(&Page, &Geometry) -> R) -> Result<R> {
        self.check_bounds(ppa)?;
        let g = self.config.geometry;
        let out = take(self.readable_page(ppa)?, &g);

        let t = self.config.latency.read_sense_ns
            + self.config.latency.transfer_ns(g.page_size + g.oob_size);
        self.clock.advance_ns(t);
        self.stats.page_reads += 1;
        self.stats.bytes_read += (g.page_size + g.oob_size) as u64;
        self.stats.busy_ns += t;
        Ok(out)
    }

    /// Time-free core of every read command: the stored page, unless it
    /// is erased. Shared by the single-page reads and
    /// [`FlashChip::multi_plane_read`].
    fn readable_page(&self, ppa: Ppa) -> Result<&Page> {
        let page = self.blocks[ppa.block as usize].page(ppa.page);
        if page.is_erased() {
            return Err(FlashError::ReadErased { ppa });
        }
        Ok(page)
    }

    /// Which ISPP staircase a program of this page runs.
    fn program_kind(&self, page: u32) -> ProgramKind {
        match self.config.mode {
            FlashMode::Slc => ProgramKind::SlcPage,
            FlashMode::PSlc => ProgramKind::MlcLsb,
            FlashMode::MlcFull | FlashMode::OddMlc => {
                if self.config.mode.is_lsb_page(page) {
                    ProgramKind::MlcLsb
                } else {
                    ProgramKind::MlcMsb
                }
            }
            FlashMode::Tlc3d => match page % 3 {
                0 => ProgramKind::TlcLsb,
                1 => ProgramKind::TlcCsb,
                _ => ProgramKind::TlcMsb,
            },
        }
    }

    /// First program of an erased page.
    pub fn program_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()> {
        self.check_bounds(ppa)?;
        self.check_sizes(data, oob)?;
        {
            let page = self.blocks[ppa.block as usize].page(ppa.page);
            if !page.is_erased() {
                return Err(FlashError::NotErased { ppa });
            }
        }
        self.program_raw(ppa, 0, data, 0, oob)
    }

    /// In-place overwrite of a programmed page. Every bit transition must
    /// be `1 → 0`; anything else is [`FlashError::IllegalOverwrite`]. The
    /// full new image is supplied (like re-programming the wordline with
    /// the page register contents); bus accounting charges the full page.
    pub fn reprogram_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()> {
        self.check_bounds(ppa)?;
        self.check_sizes(data, oob)?;
        self.validate_overwrite(ppa, 0, data, 0, oob)?;
        self.program_raw(ppa, 0, data, 0, oob)
    }

    /// `write_delta` primitive: splice `bytes` at `data_off` (and
    /// `oob_bytes` at `oob_off`) into the page's stored image, in place.
    /// Only the spliced bytes cross the bus — and only they can change, so
    /// only they are checked for `1 → 0` legality and copied.
    pub fn append_region(
        &mut self,
        ppa: Ppa,
        data_off: usize,
        bytes: &[u8],
        oob_off: usize,
        oob_bytes: &[u8],
    ) -> Result<()> {
        self.check_bounds(ppa)?;
        let g = self.config.geometry;
        if data_off + bytes.len() > g.page_size {
            return Err(FlashError::SizeMismatch {
                expected: g.page_size,
                got: data_off + bytes.len(),
                what: "append data range",
            });
        }
        if oob_off + oob_bytes.len() > g.oob_size {
            return Err(FlashError::SizeMismatch {
                expected: g.oob_size,
                got: oob_off + oob_bytes.len(),
                what: "append OOB range",
            });
        }
        self.validate_overwrite(ppa, data_off, bytes, oob_off, oob_bytes)?;
        self.program_raw(ppa, data_off, bytes, oob_off, oob_bytes)
    }

    /// Enforce the erase-before-overwrite relaxation: a re-program is legal
    /// iff no bit goes `0 → 1`. `data` / `oob` replace the stored bytes
    /// from `data_off` / `oob_off` on (a full image sits at offset 0);
    /// offsets in the error are absolute within the area.
    fn validate_overwrite(
        &self,
        ppa: Ppa,
        data_off: usize,
        data: &[u8],
        oob_off: usize,
        oob: &[u8],
    ) -> Result<()> {
        let page = self.blocks[ppa.block as usize].page(ppa.page);
        if page.is_erased() {
            return Err(FlashError::NotErased { ppa });
        }
        let illegal = |old: Option<&[u8]>, off: usize, new: &[u8]| {
            first_illegal_byte(&old?[off..off + new.len()], new).map(|i| off + i)
        };
        if let Some(byte_offset) = illegal(page.data(), data_off, data) {
            return Err(FlashError::IllegalOverwrite {
                ppa,
                byte_offset,
                in_oob: false,
            });
        }
        if let Some(byte_offset) = illegal(page.oob(), oob_off, oob) {
            return Err(FlashError::IllegalOverwrite {
                ppa,
                byte_offset,
                in_oob: true,
            });
        }
        Ok(())
    }

    /// Common single-page program path: NOP check, then the shared store
    /// core, then one staircase + transfer of the bytes handed in.
    fn program_raw(
        &mut self,
        ppa: Ppa,
        data_off: usize,
        data: &[u8],
        oob_off: usize,
        oob: &[u8],
    ) -> Result<()> {
        let nop = self.nop_limit(ppa.page);
        {
            let page = self.blocks[ppa.block as usize].page(ppa.page);
            if page.program_count >= nop {
                return Err(FlashError::NopExceeded { ppa, nop });
            }
        }

        let transferred = data.len() + oob.len();
        let staircase = self.store_program(ppa, data_off, data, oob_off, oob);
        let t = staircase + self.config.latency.transfer_ns(transferred);
        self.clock.advance_ns(t);
        self.stats.busy_ns += t;
        self.stats.bytes_written += transferred as u64;
        Ok(())
    }

    /// Time-free core of every program command: store the bytes (a full
    /// image at offset 0, or an append's splice), bump the per-page
    /// program count and the program/reprogram counters, expose the
    /// wordline to disturb noise. Whether this is a reprogram is read off
    /// the page itself (programmed = reprogram), so single-page and
    /// multi-plane paths cannot disagree. Returns this member's staircase
    /// latency — the caller decides how staircases combine (alone for a
    /// single command, `max` across planes for a multi-plane one).
    fn store_program(
        &mut self,
        ppa: Ppa,
        data_off: usize,
        data: &[u8],
        oob_off: usize,
        oob: &[u8],
    ) -> u64 {
        let g = self.config.geometry;
        let page = self.blocks[ppa.block as usize].page_mut(ppa.page);
        let is_reprogram = !page.is_erased();
        page.store_data(g.page_size, data_off, data);
        page.store_oob(g.oob_size, oob_off, oob);
        page.program_count += 1;
        if is_reprogram {
            self.stats.page_reprograms += 1;
        } else {
            self.stats.page_programs += 1;
        }
        self.apply_interference(ppa, is_reprogram);
        self.config
            .ispp
            .program_latency_ns(self.program_kind(ppa.page))
    }

    /// Expose victims of a program operation to disturb noise: first the
    /// pages sharing the aggressor's wordline, then both neighbouring
    /// wordlines, lower first — the order fixes the RNG draw order. A
    /// victim past the block's last page does not exist (a 3-page TLC
    /// wordline overhangs a block whose size is not a multiple of 3).
    fn apply_interference(&mut self, aggressor: Ppa, is_reprogram: bool) {
        let mode = self.config.mode;
        let ppb = self.config.geometry.pages_per_block;
        for partner in mode.wordline_partners(aggressor.page).into_iter().flatten() {
            if partner < ppb {
                self.disturb_victim(aggressor, partner, Coupling::SameWordline, is_reprogram);
            }
        }
        let wl = mode.wordline_of(aggressor.page);
        let ppw = mode.pages_per_wordline();
        for neighbour_wl in [wl.checked_sub(1), Some(wl + 1)].into_iter().flatten() {
            for k in 0..ppw {
                let page = neighbour_wl * ppw + k;
                if page < ppb && page != aggressor.page {
                    self.disturb_victim(aggressor, page, Coupling::AdjacentWordline, is_reprogram);
                }
            }
        }
    }

    /// Draw and inject one victim page's disturb flips.
    fn disturb_victim(
        &mut self,
        aggressor: Ppa,
        victim_page: u32,
        coupling: Coupling,
        is_reprogram: bool,
    ) {
        let g = self.config.geometry;
        let page = self.blocks[aggressor.block as usize].page_mut(victim_page);
        // Only programmed victims hold data that can be corrupted.
        if page.is_erased() {
            return;
        }
        let p = self.disturb.flip_probability(
            self.config.mode,
            aggressor.page,
            victim_page,
            coupling,
            is_reprogram,
        );
        let count = self
            .disturb
            .draw_flip_count(&mut self.rng, g.page_size * 8, p);
        if count == 0 {
            return;
        }
        let flipped = self
            .disturb
            .inject_flips(&mut self.rng, page.data_mut(g.page_size), count);
        self.stats.disturb_bits_injected += flipped as u64;
    }

    /// One command staircase, one page per plane: validate the whole set
    /// first (plane alignment, bounds, sizes, per-plane NOP budgets and
    /// overwrite legality), then program every member. The command is
    /// atomic — any illegal member rejects it with flash state untouched.
    /// Time charged: the full transfer of every member (the bus is still
    /// serial) plus a *single* program staircase, which is the ~planes×
    /// per-die program-bandwidth win.
    pub fn multi_plane_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        let ppas: Vec<Ppa> = pages.iter().map(|p| p.ppa).collect();
        self.config.geometry.check_multi_plane(&ppas)?;
        let mut total = 0usize;
        for p in pages {
            self.check_bounds(p.ppa)?;
            self.check_sizes(p.data, p.oob)?;
            let nop = self.nop_limit(p.ppa.page);
            let page = self.blocks[p.ppa.block as usize].page(p.ppa.page);
            if page.program_count >= nop {
                return Err(FlashError::NopExceeded { ppa: p.ppa, nop });
            }
            if !page.is_erased() {
                self.validate_overwrite(p.ppa, 0, p.data, 0, p.oob)?;
            }
            total += p.data.len() + p.oob.len();
        }

        let mut staircase = 0u64;
        for p in pages {
            staircase = staircase.max(self.store_program(p.ppa, 0, p.data, 0, p.oob));
        }
        let t = staircase + self.config.latency.transfer_ns(total);
        self.clock.advance_ns(t);
        self.stats.busy_ns += t;
        self.stats.bytes_written += total as u64;
        self.stats.multi_plane_programs += 1;
        Ok(())
    }

    /// Cached (pipelined) program: the die's second page register lets
    /// the bus transfer of batch member `i + 1` overlap the program pulse
    /// of member `i`, so a batch costs
    /// `xfer(0) + Σ max(pulse(i), xfer(i+1)) + pulse(last)` instead of the
    /// sequential `Σ (xfer(i) + pulse(i))`. Members may address any pages
    /// of the die — the pipeline lives in the register file, not the
    /// array, so there is no plane-alignment rule — but each page may
    /// appear at most once per batch. The command is atomic: every member
    /// is validated (bounds, sizes, NOP budget, overwrite legality) before
    /// any is stored.
    pub fn cache_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let mut total = 0usize;
        for (i, p) in pages.iter().enumerate() {
            // A duplicate target would make the up-front validation lie:
            // the second store would be an overwrite of state the batch
            // itself created. Reject it like a twice-addressed plane.
            if let Some(dup) = pages[..i].iter().find(|q| q.ppa == p.ppa) {
                return Err(FlashError::MultiPlaneMismatch {
                    a: dup.ppa,
                    b: p.ppa,
                    reason: "page addressed twice in one cached-program batch",
                });
            }
            self.check_bounds(p.ppa)?;
            self.check_sizes(p.data, p.oob)?;
            let nop = self.nop_limit(p.ppa.page);
            let page = self.blocks[p.ppa.block as usize].page(p.ppa.page);
            if page.program_count >= nop {
                return Err(FlashError::NopExceeded { ppa: p.ppa, nop });
            }
            if !page.is_erased() {
                self.validate_overwrite(p.ppa, 0, p.data, 0, p.oob)?;
            }
            total += p.data.len() + p.oob.len();
        }

        let xfer: Vec<u64> = pages
            .iter()
            .map(|p| self.config.latency.transfer_ns(p.data.len() + p.oob.len()))
            .collect();
        let mut t = xfer[0];
        for (i, p) in pages.iter().enumerate() {
            let pulse = self.store_program(p.ppa, 0, p.data, 0, p.oob);
            t += match xfer.get(i + 1) {
                Some(&next) => pulse.max(next),
                None => pulse,
            };
        }
        self.clock.advance_ns(t);
        self.stats.busy_ns += t;
        self.stats.bytes_written += total as u64;
        self.stats.cache_programs += 1;
        Ok(())
    }

    /// Multi-plane read: one sense across the planes (they share the
    /// command path but sense concurrently), then each page's transfer
    /// over the serial bus. Same alignment rule and atomicity as
    /// [`FlashChip::multi_plane_program`]; images return in `ppas` order.
    pub fn multi_plane_read(&mut self, ppas: &[Ppa]) -> Result<Vec<PageImage>> {
        self.config.geometry.check_multi_plane(ppas)?;
        let g = self.config.geometry;
        let mut images = Vec::with_capacity(ppas.len());
        for &ppa in ppas {
            self.check_bounds(ppa)?;
            images.push(snapshot(self.readable_page(ppa)?, &g));
        }
        let total = ppas.len() * (g.page_size + g.oob_size);
        let t = self.config.latency.read_sense_ns + self.config.latency.transfer_ns(total);
        self.clock.advance_ns(t);
        self.stats.page_reads += ppas.len() as u64;
        self.stats.bytes_read += total as u64;
        self.stats.busy_ns += t;
        self.stats.multi_plane_reads += 1;
        Ok(images)
    }

    /// Erase operations a plane has absorbed (all its blocks summed).
    pub fn plane_erase_count(&self, plane: u32) -> u64 {
        self.plane_erases[plane as usize]
    }

    /// Per-plane erase counters, indexed by plane.
    pub fn plane_erase_counts(&self) -> &[u64] {
        &self.plane_erases
    }

    /// Erase a block: the only operation that restores `1` bits. Retires
    /// the block once endurance is exhausted.
    pub fn erase_block(&mut self, block: u32) -> Result<()> {
        if block >= self.config.geometry.blocks {
            return Err(FlashError::BlockOutOfBounds { block });
        }
        if self.blocks[block as usize].bad {
            return Err(FlashError::BadBlock { block });
        }
        self.plane_erases[self.config.geometry.plane_of(block) as usize] += 1;
        self.blocks[block as usize].erase();
        if self.blocks[block as usize].erase_count >= self.config.erase_endurance {
            self.blocks[block as usize].bad = true;
        }
        let t = self.config.latency.erase_ns;
        self.clock.advance_ns(t);
        self.stats.busy_ns += t;
        self.stats.block_erases += 1;
        Ok(())
    }

    /// Multi-plane erase: one erase pulse across an aligned block group
    /// (one block per plane, same in-plane index). Validates the whole
    /// set first — alignment, bounds, bad blocks — so the command is
    /// atomic like [`FlashChip::multi_plane_program`]: any illegal member
    /// rejects it with flash state (and the clock) untouched. Time
    /// charged is a *single* `erase_ns` pulse; per-plane wear counters,
    /// endurance retirement and `block_erases` advance per member.
    pub fn multi_plane_erase(&mut self, blocks: &[u32]) -> Result<()> {
        self.config.geometry.check_multi_plane_blocks(blocks)?;
        for &block in blocks {
            if self.blocks[block as usize].bad {
                return Err(FlashError::BadBlock { block });
            }
        }

        for &block in blocks {
            self.plane_erases[self.config.geometry.plane_of(block) as usize] += 1;
            self.blocks[block as usize].erase();
            if self.blocks[block as usize].erase_count >= self.config.erase_endurance {
                self.blocks[block as usize].bad = true;
            }
        }
        let t = self.config.latency.erase_ns;
        self.clock.advance_ns(t);
        self.stats.busy_ns += t;
        self.stats.block_erases += blocks.len() as u64;
        self.stats.multi_plane_erases += 1;
        Ok(())
    }

    /// Record an erase-suspend served by this die. The scheduler owns the
    /// erase-suspend *timing* (the suspend cost and the pushed-out resume
    /// live on the controller's die clock); the chip records the event and
    /// charges the park/resume overhead as array-busy time. State is
    /// untouched — the erase already completed eagerly when it was issued,
    /// and suspension reorders time, never state.
    pub fn record_erase_suspend(&mut self) {
        self.stats.erase_suspends += 1;
        self.stats.busy_ns += self.config.latency.erase_suspend_ns;
    }

    /// Mark a block bad by hand (failure-injection hooks).
    pub fn retire_block(&mut self, block: u32) -> Result<()> {
        if block >= self.config.geometry.blocks {
            return Err(FlashError::BlockOutOfBounds { block });
        }
        self.blocks[block as usize].bad = true;
        Ok(())
    }

    /// Is the block usable?
    pub fn is_bad(&self, block: u32) -> bool {
        self.blocks
            .get(block as usize)
            .map(|b| b.bad)
            .unwrap_or(true)
    }
}

/// An owned copy of a stored page's image.
fn snapshot(page: &Page, g: &Geometry) -> PageImage {
    let area = |src: Option<&[u8]>, size| src.map_or_else(|| vec![0xFF; size], <[u8]>::to_vec);
    PageImage {
        data: area(page.data(), g.page_size),
        oob: area(page.oob(), g.oob_size),
    }
}

/// Are `data` / `oob` exactly one page's data and OOB areas?
pub(crate) fn check_sizes(g: &Geometry, data: &[u8], oob: &[u8]) -> Result<()> {
    for (buf, expected, what) in [
        (data, g.page_size, "page data"),
        (oob, g.oob_size, "page OOB"),
    ] {
        if buf.len() != expected {
            return Err(FlashError::SizeMismatch {
                expected,
                got: buf.len(),
                what,
            });
        }
    }
    Ok(())
}

/// First byte offset where `new` requires a `0 → 1` transition vs `old`.
#[inline]
fn first_illegal_byte(old: &[u8], new: &[u8]) -> Option<usize> {
    debug_assert_eq!(old.len(), new.len());
    old.iter().zip(new).position(|(&o, &n)| n & !o != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::DisturbRates;

    fn quiet_chip() -> FlashChip {
        FlashChip::new(
            DeviceConfig::tiny()
                .with_mode(FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        )
    }

    fn page_of(chip: &FlashChip, fill: u8) -> (Vec<u8>, Vec<u8>) {
        (
            vec![fill; chip.geometry().page_size],
            vec![0xFF; chip.geometry().oob_size],
        )
    }

    #[test]
    fn program_then_read_round_trip() {
        let mut chip = quiet_chip();
        let (data, oob) = page_of(&chip, 0xAB);
        let ppa = Ppa::new(1, 2);
        chip.program_page(ppa, &data, &oob).unwrap();
        let img = chip.read_page(ppa).unwrap();
        assert_eq!(img.data, data);
        assert_eq!(img.oob, oob);
        assert_eq!(chip.stats().page_programs, 1);
        assert_eq!(chip.stats().page_reads, 1);
    }

    #[test]
    fn cache_program_pipelines_transfers_behind_pulses() {
        // Sequential reference: same batch, one program at a time.
        let mut seq = quiet_chip();
        let mut cached = quiet_chip();
        let (data, oob) = page_of(&seq, 0x3C);
        let batch: Vec<Ppa> = (0..4).map(|p| Ppa::new(0, p)).collect();
        for &ppa in &batch {
            seq.program_page(ppa, &data, &oob).unwrap();
        }
        let writes: Vec<MultiPlaneWrite<'_>> = batch
            .iter()
            .map(|&ppa| MultiPlaneWrite {
                ppa,
                data: &data,
                oob: &oob,
            })
            .collect();
        cached.cache_program(&writes).unwrap();

        // Byte-identical state, same program counters, one cached command.
        for &ppa in &batch {
            assert_eq!(
                cached.read_page(ppa).unwrap().data,
                seq.read_page(ppa).unwrap().data
            );
        }
        assert_eq!(cached.stats().page_programs, 4);
        assert_eq!(cached.stats().cache_programs, 1);
        assert_eq!(seq.stats().cache_programs, 0);

        // Pipelining wins time: strictly faster than sequential, but it
        // can never beat the un-overlappable floor (first transfer plus
        // every pulse).
        let seq_busy = seq.stats().busy_ns;
        let cached_busy = cached.stats().busy_ns;
        let xfer = seq.config().latency.transfer_ns(data.len() + oob.len());
        let pulses = seq_busy - 4 * xfer;
        assert!(
            cached_busy < seq_busy,
            "cached {cached_busy} !< sequential {seq_busy}"
        );
        assert!(
            cached_busy >= xfer + pulses,
            "cached {cached_busy} beat the floor {}",
            xfer + pulses
        );
    }

    #[test]
    fn cache_program_rejects_duplicate_target() {
        let mut chip = quiet_chip();
        let (data, oob) = page_of(&chip, 0x11);
        let w = MultiPlaneWrite {
            ppa: Ppa::new(0, 0),
            data: &data,
            oob: &oob,
        };
        assert!(matches!(
            chip.cache_program(&[w, w]),
            Err(FlashError::MultiPlaneMismatch { .. })
        ));
        // Atomic: nothing was stored.
        assert!(chip.is_erased(Ppa::new(0, 0)).unwrap());
        assert_eq!(chip.stats().cache_programs, 0);
    }

    #[test]
    fn read_of_erased_page_errors() {
        let mut chip = quiet_chip();
        assert!(matches!(
            chip.read_page(Ppa::new(0, 0)),
            Err(FlashError::ReadErased { .. })
        ));
    }

    #[test]
    fn read_page_into_equals_read_page() {
        // Two identical noisy chips, one read through each form.
        let cfg = DeviceConfig::tiny().with_mode(FlashMode::MlcFull);
        let (mut owned, mut borrowed) = (FlashChip::new(cfg.clone()), FlashChip::new(cfg));
        let g = *owned.geometry();
        let data: Vec<u8> = (0..g.page_size).map(|i| (i * 31) as u8).collect();
        let oob: Vec<u8> = (0..g.oob_size).map(|i| !(i as u8)).collect();
        for chip in [&mut owned, &mut borrowed] {
            for page in 0..4 {
                chip.program_page(Ppa::new(1, page), &data, &oob).unwrap();
            }
        }
        let (mut d, mut o) = (vec![0xEE; g.page_size], vec![0xEE; g.oob_size]);
        for page in 0..4 {
            let img = owned.read_page(Ppa::new(1, page)).unwrap();
            borrowed
                .read_page_into(Ppa::new(1, page), &mut d, &mut o)
                .unwrap();
            assert_eq!((&img.data, &img.oob), (&d, &o), "page {page}");
            assert_eq!(owned.elapsed_ns(), borrowed.elapsed_ns());
            assert_eq!(owned.stats(), borrowed.stats());
        }
        assert_eq!(owned.stats().page_reads, 4);
    }

    #[test]
    fn rejected_read_page_into_leaves_the_buffers_untouched() {
        let mut chip = FlashChip::new(
            DeviceConfig::tiny()
                .with_mode(FlashMode::PSlc)
                .with_disturb(DisturbRates::none()),
        );
        let g = *chip.geometry();
        let (data, oob) = page_of(&chip, 0x3C);
        chip.program_page(Ppa::new(0, 1), &data, &oob).unwrap();
        chip.program_page(Ppa::new(2, 1), &data, &oob).unwrap();
        chip.retire_block(2).unwrap();
        let before = (*chip.stats(), chip.elapsed_ns());

        let (ps, os) = (g.page_size, g.oob_size);
        let mismatch = |expected, got, what| FlashError::SizeMismatch {
            expected,
            got,
            what,
        };
        let (beyond, bad, msb, erased, ok) = (
            Ppa::new(g.blocks, 1),
            Ppa::new(2, 1),
            Ppa::new(0, 0),
            Ppa::new(0, 3),
            Ppa::new(0, 1),
        );
        let cases = [
            (beyond, ps, os, FlashError::OutOfBounds { ppa: beyond }),
            (bad, ps, os, FlashError::BadBlock { block: 2 }),
            (msb, ps, os, FlashError::PageNotUsable { ppa: msb }),
            (erased, ps, os, FlashError::ReadErased { ppa: erased }),
            (ok, ps - 1, os, mismatch(ps, ps - 1, "page data")),
            (ok, ps, os + 1, mismatch(os, os + 1, "page OOB")),
        ];
        for (ppa, dlen, olen, expected) in cases {
            let (mut d, mut o) = (vec![0xEE; dlen], vec![0xEE; olen]);
            assert_eq!(chip.read_page_into(ppa, &mut d, &mut o), Err(expected));
            assert!(d.iter().chain(&o).all(|&b| b == 0xEE), "{ppa}");
        }
        assert_eq!(
            (*chip.stats(), chip.elapsed_ns()),
            before,
            "rejects are free"
        );
    }

    #[test]
    fn double_program_requires_erase() {
        let mut chip = quiet_chip();
        let (data, oob) = page_of(&chip, 0x00);
        let ppa = Ppa::new(0, 0);
        chip.program_page(ppa, &data, &oob).unwrap();
        assert!(matches!(
            chip.program_page(ppa, &data, &oob),
            Err(FlashError::NotErased { .. })
        ));
    }

    #[test]
    fn legal_in_place_append() {
        let mut chip = quiet_chip();
        let ppa = Ppa::new(2, 3);
        let mut data = vec![0xFF; chip.geometry().page_size];
        data[..100].fill(0x5A); // "original content"
        let oob = vec![0xFF; chip.geometry().oob_size];
        chip.program_page(ppa, &data, &oob).unwrap();

        // Append into previously erased bytes: legal.
        let mut appended = data.clone();
        appended[100..116].fill(0x33);
        chip.reprogram_page(ppa, &appended, &oob).unwrap();
        assert_eq!(chip.read_page(ppa).unwrap().data, appended);
        assert_eq!(chip.stats().page_reprograms, 1);
    }

    #[test]
    fn illegal_overwrite_rejected_with_offset() {
        let mut chip = quiet_chip();
        let ppa = Ppa::new(2, 3);
        let mut data = vec![0xFF; chip.geometry().page_size];
        data[10] = 0x00;
        let oob = vec![0xFF; chip.geometry().oob_size];
        chip.program_page(ppa, &data, &oob).unwrap();

        // Byte 10 would need 0→1 transitions: illegal without erase.
        let mut bad = data.clone();
        bad[10] = 0x01;
        match chip.reprogram_page(ppa, &bad, &oob) {
            Err(FlashError::IllegalOverwrite {
                byte_offset,
                in_oob,
                ..
            }) => {
                assert_eq!(byte_offset, 10);
                assert!(!in_oob);
            }
            other => panic!("expected IllegalOverwrite, got {other:?}"),
        }
        // And the stored image is untouched.
        assert_eq!(chip.read_page(ppa).unwrap().data, data);
    }

    #[test]
    fn illegal_oob_overwrite_detected() {
        let mut chip = quiet_chip();
        let ppa = Ppa::new(0, 1);
        let data = vec![0xFF; chip.geometry().page_size];
        let mut oob = vec![0xFF; chip.geometry().oob_size];
        oob[4] = 0x00;
        chip.program_page(ppa, &data, &oob).unwrap();
        let mut bad_oob = oob.clone();
        bad_oob[4] = 0xFF;
        assert!(matches!(
            chip.reprogram_page(ppa, &data, &bad_oob),
            Err(FlashError::IllegalOverwrite { in_oob: true, .. })
        ));
    }

    #[test]
    fn erase_restores_programmability() {
        let mut chip = quiet_chip();
        let (data, oob) = page_of(&chip, 0x00);
        let ppa = Ppa::new(5, 0);
        chip.program_page(ppa, &data, &oob).unwrap();
        chip.erase_block(5).unwrap();
        assert!(chip.is_erased(ppa).unwrap());
        chip.program_page(ppa, &data, &oob).unwrap();
        assert_eq!(chip.erase_count(5).unwrap(), 1);
    }

    #[test]
    fn nop_budget_enforced() {
        let mut chip = FlashChip::new(
            DeviceConfig::tiny()
                .with_mode(FlashMode::Slc)
                .with_disturb(DisturbRates::none())
                .with_nop(2),
        );
        let ppa = Ppa::new(0, 0);
        let mut data = vec![0xFF; chip.geometry().page_size];
        let oob = vec![0xFF; chip.geometry().oob_size];
        data[0] = 0xF0;
        chip.program_page(ppa, &data, &oob).unwrap();
        data[1] = 0xF0;
        chip.reprogram_page(ppa, &data, &oob).unwrap();
        data[2] = 0xF0;
        assert!(matches!(
            chip.reprogram_page(ppa, &data, &oob),
            Err(FlashError::NopExceeded { nop: 2, .. })
        ));
    }

    #[test]
    fn pslc_blocks_msb_pages() {
        let mut chip = FlashChip::new(
            DeviceConfig::tiny()
                .with_mode(FlashMode::PSlc)
                .with_disturb(DisturbRates::none()),
        );
        let data = vec![0xFF; chip.geometry().page_size];
        let oob = vec![0xFF; chip.geometry().oob_size];
        assert!(matches!(
            chip.program_page(Ppa::new(0, 0), &data, &oob),
            Err(FlashError::PageNotUsable { .. })
        ));
        chip.program_page(Ppa::new(0, 1), &data, &oob).unwrap();
    }

    #[test]
    fn append_region_transfers_only_delta() {
        let mut chip = quiet_chip();
        let ppa = Ppa::new(1, 1);
        let mut data = vec![0xFF; chip.geometry().page_size];
        data[..64].fill(0x11);
        let oob = vec![0xFF; chip.geometry().oob_size];
        chip.program_page(ppa, &data, &oob).unwrap();
        let before = chip.stats().bytes_written;

        let delta = [0x22u8; 16];
        let ecc = [0x00u8; 4];
        chip.append_region(ppa, 100, &delta, 8, &ecc).unwrap();
        let transferred = chip.stats().bytes_written - before;
        assert_eq!(transferred, 16 + 4, "only delta bytes cross the bus");

        let img = chip.read_page(ppa).unwrap();
        assert_eq!(&img.data[100..116], &delta);
        assert_eq!(&img.data[..64], &data[..64], "original content intact");
        assert_eq!(&img.oob[8..12], &ecc);
    }

    #[test]
    fn append_region_rejects_conflicting_bytes() {
        let mut chip = quiet_chip();
        let ppa = Ppa::new(1, 1);
        let mut data = vec![0xFF; chip.geometry().page_size];
        data[50] = 0x00;
        let oob = vec![0xFF; chip.geometry().oob_size];
        chip.program_page(ppa, &data, &oob).unwrap();
        // Appending 0xFF over a programmed 0x00 byte needs an erase.
        assert!(matches!(
            chip.append_region(ppa, 50, &[0xFF], 0, &[]),
            Err(FlashError::IllegalOverwrite {
                byte_offset: 50,
                ..
            })
        ));
    }

    #[test]
    fn append_region_reports_absolute_offset_of_illegal_byte() {
        let mut chip = quiet_chip();
        let ppa = Ppa::new(1, 1);
        let mut data = vec![0xFF; chip.geometry().page_size];
        data[53] = 0x0F;
        let mut oob = vec![0xFF; chip.geometry().oob_size];
        oob[9] = 0x00;
        chip.program_page(ppa, &data, &oob).unwrap();
        // Splice starts at 50; its fourth byte needs a 0 → 1 flip.
        let in_data = chip.append_region(ppa, 50, &[0x00, 0x00, 0x00, 0x1F], 0, &[]);
        assert!(
            matches!(
                in_data,
                Err(FlashError::IllegalOverwrite {
                    byte_offset: 53,
                    in_oob: false,
                    ..
                })
            ),
            "{in_data:?}"
        );
        // Legal data, illegal OOB: second byte of an OOB splice at 8.
        let in_oob = chip.append_region(ppa, 50, &[0x00], 8, &[0x00, 0x01]);
        assert!(
            matches!(
                in_oob,
                Err(FlashError::IllegalOverwrite {
                    byte_offset: 9,
                    in_oob: true,
                    ..
                })
            ),
            "{in_oob:?}"
        );
        // Rejected appends store nothing and spend no program.
        assert_eq!(chip.peek_data(ppa).unwrap(), &data[..]);
        assert_eq!(chip.peek_oob(ppa).unwrap(), &oob[..]);
        assert_eq!(chip.program_count(ppa).unwrap(), 1);
    }

    #[test]
    fn append_region_at_nop_limit_leaves_page_untouched() {
        let mut chip = FlashChip::new(
            DeviceConfig::tiny()
                .with_mode(FlashMode::Slc)
                .with_disturb(DisturbRates::none())
                .with_nop(2),
        );
        let ppa = Ppa::new(0, 0);
        let (data, oob) = page_of(&chip, 0xFF);
        chip.program_page(ppa, &data, &oob).unwrap();
        chip.append_region(ppa, 0, &[0xF0], 0, &[0x0F]).unwrap();
        let (stored, stored_oob) = (
            chip.peek_data(ppa).unwrap().to_vec(),
            chip.peek_oob(ppa).unwrap().to_vec(),
        );
        let stats = *chip.stats();
        assert!(matches!(
            chip.append_region(ppa, 1, &[0x00], 1, &[0x00]),
            Err(FlashError::NopExceeded { nop: 2, .. })
        ));
        assert_eq!(chip.peek_data(ppa).unwrap(), &stored[..]);
        assert_eq!(chip.peek_oob(ppa).unwrap(), &stored_oob[..]);
        assert_eq!(*chip.stats(), stats, "a rejected append is free");
    }

    #[test]
    fn append_region_leaves_bytes_outside_the_splice_untouched() {
        let mut chip = quiet_chip();
        let ppa = Ppa::new(1, 1);
        let g = *chip.geometry();
        let data: Vec<u8> = (0..g.page_size).map(|i| (i % 251) as u8 | 0xF0).collect();
        let oob: Vec<u8> = (0..g.oob_size).map(|i| i as u8 | 0xF0).collect();
        chip.program_page(ppa, &data, &oob).unwrap();
        chip.append_region(ppa, 200, &[0x10, 0x20, 0x30], 12, &[0x40, 0x50])
            .unwrap();
        let (mut want, mut want_oob) = (data, oob);
        want[200..203].copy_from_slice(&[0x10, 0x20, 0x30]);
        want_oob[12..14].copy_from_slice(&[0x40, 0x50]);
        let img = chip.read_page(ppa).unwrap();
        assert_eq!(img.data, want);
        assert_eq!(img.oob, want_oob);
        assert_eq!(chip.stats().page_reprograms, 1);
        assert_eq!(chip.program_count(ppa).unwrap(), 2);
    }

    #[test]
    fn endurance_retires_blocks() {
        let mut cfg = DeviceConfig::tiny()
            .with_mode(FlashMode::Slc)
            .with_disturb(DisturbRates::none());
        cfg.erase_endurance = 3;
        let mut chip = FlashChip::new(cfg);
        for _ in 0..3 {
            chip.erase_block(0).unwrap();
        }
        assert!(chip.is_bad(0));
        assert!(matches!(
            chip.erase_block(0),
            Err(FlashError::BadBlock { block: 0 })
        ));
    }

    #[test]
    fn clock_advances_with_operations() {
        let mut chip = quiet_chip();
        let (data, oob) = page_of(&chip, 0x00);
        assert_eq!(chip.elapsed_ns(), 0);
        chip.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        let after_program = chip.elapsed_ns();
        assert!(after_program > 0);
        chip.read_page(Ppa::new(0, 0)).unwrap();
        assert!(chip.elapsed_ns() > after_program);
        assert_eq!(chip.stats().busy_ns, chip.elapsed_ns());
    }

    #[test]
    fn msb_program_slower_than_lsb_on_mlc() {
        let mut chip = FlashChip::new(
            DeviceConfig::tiny()
                .with_mode(FlashMode::MlcFull)
                .with_disturb(DisturbRates::none()),
        );
        let (data, oob) = (
            vec![0x00; chip.geometry().page_size],
            vec![0xFF; chip.geometry().oob_size],
        );
        let t0 = chip.elapsed_ns();
        chip.program_page(Ppa::new(0, 1), &data, &oob).unwrap(); // LSB (odd)
        let lsb_t = chip.elapsed_ns() - t0;
        let t1 = chip.elapsed_ns();
        chip.program_page(Ppa::new(0, 0), &data, &oob).unwrap(); // MSB (even)
        let msb_t = chip.elapsed_ns() - t1;
        assert!(msb_t > lsb_t, "MSB {msb_t} must exceed LSB {lsb_t}");
    }

    #[test]
    fn disturb_noise_reaches_stats_under_hostile_config() {
        let mut cfg = DeviceConfig::tiny().with_mode(FlashMode::MlcFull);
        cfg.disturb = DisturbRates {
            wide_margin: 0.0,
            narrow_margin: 1e-3,
            safe_reprogram_factor: 10.0,
            unsafe_reprogram_factor: 10.0,
            same_wordline_factor: 10.0,
        };
        cfg.nop_override = Some(16);
        let mut chip = FlashChip::new(cfg);
        let oob = vec![0xFF; chip.geometry().oob_size];
        // Program the victim (odd page 1, same wordline as 0).
        let victim = vec![0xFF; chip.geometry().page_size];
        chip.program_page(Ppa::new(0, 1), &victim, &oob).unwrap();
        // Hammer the aggressor with re-programs.
        let mut agg = vec![0xFF; chip.geometry().page_size];
        chip.program_page(Ppa::new(0, 0), &agg, &oob).unwrap();
        for i in 0..8 {
            agg[i] = 0x00;
            chip.reprogram_page(Ppa::new(0, 0), &agg, &oob).unwrap();
        }
        assert!(
            chip.stats().disturb_bits_injected > 0,
            "hostile config must corrupt the wordline partner"
        );
    }

    #[test]
    fn tlc_last_wordline_of_a_64_page_block_stays_in_bounds() {
        // 64 pages make 21 full 3-page wordlines plus page 63, whose
        // wordline partners 64 and 65 lie past the block.
        let mut chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(4, 64, 2048, 64), FlashMode::Tlc3d).with_seed(9),
        );
        let (data, oob) = page_of(&chip, 0x5A);
        for page in 0..64 {
            chip.program_page(Ppa::new(0, page), &data, &oob).unwrap();
        }
        assert_eq!(chip.stats().page_programs, 64);
    }
}
