//! Page-mapping FTL with greedy garbage collection — and its IPA
//! extensions.
//!
//! One [`Ftl`] struct implements all three device personalities the demo
//! compares:
//!
//! * **Traditional SSD** — `FtlConfig::conventional(None)`: every host
//!   write is an out-of-place program; the old physical page is
//!   invalidated and eventually reclaimed by GC.
//! * **IPA for conventional SSDs** (demo scenario 2) —
//!   `in_place_detection = true` plus an IPA layout ("low-level
//!   formatting"): the FTL compares each incoming page image against the
//!   stored one and, when the image is overwrite-compatible (pure `1 → 0`),
//!   re-programs the same physical page. No invalidation, no GC pressure.
//! * **NoFTL / native flash** (demo scenario 3) — the
//!   [`NativeFlashDevice::write_delta`] command appends a delta record (and
//!   its OOB ECC codeword) to the physical page directly, transferring only
//!   the delta bytes.
//!
//! Garbage collection is greedy (victim = closed block with the most
//! invalid pages, ties broken toward low erase counts for wear levelling)
//! and migrates ECC-corrected images.
//!
//! Who owns the bytes of a read: a host read lands in the caller's buffer
//! ([`Nand::read_page_into`]) and is ECC-checked there; only the OOB it is
//! checked against lands in a scratch the FTL owns. GC and migration read
//! the page they move into a page-sized scratch, verify and program from
//! it. No read path allocates.

use std::collections::VecDeque;

use ipa_core::PageLayout;
use ipa_flash::{
    FlashChip, FlashError, FlashMode, FlashStats, Geometry, MultiPlaneWrite, Nand, Ppa,
};

use crate::error::{FtlError, Lba, Result};
use crate::interface::{BlockDevice, IoCompletion, IoQueue, IoRequest, IoToken, NativeFlashDevice};
use crate::oob::OobCodec;
use crate::region::RegionTable;
use crate::stats::DeviceStats;
use crate::wear::{WearConfig, WearLeveler, WearSummary};

/// Fraction of usable capacity withheld from the host (GC headroom).
const OVER_PROVISIONING: f64 = 0.10;
/// Run GC whenever the free-block pool drops below this many blocks.
const GC_LOW_WATER_BLOCKS: u32 = 3;

/// FTL policy knobs.
#[derive(Debug, Clone)]
pub struct FtlConfig {
    /// Detect overwrite-compatible full-page writes and program them in
    /// place (IPA for conventional SSDs).
    pub in_place_detection: bool,
    /// IPA page layout in force outside any explicit region.
    pub default_layout: Option<PageLayout>,
    /// Allow in-place appends on pages the mode marks unsafe (full-MLC
    /// experiment E7 only).
    pub allow_unsafe_ipa: bool,
    /// Static wear levelling; `None` disables it (dynamic tie-breaking in
    /// the GC victim selector stays active either way).
    pub wear: Option<WearConfig>,
    /// Defer low-water garbage collection to an external maintenance
    /// scheduler ([`Ftl::background_gc_step`]). The write path then only
    /// reclaims inline as an emergency — when the free pool is actually
    /// empty — instead of whole-block reclaims on the host's critical
    /// path whenever the low-water mark trips.
    pub background_gc: bool,
}

impl FtlConfig {
    /// Plain SSD: no IPA anywhere.
    pub fn traditional() -> Self {
        FtlConfig {
            in_place_detection: false,
            default_layout: None,
            allow_unsafe_ipa: false,
            wear: Some(WearConfig::default()),
            background_gc: false,
        }
    }

    /// IPA for conventional SSDs: block interface + in-place detection.
    pub fn ipa_conventional(layout: PageLayout) -> Self {
        FtlConfig {
            in_place_detection: true,
            default_layout: Some(layout),
            ..FtlConfig::traditional()
        }
    }

    /// Native flash (NoFTL): `write_delta` enabled via the layout; the
    /// block path behaves traditionally.
    pub fn ipa_native(layout: PageLayout) -> Self {
        FtlConfig {
            default_layout: Some(layout),
            ..FtlConfig::traditional()
        }
    }

    pub fn with_unsafe_ipa(mut self) -> Self {
        self.allow_unsafe_ipa = true;
        self
    }

    /// Hand low-water GC to an external maintenance scheduler.
    pub fn with_background_gc(mut self) -> Self {
        self.background_gc = true;
        self
    }
}

/// A resumable block reclaim: victim selection happened at construction,
/// the live-delta copy-backs and the final erase are performed one
/// [`Ftl::background_gc_step`] at a time. Between steps the victim block stays
/// `Closed` and fully consistent — host writes may keep invalidating its
/// pages (those migrations are then skipped), reads still hit the old
/// physical pages until each is individually remapped. The job is owned
/// by its [`Ftl`] (at most one in flight per die); schedulers only decide
/// when the next step runs.
#[derive(Debug, Clone)]
pub struct GcJob {
    victim: u32,
    /// Next physical page index to examine for migration.
    next_page: u32,
    /// Count this job's work in the GC counters (false: wear levelling).
    count_as_gc: bool,
}

impl GcJob {
    /// The block being reclaimed.
    #[inline]
    pub fn victim(&self) -> u32 {
        self.victim
    }
}

/// What one [`Ftl::background_gc_step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcProgress {
    /// Nothing to do: the free pool is healthy or no victim exists.
    Idle,
    /// One valid page was copied to the frontier.
    Migrated,
    /// The victim block was erased and returned to the free pool — the
    /// current job is complete.
    Erased,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Active,
    Closed,
}

/// The write frontier: one active block per lane. On a multi-plane chip a
/// frontier is opened as a plane-aligned *group* (one block per plane,
/// equal in-plane block index) whenever a fully-free group exists, so
/// consecutive out-of-place writes land on alternating planes at the same
/// page offset — exactly the shape a multi-plane program command accepts.
/// When no aligned group is free (fragmented pool, bad blocks, trailing
/// partial group) the frontier degrades to a single block and every write
/// programs single-plane, which is the planes = 1 behaviour bit-for-bit.
#[derive(Debug, Clone)]
struct ActiveGroup {
    /// Active blocks, one per lane; plane-aligned when `len > 1`.
    blocks: Vec<u32>,
    /// Flat slot cursor: slot `s` → lane `s % len`, page offset `s / len`.
    next: u32,
}

/// An allocated, mapped, but not-yet-programmed out-of-place write,
/// parked one slot deep so the next write to the partner plane can ride
/// the same multi-plane command. Logically the write is complete (the
/// L2P map and owner tables already point at `ppa`); only the physical
/// program is deferred, and every other path that could observe the gap
/// (reads/updates/trims of this LBA, the block closing) drains it first.
#[derive(Debug, Clone)]
struct StagedWrite {
    lba: Lba,
    ppa: Ppa,
    data: Vec<u8>,
    oob: Vec<u8>,
}

#[derive(Debug, Clone)]
struct BlockInfo {
    state: BlockState,
    /// Per physical page: `Some(lba)` if it holds the valid copy of `lba`.
    owner: Vec<Option<Lba>>,
    /// Valid pages in this block.
    valid: u32,
    /// Usable pages consumed (write frontier position).
    used: u32,
}

impl BlockInfo {
    fn new(pages_per_block: u32) -> Self {
        BlockInfo {
            state: BlockState::Free,
            owner: vec![None; pages_per_block as usize],
            valid: 0,
            used: 0,
        }
    }

    fn invalid(&self) -> u32 {
        self.used - self.valid
    }

    fn reset(&mut self) {
        self.state = BlockState::Free;
        self.owner.iter_mut().for_each(|o| *o = None);
        self.valid = 0;
        self.used = 0;
    }
}

/// Host-exported capacity for a chip shape under an FTL policy: the
/// smaller of the over-provisioning-derived capacity and what is left
/// after reserving GC headroom. Shared by [`Ftl`] and the die-striped
/// `ShardedFtl`, which must size every shard before building it.
pub fn exported_capacity(geometry: &Geometry, mode: FlashMode) -> u64 {
    let usable_ppb = mode.usable_pages_per_block(geometry.pages_per_block);
    let total_usable = geometry.blocks as u64 * usable_ppb as u64;
    let op_capacity = (total_usable as f64 * (1.0 - OVER_PROVISIONING)) as u64;
    op_capacity.min(total_usable.saturating_sub(gc_reserve_pages(usable_ppb)))
}

/// Usable pages withheld from the host as GC headroom (low-water + 1
/// blocks) — the reserve [`exported_capacity`] subtracts.
fn gc_reserve_pages(usable_ppb: u32) -> u64 {
    (GC_LOW_WATER_BLOCKS as u64 + 1) * usable_ppb as u64
}

/// The flash translation layer (see module docs). Generic over the flash
/// target: a bare [`FlashChip`] (the default) or a scheduled die handle
/// from the controller crate — the translation logic is identical.
pub struct Ftl<C: Nand = FlashChip> {
    chip: C,
    config: FtlConfig,
    regions: RegionTable,
    l2p: Vec<Option<Ppa>>,
    blocks: Vec<BlockInfo>,
    free_blocks: VecDeque<u32>,
    active: Option<ActiveGroup>,
    /// One-deep pairing window for multi-plane program commands.
    staged: Option<StagedWrite>,
    capacity: u64,
    usable_ppb: u32,
    stats: DeviceStats,
    wear: Option<WearLeveler>,
    /// The in-flight background reclaim, when a maintenance scheduler is
    /// stepping this FTL. Victim selection must skip this block, and the
    /// emergency inline path drains it before picking a fresh victim.
    pending_job: Option<GcJob>,
    /// Where a chip read's OOB lands (host reads verify against it) and,
    /// with `page_scratch`, where GC and migration hold the page they are
    /// moving. Owned here so that no read allocates; each use begins with
    /// a read that overwrites the whole buffer and ends within the call.
    oob_scratch: Vec<u8>,
    page_scratch: Vec<u8>,
}

impl<C: Nand> Ftl<C> {
    /// Build an FTL over a chip with an empty region table.
    pub fn new(chip: C, config: FtlConfig) -> Self {
        Self::with_regions(chip, config, RegionTable::new())
    }

    /// Build an FTL with explicit NoFTL regions.
    pub fn with_regions(chip: C, config: FtlConfig, regions: RegionTable) -> Self {
        let g = chip.geometry();
        let mode = chip.mode();
        let usable_ppb = mode.usable_pages_per_block(g.pages_per_block);
        let total_usable = g.blocks as u64 * usable_ppb as u64;
        // Export the smaller of the OP-derived capacity and what is left
        // after reserving GC headroom (low-water + 1 blocks), so tiny test
        // devices clamp instead of misconfiguring.
        let capacity = exported_capacity(&g, mode);
        let gc_reserve = gc_reserve_pages(usable_ppb);
        assert!(
            capacity > 0,
            "geometry too small: {total_usable} usable pages cannot spare {gc_reserve} for GC"
        );
        // Fail fast on any layout that cannot fit its ECC in the OOB.
        if let Some(l) = &config.default_layout {
            let _ = OobCodec::new(g.page_size, g.oob_size, Some(*l));
        }
        for r in regions.iter() {
            let _ = OobCodec::new(g.page_size, g.oob_size, r.layout);
        }

        let blocks = (0..g.blocks)
            .map(|_| BlockInfo::new(g.pages_per_block))
            .collect();
        let free_blocks = (0..g.blocks).collect();
        let wear = config.wear.map(WearLeveler::new);
        Ftl {
            chip,
            config,
            regions,
            l2p: vec![None; capacity as usize],
            blocks,
            free_blocks,
            active: None,
            staged: None,
            capacity,
            usable_ppb,
            stats: DeviceStats::default(),
            wear,
            pending_job: None,
            oob_scratch: vec![0; g.oob_size],
            page_scratch: vec![0; g.page_size],
        }
    }

    /// Exhaustive internal consistency check, for tests and debugging:
    ///
    /// 1. every mapped LBA points at a page whose owner is that LBA;
    /// 2. every owned page is mapped back (no orphans);
    /// 3. per-block valid counters match the owner table;
    /// 4. no two LBAs share a physical page;
    /// 5. free blocks hold no valid data and the active block exists at
    ///    most once.
    ///
    /// Panics with a description on the first violation.
    pub fn check_invariants(&self) {
        use std::collections::HashSet;
        let mut seen_ppa: HashSet<(u32, u32)> = HashSet::new();
        for (lba, ppa) in self.l2p.iter().enumerate() {
            let Some(ppa) = ppa else { continue };
            assert!(
                seen_ppa.insert((ppa.block, ppa.page)),
                "two LBAs map to {ppa}"
            );
            let owner = self.blocks[ppa.block as usize].owner[ppa.page as usize];
            assert_eq!(
                owner,
                Some(lba as Lba),
                "LBA {lba} maps to {ppa} but the page is owned by {owner:?}"
            );
        }
        for (b, info) in self.blocks.iter().enumerate() {
            let owned = info.owner.iter().flatten().count() as u32;
            assert_eq!(
                owned, info.valid,
                "block {b}: owner table has {owned} valid pages, counter says {}",
                info.valid
            );
            for lba in info.owner.iter().flatten() {
                assert_eq!(
                    self.l2p[*lba as usize],
                    Some(Ppa::new(
                        b as u32,
                        info.owner.iter().position(|o| o == &Some(*lba)).unwrap() as u32
                    )),
                    "orphan: block {b} owns LBA {lba} but the map disagrees"
                );
            }
            if info.state == BlockState::Free {
                assert_eq!(info.valid, 0, "free block {b} holds valid data");
            }
        }
        let actives = self
            .blocks
            .iter()
            .filter(|b| b.state == BlockState::Active)
            .count();
        let lanes = self
            .active
            .as_ref()
            .map(|g| g.blocks.len())
            .unwrap_or_default();
        assert!(
            actives <= self.chip.geometry().planes as usize,
            "{actives} active blocks on a {}-plane chip",
            self.chip.geometry().planes
        );
        assert_eq!(actives, lanes, "frontier and block states disagree");
        if let Some(s) = &self.staged {
            assert_eq!(
                self.l2p[s.lba as usize],
                Some(s.ppa),
                "staged write unmapped"
            );
            assert_eq!(
                self.blocks[s.ppa.block as usize].owner[s.ppa.page as usize],
                Some(s.lba),
                "staged write lost its slot"
            );
            assert_eq!(
                self.blocks[s.ppa.block as usize].state,
                BlockState::Active,
                "staged write outlived its block's frontier"
            );
        }
    }

    /// Erase-count distribution across all blocks.
    pub fn wear_summary(&self) -> WearSummary {
        let counts: Vec<u32> = (0..self.chip.geometry().blocks)
            .map(|b| self.chip.erase_count(b).unwrap_or(0))
            .collect();
        WearSummary::from_counts(&counts)
    }

    /// Tick the static wear leveller after an erase and, if the spread is
    /// too wide, return the coldest closed block to recycle.
    fn wear_level_victim(&mut self) -> Option<u32> {
        let w = self.wear.as_mut()?;
        if !w.on_erase() {
            return None;
        }
        let counts: Vec<u32> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                if b.state == BlockState::Closed {
                    self.chip.erase_count(i as u32).unwrap_or(u32::MAX)
                } else {
                    u32::MAX // active/free blocks are not static-WL targets
                }
            })
            .collect();
        let device_max = self.chip.max_erase_count();
        let victim = self
            .wear
            .as_mut()
            .unwrap()
            .pick_victim(&counts, device_max)?;
        // Need a frontier to migrate into; skip when space is too tight.
        if self.free_blocks.is_empty() && self.active.is_none() {
            return None;
        }
        Some(victim)
    }

    /// Static wear levelling step: if the erase-count spread is too wide,
    /// recycle the coldest closed block so it rejoins the rotation.
    fn maybe_wear_level(&mut self) -> Result<()> {
        let Some(victim) = self.wear_level_victim() else {
            return Ok(());
        };
        self.reclaim_block(victim, false)?;
        self.stats.wear_leveling_moves += 1;
        Ok(())
    }

    /// Underlying flash target (inspection only).
    pub fn chip(&self) -> &C {
        &self.chip
    }

    /// Underlying flash target, mutably — for per-target settings such as
    /// a scheduled die's command context. Issuing flash commands through
    /// this bypasses the mapping.
    pub fn chip_mut(&mut self) -> &mut C {
        &mut self.chip
    }

    /// Region table (inspection only).
    pub fn regions(&self) -> &RegionTable {
        &self.regions
    }

    /// The layout in force for an LBA.
    pub fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        self.regions
            .layout_for(lba, self.config.default_layout.as_ref())
            .copied()
    }

    fn codec_for(&self, lba: Lba) -> OobCodec {
        let g = self.chip.geometry();
        OobCodec::new(g.page_size, g.oob_size, self.layout_for(lba))
    }

    fn check_lba(&self, lba: Lba) -> Result<()> {
        if lba >= self.capacity {
            return Err(FtlError::LbaOutOfRange {
                lba,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Physical page index of the `n`-th usable page in a block.
    fn nth_usable_page(&self, n: u32) -> u32 {
        match self.chip.mode() {
            ipa_flash::FlashMode::PSlc => 2 * n + 1,
            _ => n,
        }
    }

    /// Claim the next free usable page, opening a new frontier (a
    /// plane-aligned group when possible) if needed. Slots hand out
    /// lane-major: all lanes at one page offset before the offset
    /// advances, so the staged-write pairing finds its partner at the
    /// very next allocation.
    fn allocate(&mut self) -> Result<Ppa> {
        loop {
            let slot = self.active.as_ref().and_then(|g| {
                let lanes = g.blocks.len() as u32;
                (g.next < lanes * self.usable_ppb)
                    .then(|| (g.blocks[(g.next % lanes) as usize], g.next / lanes))
            });
            if let Some((block, n)) = slot {
                self.active.as_mut().expect("frontier exists").next += 1;
                self.blocks[block as usize].used += 1;
                return Ok(Ppa::new(block, self.nth_usable_page(n)));
            }
            if let Some(done) = self.active.take() {
                // A staged program whose block is about to close must hit
                // the flash first — a closed block is a GC candidate, and
                // reclaiming an erased-but-owned page would be a torn
                // migration.
                if self
                    .staged
                    .as_ref()
                    .is_some_and(|s| done.blocks.contains(&s.ppa.block))
                {
                    self.drain_staged()?;
                }
                for b in done.blocks {
                    self.blocks[b as usize].state = BlockState::Closed;
                }
            }
            self.open_frontier()?;
        }
    }

    /// Open the next write frontier. With planes > 1, prefer the first
    /// plane group (FIFO order of the free list) whose member blocks are
    /// all free and healthy; otherwise fall back to a single block —
    /// which is also the entire story for planes = 1.
    fn open_frontier(&mut self) -> Result<()> {
        let planes = self.chip.geometry().planes;
        if planes > 1 {
            let mut free_in_group: std::collections::HashMap<u32, u32> = Default::default();
            for &b in &self.free_blocks {
                if !self.chip.is_bad(b) {
                    *free_in_group.entry(b / planes).or_default() += 1;
                }
            }
            // A trailing partial group never reaches `planes` members and
            // is naturally excluded.
            let aligned = self
                .free_blocks
                .iter()
                .map(|&b| b / planes)
                .find(|gid| free_in_group.get(gid) == Some(&planes));
            if let Some(gid) = aligned {
                let members: Vec<u32> = (gid * planes..(gid + 1) * planes).collect();
                self.free_blocks.retain(|b| !members.contains(b));
                for &b in &members {
                    self.blocks[b as usize].state = BlockState::Active;
                    self.blocks[b as usize].used = 0;
                }
                self.active = Some(ActiveGroup {
                    blocks: members,
                    next: 0,
                });
                return Ok(());
            }
        }
        loop {
            let b = self.free_blocks.pop_front().ok_or(FtlError::DeviceFull)?;
            if self.chip.is_bad(b) {
                continue; // retired block: capacity silently shrinks
            }
            self.blocks[b as usize].state = BlockState::Active;
            self.blocks[b as usize].used = 0;
            self.active = Some(ActiveGroup {
                blocks: vec![b],
                next: 0,
            });
            return Ok(());
        }
    }

    fn invalidate(&mut self, ppa: Ppa) {
        let info = &mut self.blocks[ppa.block as usize];
        if info.owner[ppa.page as usize].take().is_some() {
            info.valid -= 1;
        }
    }

    /// Run GC until the free pool is back above the low-water mark. Under
    /// `background_gc` the refill belongs to the maintenance scheduler;
    /// the inline path only reclaims when the pool is actually empty (an
    /// emergency the scheduler failed to prevent), draining any half-done
    /// background job first rather than starting a second reclaim.
    fn ensure_free_space(&mut self) -> Result<()> {
        let low_water = if self.config.background_gc {
            1
        } else {
            GC_LOW_WATER_BLOCKS
        };
        while (self.free_blocks.len() as u32) < low_water {
            if let Some(mut job) = self.pending_job.take() {
                while !self.reclaim_step(&mut job)? {}
                if !job.count_as_gc {
                    self.stats.wear_leveling_moves += 1;
                }
                self.maybe_wear_level()?;
                continue;
            }
            if !self.gc_once()? {
                // Nothing reclaimable. Fatal only if allocation would fail.
                if self.free_blocks.is_empty() && self.active.is_none() {
                    return Err(FtlError::DeviceFull);
                }
                break;
            }
        }
        Ok(())
    }

    /// Greedy GC victim: the closed block with the most invalid pages,
    /// ties broken toward low erase counts (dynamic wear levelling). A
    /// block already being reclaimed by a background job is never a
    /// candidate — reclaiming it twice would erase live migrations.
    pub fn select_gc_victim(&self) -> Option<u32> {
        let busy = self.pending_job.as_ref().map(|j| j.victim);
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                b.state == BlockState::Closed && b.invalid() > 0 && Some(*i as u32) != busy
            })
            .max_by_key(|(i, b)| {
                (
                    b.invalid(),
                    std::cmp::Reverse(self.chip.erase_count(*i as u32).unwrap_or(u32::MAX)),
                )
            })
            .map(|(i, _)| i as u32)
    }

    /// Reclaim one block. Returns `false` when no victim exists.
    fn gc_once(&mut self) -> Result<bool> {
        let Some(victim) = self.select_gc_victim() else {
            return Ok(false);
        };
        self.reclaim_block(victim, true)?;
        self.maybe_wear_level()?;
        Ok(true)
    }

    /// Migrate a block's valid pages to the frontier and erase it —
    /// inline, by driving a [`GcJob`] to completion in one call.
    /// `count_as_gc` separates GC accounting from wear-levelling moves.
    fn reclaim_block(&mut self, victim: u32, count_as_gc: bool) -> Result<()> {
        if self
            .pending_job
            .as_ref()
            .is_some_and(|j| j.victim == victim)
        {
            // A background job already owns this block (wear levelling can
            // race the scheduler); let it finish instead of double-freeing.
            return Ok(());
        }
        let mut job = GcJob {
            victim,
            next_page: 0,
            count_as_gc,
        };
        while !self.reclaim_step(&mut job)? {}
        Ok(())
    }

    /// Advance a reclaim by one unit of device work: migrate the next
    /// valid page, or — once none remain — erase the victim and return it
    /// to the free pool. Returns `true` when the job is complete.
    fn reclaim_step(&mut self, job: &mut GcJob) -> Result<bool> {
        let victim = job.victim;
        debug_assert_eq!(
            self.blocks[victim as usize].state,
            BlockState::Closed,
            "reclaim of a non-closed block"
        );
        // The pairing window drains before a block closes, so a victim can
        // never hold a staged-but-unprogrammed page.
        debug_assert!(
            self.staged.as_ref().is_none_or(|s| s.ppa.block != victim),
            "reclaim of the staged write's block"
        );
        let pages = self.chip.geometry().pages_per_block;
        while job.next_page < pages {
            let page = job.next_page;
            job.next_page += 1;
            let Some(lba) = self.blocks[victim as usize].owner[page as usize] else {
                continue;
            };
            let src = Ppa::new(victim, page);
            // Copy-back: a migration read is firmware-internal — it keeps
            // the die busy but never stalls the host interface.
            self.chip
                .copyback_read_into(src, &mut self.page_scratch, &mut self.oob_scratch)?;
            // Scrub on the way: correct what ECC can, count what it fixed.
            let codec = self.codec_for(lba);
            let fresh_oob = match codec.verify(&mut self.page_scratch, &self.oob_scratch) {
                Ok(o) => {
                    self.stats.ecc_corrected_bits += o.corrected_bits;
                    Some(codec.encode_oob(&self.page_scratch))
                }
                Err(_) => {
                    // Migrate the raw bits beside their *old* codewords, so
                    // the host read still reports the loss — re-encoding
                    // would bless the corrupt data as clean. (A real
                    // controller would log a media error.)
                    self.stats.uncorrectable_reads += 1;
                    None
                }
            };
            let dst = self.allocate()?;
            let oob = fresh_oob.as_deref().unwrap_or(&self.oob_scratch);
            self.chip.program_page(dst, &self.page_scratch, oob)?;
            self.blocks[victim as usize].owner[page as usize] = None;
            self.blocks[victim as usize].valid -= 1;
            self.blocks[dst.block as usize].owner[dst.page as usize] = Some(lba);
            self.blocks[dst.block as usize].valid += 1;
            self.l2p[lba as usize] = Some(dst);
            if job.count_as_gc {
                self.stats.gc_page_migrations += 1;
            }
            return Ok(false);
        }

        self.chip.erase_block(victim)?;
        if job.count_as_gc {
            self.stats.gc_erases += 1;
        }
        self.blocks[victim as usize].reset();
        if !self.chip.is_bad(victim) {
            self.free_blocks.push_back(victim);
        }
        Ok(true)
    }

    /// Free blocks currently in the pool.
    #[inline]
    pub fn free_block_count(&self) -> u32 {
        self.free_blocks.len() as u32
    }

    /// The GC low-water mark (free blocks).
    #[inline]
    pub fn gc_low_water(&self) -> u32 {
        GC_LOW_WATER_BLOCKS
    }

    /// Would a maintenance step make progress against `low_water`? True
    /// when a reclaim is already mid-flight, or the pool is below the mark
    /// and a victim exists.
    pub fn gc_pending(&self, low_water: u32) -> bool {
        self.pending_job.is_some()
            || (self.free_block_count() < low_water && self.select_gc_victim().is_some())
    }

    /// One background-GC step against an externally chosen refill target
    /// (the scheduler may start early — `low_water` above the configured
    /// mark — so the pool refills before the write path ever trips).
    /// Starts a new [`GcJob`] when none is in flight, otherwise
    /// advances the current one. Each call issues at most one page
    /// migration or one erase, so a maintenance scheduler can interleave
    /// reclaim work with host traffic at single-command granularity.
    pub fn background_gc_step(&mut self, low_water: u32) -> Result<GcProgress> {
        let mut job = match self.pending_job.take() {
            Some(job) => job,
            None => {
                if self.free_block_count() >= low_water {
                    return Ok(GcProgress::Idle);
                }
                let Some(victim) = self.select_gc_victim() else {
                    return Ok(GcProgress::Idle);
                };
                GcJob {
                    victim,
                    next_page: 0,
                    count_as_gc: true,
                }
            }
        };
        if self.reclaim_step(&mut job)? {
            if job.count_as_gc {
                self.stats.background_gc_erases += 1;
            } else {
                self.stats.wear_leveling_moves += 1;
            }
            // Static wear levelling keeps its per-erase cadence, but the
            // recycle itself becomes the next resumable job instead of a
            // whole-block inline burst — preserving the one-command-per-
            // step contract the scheduler relies on.
            if let Some(victim) = self.wear_level_victim() {
                self.pending_job = Some(GcJob {
                    victim,
                    next_page: 0,
                    count_as_gc: false,
                });
            }
            Ok(GcProgress::Erased)
        } else {
            self.pending_job = Some(job);
            Ok(GcProgress::Migrated)
        }
    }

    /// Attempt the conventional-SSD in-place path. Returns `true` when the
    /// image was programmed in place.
    fn try_in_place(&mut self, ppa: Ppa, data: &[u8], codec: &OobCodec) -> Result<bool> {
        let mode = self.chip.mode();
        if !mode.ipa_safe(ppa.page) && !self.config.allow_unsafe_ipa {
            return Ok(false);
        }
        if self.chip.program_count(ppa)? >= self.chip.nop_limit(ppa.page) {
            return Ok(false);
        }
        // Borrow-based compatibility probe first: most overwrites fail it,
        // and the failure path must not pay a page-size copy.
        if self.chip.peek_overwrite_compatible(ppa, data) != Some(true) {
            return Ok(false);
        }
        let Some(old) = self.chip.peek_data(ppa) else {
            return Ok(false);
        };
        let layout = codec.layout().expect("in-place detection requires layout");
        let mut oob = self
            .chip
            .peek_oob(ppa)
            .unwrap_or_else(|| vec![0xFF; self.chip.geometry().oob_size]);
        // Add ECC codewords for record slots that appear in the new image.
        for i in 0..layout.scheme.n {
            let roff = layout.record_offset(i);
            let newly_present = old[roff] & 0x80 != 0 && data[roff] & 0x80 == 0;
            if newly_present {
                let cw = codec.encode_record(&data[roff..roff + layout.record_size()]);
                let ooff = codec.record_oob_offset(i);
                oob[ooff..ooff + cw.len()].copy_from_slice(&cw);
            }
        }
        match self.chip.reprogram_page(ppa, data, &oob) {
            Ok(()) => Ok(true),
            // Races we pre-checked can still lose to NOP/mode subtleties:
            // fall back to out-of-place rather than failing the write.
            Err(FlashError::NopExceeded { .. }) | Err(FlashError::IllegalOverwrite { .. }) => {
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn write_out_of_place(&mut self, lba: Lba, data: &[u8], codec: &OobCodec) -> Result<()> {
        self.ensure_free_space()?;
        let ppa = self.allocate()?;
        let oob = codec.encode_oob(data);
        self.program_or_stage(lba, ppa, data, oob)?;
        if let Some(old) = self.l2p[lba as usize].replace(ppa) {
            self.invalidate(old);
            self.stats.page_invalidations += 1;
        }
        let info = &mut self.blocks[ppa.block as usize];
        info.owner[ppa.page as usize] = Some(lba);
        info.valid += 1;
        Ok(())
    }

    /// The plane-pairing window. On a one-plane chip, program now (no
    /// copy, no staging — the historic path). On a multi-plane chip:
    /// complete a staged partner into one multi-plane command when the
    /// new slot aligns with it, otherwise flush the partner single-plane
    /// and park the newcomer for the next write.
    fn program_or_stage(&mut self, lba: Lba, ppa: Ppa, data: &[u8], oob: Vec<u8>) -> Result<()> {
        let g = self.chip.geometry();
        if g.planes <= 1 {
            return self.chip.program_page(ppa, data, &oob).map_err(Into::into);
        }
        if let Some(partner) = self.staged.take() {
            if g.plane_aligned(partner.ppa, ppa) {
                let pages = [
                    MultiPlaneWrite {
                        ppa: partner.ppa,
                        data: &partner.data,
                        oob: &partner.oob,
                    },
                    MultiPlaneWrite {
                        ppa,
                        data,
                        oob: &oob,
                    },
                ];
                self.chip.multi_plane_program(&pages)?;
                self.stats.multi_plane_pairs += 1;
                return Ok(());
            }
            self.chip
                .program_page(partner.ppa, &partner.data, &partner.oob)?;
        }
        self.staged = Some(StagedWrite {
            lba,
            ppa,
            data: data.to_vec(),
            oob,
        });
        Ok(())
    }

    /// Flush the pairing window: issue the parked single-plane program,
    /// if any. Called internally whenever something must observe the
    /// staged page on flash; public so barrier-style consumers (a device
    /// sync, a bench comparing flash counters) can settle the last write.
    pub fn drain_staged(&mut self) -> Result<()> {
        if let Some(s) = self.staged.take() {
            self.chip.program_page(s.ppa, &s.data, &s.oob)?;
        }
        Ok(())
    }

    /// Drain the pairing window before any operation that must observe
    /// `lba`'s bytes on flash (reads, overwrites, appends, trims).
    fn drain_staged_for(&mut self, lba: Lba) -> Result<()> {
        if self.staged.as_ref().is_some_and(|s| s.lba == lba) {
            self.drain_staged()?;
        }
        Ok(())
    }

    /// Internal bulk-read for migration/destage: the current page image
    /// of `lba`, ECC-verified, without touching the host read counters —
    /// firmware moving data around is not host traffic.
    pub fn migrate_read(&mut self, lba: Lba) -> Result<Vec<u8>> {
        self.check_lba(lba)?;
        self.drain_staged_for(lba)?;
        let ppa = self.l2p[lba as usize].ok_or(FtlError::UnmappedLba(lba))?;
        // Copy-back, like GC's migration read: firmware traffic keeps
        // the die busy but never stalls the host interface.
        self.chip
            .copyback_read_into(ppa, &mut self.page_scratch, &mut self.oob_scratch)?;
        let codec = self.codec_for(lba);
        match codec.verify(&mut self.page_scratch, &self.oob_scratch) {
            Ok(o) => self.stats.ecc_corrected_bits += o.corrected_bits,
            Err(_) => {
                self.stats.uncorrectable_reads += 1;
                return Err(FtlError::Uncorrectable { lba });
            }
        }
        Ok(self.page_scratch.clone())
    }

    /// Internal bulk-write for migration/destage batches, issued as
    /// cached (pipelined) program commands: each item gets the normal
    /// out-of-place allocation and L2P bookkeeping, but the page programs
    /// are deferred and flushed as [`Nand::cache_program`] batches so the
    /// transfers of later members hide behind earlier members' pulses.
    ///
    /// Safety against reclaim: a deferred page must never sit in a block
    /// GC could read or erase, so the pending batch is flushed whenever
    /// the free pool drops to where `ensure_free_space` would reclaim —
    /// GC then observes fully-programmed state. Blocks a batch member
    /// lives in are `Active` or just-`Closed`, and the flush-before-GC
    /// rule covers both. Host counters are *not* bumped: like GC
    /// copy-backs, this is firmware traffic (the flash counters record
    /// the programs, `FlashStats::cache_programs` the batches).
    pub fn write_batch_cached(&mut self, items: &[(Lba, Vec<u8>)]) -> Result<()> {
        // The pairing window would leave an unprogrammed host write
        // interleaved with the batch; settle it first.
        self.drain_staged()?;
        let reclaim_water = if self.config.background_gc {
            1
        } else {
            GC_LOW_WATER_BLOCKS
        };
        let mut pending: Vec<(Ppa, Vec<u8>, Vec<u8>)> = Vec::new();
        for (lba, data) in items {
            let lba = *lba;
            self.check_lba(lba)?;
            if data.len() != self.page_size() {
                return Err(FtlError::SizeMismatch {
                    expected: self.page_size(),
                    got: data.len(),
                });
            }
            if (self.free_blocks.len() as u32) < reclaim_water {
                // ensure_free_space may reclaim: deferred pages must hit
                // the flash before GC can pick their blocks.
                self.flush_cached(&mut pending)?;
            }
            self.ensure_free_space()?;
            let ppa = self.allocate()?;
            let codec = self.codec_for(lba);
            let oob = codec.encode_oob(data);
            if let Some(old) = self.l2p[lba as usize].replace(ppa) {
                self.invalidate(old);
                self.stats.page_invalidations += 1;
            }
            let info = &mut self.blocks[ppa.block as usize];
            info.owner[ppa.page as usize] = Some(lba);
            info.valid += 1;
            pending.push((ppa, data.clone(), oob));
        }
        self.flush_cached(&mut pending)
    }

    /// Issue the deferred batch as one cached-program command.
    fn flush_cached(&mut self, pending: &mut Vec<(Ppa, Vec<u8>, Vec<u8>)>) -> Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let writes: Vec<MultiPlaneWrite<'_>> = pending
            .iter()
            .map(|(ppa, data, oob)| MultiPlaneWrite {
                ppa: *ppa,
                data,
                oob,
            })
            .collect();
        self.chip.cache_program(&writes)?;
        pending.clear();
        Ok(())
    }
}

/// Is `new` writable over `old` without an erase (`1 → 0` only)?
#[inline]
pub fn overwrite_compatible(old: &[u8], new: &[u8]) -> bool {
    debug_assert_eq!(old.len(), new.len());
    old.iter().zip(new).all(|(&o, &n)| n & !o == 0)
}

impl<C: Nand> BlockDevice for Ftl<C> {
    fn page_size(&self) -> usize {
        self.chip.geometry().page_size
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        Ftl::layout_for(self, lba)
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.check_lba(lba)?;
        if buf.len() != self.page_size() {
            return Err(FtlError::SizeMismatch {
                expected: self.page_size(),
                got: buf.len(),
            });
        }
        self.drain_staged_for(lba)?;
        let ppa = self.l2p[lba as usize].ok_or(FtlError::UnmappedLba(lba))?;
        // Straight into the caller's frame; the ECC check below runs on
        // every host read, in place.
        self.chip.read_page_into(ppa, buf, &mut self.oob_scratch)?;
        let codec = self.codec_for(lba);
        match codec.verify(buf, &self.oob_scratch) {
            Ok(o) => self.stats.ecc_corrected_bits += o.corrected_bits,
            Err(_) => {
                self.stats.uncorrectable_reads += 1;
                return Err(FtlError::Uncorrectable { lba });
            }
        }
        self.stats.host_reads += 1;
        self.stats.bytes_host_read += self.page_size() as u64;
        Ok(())
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        self.check_lba(lba)?;
        if data.len() != self.page_size() {
            return Err(FtlError::SizeMismatch {
                expected: self.page_size(),
                got: data.len(),
            });
        }
        self.drain_staged_for(lba)?;
        let codec = self.codec_for(lba);
        self.stats.host_writes += 1;
        self.stats.bytes_host_written += data.len() as u64;

        if self.config.in_place_detection && codec.layout().is_some() {
            if let Some(ppa) = self.l2p[lba as usize] {
                if self.try_in_place(ppa, data, &codec)? {
                    self.stats.in_place_appends += 1;
                    return Ok(());
                }
            }
        }
        self.write_out_of_place(lba, data, &codec)?;
        self.stats.out_of_place_writes += 1;
        Ok(())
    }

    fn trim(&mut self, lba: Lba) -> Result<()> {
        self.check_lba(lba)?;
        self.drain_staged_for(lba)?;
        if let Some(ppa) = self.l2p[lba as usize].take() {
            self.invalidate(ppa);
            self.stats.page_invalidations += 1;
        }
        Ok(())
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        lba < self.capacity && self.l2p[lba as usize].is_some()
    }

    fn device_stats(&self) -> DeviceStats {
        self.stats
    }

    fn flash_stats(&self) -> FlashStats {
        self.chip.flash_stats()
    }

    fn elapsed_ns(&self) -> u64 {
        self.chip.elapsed_ns()
    }

    fn max_erase_count(&self) -> u32 {
        self.chip.max_erase_count()
    }

    fn raw_blocks(&self) -> u32 {
        self.chip.geometry().blocks
    }
}

impl<C: Nand> NativeFlashDevice for Ftl<C> {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()> {
        self.check_lba(lba)?;
        self.drain_staged_for(lba)?;
        let ppa = self.l2p[lba as usize].ok_or(FtlError::UnmappedLba(lba))?;
        let layout = self
            .layout_for(lba)
            .ok_or(FtlError::LayoutRequired { lba })?;
        let codec = self.codec_for(lba);

        // The delta must be whole record slots starting at a slot boundary.
        let rs = layout.record_size();
        let (first_slot, count) = layout
            .append_slots(offset, delta_bytes.len())
            .map_err(|reason| FtlError::BadWriteDelta { lba, reason })?;

        // Physical-page policy: the mode decides whether this page may be
        // re-programmed at all.
        if !self.chip.mode().ipa_safe(ppa.page) && !self.config.allow_unsafe_ipa {
            return Err(FtlError::InPlaceRejected {
                lba,
                cause: FlashError::PageNotUsable { ppa },
            });
        }

        // Per-record ECC codewords, appended to their OOB slots.
        let mut oob_bytes = Vec::with_capacity(count as usize * 4);
        for k in 0..count {
            let r = &delta_bytes[k as usize * rs..(k as usize + 1) * rs];
            oob_bytes.extend_from_slice(&codec.encode_record(r));
        }
        let oob_off = codec.record_oob_offset(first_slot);

        match self
            .chip
            .append_region(ppa, offset, delta_bytes, oob_off, &oob_bytes)
        {
            Ok(()) => {
                self.stats.host_write_deltas += 1;
                self.stats.in_place_appends += 1;
                self.stats.bytes_host_written += delta_bytes.len() as u64;
                Ok(())
            }
            Err(cause @ (FlashError::NopExceeded { .. } | FlashError::IllegalOverwrite { .. })) => {
                Err(FtlError::InPlaceRejected { lba, cause })
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// The queued face of a single flash target. There is no scheduler
/// between the FTL and the chip here, so every request completes the
/// moment it is submitted — `submitted_ns`/`done_ns` bracket the chip
/// time the request consumed, and polling has nothing left to wait for.
/// (The die-striped [`crate::ShardedFtl`] is where submission and
/// completion genuinely separate.)
impl<C: Nand> IoQueue for Ftl<C> {
    fn submit(&mut self, req: IoRequest) -> Result<IoToken> {
        let submitted = self.chip.elapsed_ns();
        let mut data = Vec::new();
        let mut rejected = Vec::new();
        match &req {
            IoRequest::ReadV(lbas) => {
                for &lba in lbas {
                    let mut buf = vec![0u8; self.page_size()];
                    BlockDevice::read(self, lba, &mut buf)?;
                    data.push(buf);
                }
                self.stats.vectored_reads += u64::from(lbas.len() > 1);
            }
            IoRequest::WriteV(pages) => {
                for (lba, page) in pages {
                    BlockDevice::write(self, *lba, page)?;
                }
                self.stats.vectored_writes += u64::from(pages.len() > 1);
            }
            IoRequest::WriteDeltaV(members) => {
                for (i, (lba, offset, delta)) in members.iter().enumerate() {
                    match self.write_delta(*lba, *offset, delta) {
                        Ok(()) => {}
                        Err(FtlError::InPlaceRejected { .. }) => rejected.push(i),
                        Err(e) => return Err(e),
                    }
                }
                self.stats.vectored_deltas += u64::from(members.len() > 1);
            }
        }
        Ok(IoToken::immediate(IoCompletion {
            data,
            rejected,
            submitted_ns: submitted,
            done_ns: self.chip.elapsed_ns(),
        }))
    }

    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion> {
        Ok(token.into_completion())
    }

    fn sync(&mut self) -> u64 {
        self.drain_staged().expect("draining a staged program");
        self.chip.elapsed_ns()
    }

    /// No scheduler counted the request's reads: nothing to retire.
    fn forget(&mut self, _token: IoToken) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::{DeltaRecord, NmScheme};
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};

    fn layout(page_size: usize) -> PageLayout {
        PageLayout::new(page_size, 24, 8, NmScheme::new(2, 4))
    }

    fn chip(mode: FlashMode) -> FlashChip {
        FlashChip::new(
            DeviceConfig::new(Geometry::new(16, 8, 2048, 64), mode)
                .with_disturb(DisturbRates::none()),
        )
    }

    fn page(fill: u8, l: &PageLayout) -> Vec<u8> {
        let mut p = vec![fill; l.page_size];
        l.wipe_delta_area(&mut p);
        p
    }

    #[test]
    fn write_read_round_trip() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let data = vec![0x5Au8; 2048];
        ftl.write(3, &data).unwrap();
        let mut buf = vec![0u8; 2048];
        ftl.read(3, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(ftl.device_stats().host_writes, 1);
        assert_eq!(ftl.device_stats().host_reads, 1);
    }

    #[test]
    fn unmapped_read_errors() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let mut buf = vec![0u8; 2048];
        assert!(matches!(
            ftl.read(7, &mut buf),
            Err(FtlError::UnmappedLba(7))
        ));
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let cap = ftl.capacity_pages();
        let data = vec![0u8; 2048];
        assert!(matches!(
            ftl.write(cap, &data),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let data = vec![0x11u8; 2048];
        ftl.write(0, &data).unwrap();
        ftl.write(0, &data).unwrap();
        let s = ftl.device_stats();
        assert_eq!(s.out_of_place_writes, 2);
        assert_eq!(s.page_invalidations, 1);
        assert_eq!(s.in_place_appends, 0);
    }

    #[test]
    fn gc_does_not_launder_an_uncorrectable_page() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        ftl.write(90, &vec![0xFFu8; 2048]).unwrap();
        let ppa = ftl.l2p[90].unwrap();
        // Two legal 1 → 0 flips in one ECC chunk, OOB untouched: more than
        // SECDED can repair.
        ftl.chip_mut()
            .append_region(ppa, 10, &[0xFE, 0xFE], 0, &[])
            .unwrap();
        let mut buf = vec![0u8; 2048];
        assert!(matches!(
            ftl.read(90, &mut buf),
            Err(FtlError::Uncorrectable { lba: 90 })
        ));
        // Churn other LBAs until GC migrates the damaged page.
        let data = vec![0x22u8; 2048];
        for i in 0..10_000u64 {
            ftl.write(i % 8, &data).unwrap();
            if ftl.l2p[90] != Some(ppa) {
                break;
            }
        }
        assert_ne!(ftl.l2p[90], Some(ppa), "GC never moved the page");
        // The migration must carry the loss along, not re-encode the
        // corrupt bits into a clean-verifying page.
        assert!(
            matches!(
                ftl.read(90, &mut buf),
                Err(FtlError::Uncorrectable { lba: 90 })
            ),
            "GC laundered corrupt data: bytes 10..12 read back as {:02x?}",
            &buf[10..12]
        );
    }

    #[test]
    fn sustained_overwrites_trigger_gc() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let data = vec![0x22u8; 2048];
        // 16 blocks × 8 pages; hammer a small working set far past raw
        // capacity so GC must run.
        for i in 0..600u64 {
            ftl.write(i % 8, &data).unwrap();
        }
        let s = ftl.device_stats();
        assert!(s.gc_erases > 0, "GC must have erased blocks");
        assert_eq!(s.out_of_place_writes, 600);
        // Everything is still readable.
        let mut buf = vec![0u8; 2048];
        for i in 0..8u64 {
            ftl.read(i, &mut buf).unwrap();
        }
    }

    #[test]
    fn gc_preserves_all_data() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let cap = ftl.capacity_pages();
        // Fill most of the device with distinct content, then churn.
        for lba in 0..cap {
            let data = vec![(lba % 251) as u8; 2048];
            ftl.write(lba, &data).unwrap();
        }
        for round in 0..4u64 {
            for lba in 0..cap / 2 {
                let data = vec![((lba + round) % 251) as u8; 2048];
                ftl.write(lba, &data).unwrap();
            }
        }
        let mut buf = vec![0u8; 2048];
        for lba in 0..cap {
            ftl.read(lba, &mut buf).unwrap();
            let expect = if lba < cap / 2 {
                ((lba + 3) % 251) as u8
            } else {
                (lba % 251) as u8
            };
            assert!(buf.iter().all(|&b| b == expect), "lba {lba} corrupted");
        }
    }

    #[test]
    fn conventional_ipa_detects_append() {
        let l = layout(2048);
        let mut ftl = Ftl::new(chip(FlashMode::PSlc), FtlConfig::ipa_conventional(l));
        let original = page(0x5A, &l);
        ftl.write(0, &original).unwrap();

        // Build an appended image the way the tracker would.
        let mut image = original.clone();
        let rec = DeltaRecord::new(vec![(30, 0x42)], vec![1; l.meta_len()], l.scheme);
        ipa_core::write_record_into(&mut image, &l, 0, &rec);
        ftl.write(0, &image).unwrap();

        let s = ftl.device_stats();
        assert_eq!(s.in_place_appends, 1);
        assert_eq!(s.out_of_place_writes, 1);
        assert_eq!(s.page_invalidations, 0, "no invalidation on append");

        // Read returns the appended image, ECC-clean.
        let mut buf = vec![0u8; 2048];
        ftl.read(0, &mut buf).unwrap();
        assert_eq!(buf, image);
    }

    #[test]
    fn conventional_ipa_falls_back_on_body_change() {
        let l = layout(2048);
        let mut ftl = Ftl::new(chip(FlashMode::PSlc), FtlConfig::ipa_conventional(l));
        let original = page(0x5A, &l);
        ftl.write(0, &original).unwrap();
        // Change a body byte 0x5A → 0x5B (needs a 0→1 bit): not compatible.
        let mut image = original.clone();
        image[100] = 0x5B;
        ftl.write(0, &image).unwrap();
        let s = ftl.device_stats();
        assert_eq!(s.in_place_appends, 0);
        assert_eq!(s.out_of_place_writes, 2);
        assert_eq!(s.page_invalidations, 1);
    }

    #[test]
    fn write_delta_appends_natively() {
        let l = layout(2048);
        let mut ftl = Ftl::new(chip(FlashMode::PSlc), FtlConfig::ipa_native(l));
        let original = page(0xA5, &l);
        ftl.write(5, &original).unwrap();
        let written_before = ftl.device_stats().bytes_host_written;

        let rec = DeltaRecord::new(vec![(40, 0x0F)], vec![2; l.meta_len()], l.scheme);
        let bytes = rec.encode(&l);
        ftl.write_delta(5, l.record_offset(0), &bytes).unwrap();

        let s = ftl.device_stats();
        assert_eq!(s.host_write_deltas, 1);
        assert_eq!(s.in_place_appends, 1);
        assert_eq!(
            s.bytes_host_written - written_before,
            bytes.len() as u64,
            "write_delta transfers only the record"
        );

        // The record is on the same physical page and ECC-verifiable.
        let mut buf = vec![0u8; 2048];
        ftl.read(5, &mut buf).unwrap();
        let recs = ipa_core::scan_records(&buf, &l);
        assert_eq!(recs, vec![rec]);
    }

    #[test]
    fn write_delta_requires_layout() {
        let mut ftl = Ftl::new(chip(FlashMode::PSlc), FtlConfig::traditional());
        let data = vec![0xFFu8; 2048];
        ftl.write(0, &data).unwrap();
        assert!(matches!(
            ftl.write_delta(0, 1900, &[0u8; 45]),
            Err(FtlError::LayoutRequired { .. })
        ));
    }

    #[test]
    fn write_delta_validates_slot_alignment() {
        let l = layout(2048);
        let mut ftl = Ftl::new(chip(FlashMode::PSlc), FtlConfig::ipa_native(l));
        ftl.write(0, &page(0xFF, &l)).unwrap();
        let rec = DeltaRecord::new(vec![], vec![0; l.meta_len()], l.scheme).encode(&l);
        assert!(matches!(
            ftl.write_delta(0, l.record_offset(0) + 1, &rec),
            Err(FtlError::BadWriteDelta { .. })
        ));
        assert!(matches!(
            ftl.write_delta(0, l.record_offset(0), &rec[..10]),
            Err(FtlError::BadWriteDelta { .. })
        ));
    }

    #[test]
    fn write_delta_beyond_area_rejected() {
        let l = layout(2048);
        let mut ftl = Ftl::new(chip(FlashMode::PSlc), FtlConfig::ipa_native(l));
        ftl.write(0, &page(0xFF, &l)).unwrap();
        let rec = DeltaRecord::new(vec![], vec![0; l.meta_len()], l.scheme).encode(&l);
        let three = [rec.clone(), rec.clone(), rec].concat();
        assert!(matches!(
            ftl.write_delta(0, l.record_offset(0), &three),
            Err(FtlError::BadWriteDelta { .. })
        ));
    }

    #[test]
    fn odd_mlc_rejects_delta_on_msb_pages() {
        let l = layout(2048);
        let mut ftl = Ftl::new(chip(FlashMode::OddMlc), FtlConfig::ipa_native(l));
        // Fill several LBAs: allocation alternates LSB/MSB physical pages.
        let img = page(0xFF, &l);
        for lba in 0..4 {
            ftl.write(lba, &img).unwrap();
        }
        let rec = DeltaRecord::new(vec![], vec![0; l.meta_len()], l.scheme).encode(&l);
        let mut rejected = 0;
        let mut accepted = 0;
        for lba in 0..4 {
            match ftl.write_delta(lba, l.record_offset(0), &rec) {
                Ok(()) => accepted += 1,
                Err(FtlError::InPlaceRejected { .. }) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(accepted, 2, "LSB-backed LBAs accept appends");
        assert_eq!(rejected, 2, "MSB-backed LBAs reject appends");
    }

    #[test]
    fn nop_exhaustion_surfaces_as_rejection() {
        let l = layout(2048);
        let cfg = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::PSlc)
            .with_disturb(DisturbRates::none())
            .with_nop(2); // 1 initial program + 1 append
        let mut ftl = Ftl::new(FlashChip::new(cfg), FtlConfig::ipa_native(l));
        ftl.write(0, &page(0xFF, &l)).unwrap();
        let rec = DeltaRecord::new(vec![], vec![0; l.meta_len()], l.scheme).encode(&l);
        ftl.write_delta(0, l.record_offset(0), &rec).unwrap();
        assert!(matches!(
            ftl.write_delta(0, l.record_offset(1), &rec),
            Err(FtlError::InPlaceRejected { .. })
        ));
    }

    #[test]
    fn trim_unmaps() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let data = vec![0u8; 2048];
        ftl.write(0, &data).unwrap();
        ftl.trim(0).unwrap();
        let mut buf = vec![0u8; 2048];
        assert!(matches!(
            ftl.read(0, &mut buf),
            Err(FtlError::UnmappedLba(0))
        ));
        assert_eq!(ftl.device_stats().page_invalidations, 1);
    }

    #[test]
    fn pslc_halves_capacity() {
        let slc = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let pslc = Ftl::new(chip(FlashMode::PSlc), FtlConfig::traditional());
        assert_eq!(pslc.capacity_pages() * 2, slc.capacity_pages());
    }

    #[test]
    fn background_steps_refill_the_pool_incrementally() {
        let mut ftl = Ftl::new(
            chip(FlashMode::Slc),
            FtlConfig::traditional().with_background_gc(),
        );
        let data = vec![0x33u8; 2048];
        // Hammer a hot set until the pool drops below the low-water mark.
        // Under background_gc the write path must NOT refill it inline.
        let mut i = 0u64;
        while ftl.free_block_count() >= ftl.gc_low_water() {
            ftl.write(i % 8, &data).unwrap();
            i += 1;
        }
        assert_eq!(ftl.device_stats().gc_erases, 0, "no inline low-water GC");
        assert!(ftl.gc_pending(ftl.gc_low_water()));

        // Step the reclaim to completion one command at a time.
        let low = ftl.gc_low_water();
        let mut migrations = 0;
        loop {
            match ftl.background_gc_step(low).unwrap() {
                GcProgress::Migrated => migrations += 1,
                GcProgress::Erased => {
                    if !ftl.gc_pending(low) {
                        break;
                    }
                }
                GcProgress::Idle => break,
            }
            ftl.check_invariants();
        }
        let s = ftl.device_stats();
        assert!(s.gc_erases > 0);
        assert_eq!(s.background_gc_erases, s.gc_erases);
        assert_eq!(s.gc_page_migrations, migrations);
        assert!(ftl.free_block_count() >= low);
        // Everything is still readable.
        let mut buf = vec![0u8; 2048];
        for lba in 0..8u64 {
            ftl.read(lba, &mut buf).unwrap();
        }
        ftl.check_invariants();
    }

    #[test]
    fn host_writes_interleave_safely_with_a_pending_reclaim() {
        // Host overwrites of LBAs whose valid copy sits in the half-
        // reclaimed victim must invalidate them; the remaining steps then
        // skip those pages, and nothing is lost or duplicated.
        let mut ftl = Ftl::new(
            chip(FlashMode::Slc),
            FtlConfig::traditional().with_background_gc(),
        );
        let fill = |v: u8| vec![v; 2048];
        for i in 0..600u64 {
            ftl.write(i % 10, &fill((i % 251) as u8)).unwrap();
            // Interleave at most one background step per host write —
            // exactly the maintenance scheduler's dispatch pattern.
            ftl.background_gc_step(ftl.gc_low_water()).unwrap();
            if i % 37 == 0 {
                ftl.check_invariants();
            }
        }
        let s = ftl.device_stats();
        assert!(s.background_gc_erases > 0, "background GC must have run");
        let mut buf = vec![0u8; 2048];
        for lba in 0..10u64 {
            ftl.read(lba, &mut buf).unwrap();
            let expect = ((590 + lba) % 251) as u8;
            assert!(buf.iter().all(|&b| b == expect), "lba {lba} corrupted");
        }
        ftl.check_invariants();
    }

    #[test]
    fn pending_victim_is_never_reselected() {
        let mut ftl = Ftl::new(
            chip(FlashMode::Slc),
            FtlConfig::traditional().with_background_gc(),
        );
        let data = vec![0x44u8; 2048];
        // Fill the device (every block fully valid), then invalidate one
        // page per early block — victims carry mostly-valid pages, so the
        // first reclaim step is a migration, not an erase.
        let cap = ftl.capacity_pages();
        for lba in 0..cap {
            ftl.write(lba, &data).unwrap();
        }
        ftl.write(0, &data).unwrap();
        ftl.write(8, &data).unwrap();
        // Start a job and leave it half-done.
        assert_eq!(ftl.background_gc_step(8).unwrap(), GcProgress::Migrated);
        let busy = ftl
            .pending_job
            .as_ref()
            .expect("job left in flight")
            .victim();
        assert_ne!(
            ftl.select_gc_victim(),
            Some(busy),
            "victim selection must skip the in-flight block"
        );
        // Emergency inline GC (pool exhausted) drains the pending job
        // rather than double-reclaiming.
        for i in 0..3 * cap {
            ftl.write(i % 8, &data).unwrap();
        }
        assert!(ftl.pending_job.is_none(), "emergency path drained the job");
        ftl.check_invariants();
    }

    #[test]
    fn inline_and_stepped_reclaim_reach_the_same_state() {
        // Same op stream: low-water inline GC vs externally stepped
        // background GC must expose identical host-visible bytes.
        let run = |background: bool| -> Vec<Vec<u8>> {
            let config = if background {
                FtlConfig::traditional().with_background_gc()
            } else {
                FtlConfig::traditional()
            };
            let mut ftl = Ftl::new(chip(FlashMode::Slc), config);
            for i in 0..700u64 {
                let data = vec![((i * 7) % 251) as u8; 2048];
                ftl.write(i % 12, &data).unwrap();
                if background {
                    // A generous budget: up to 4 steps per write.
                    for _ in 0..4 {
                        if ftl.background_gc_step(ftl.gc_low_water()).unwrap() == GcProgress::Idle {
                            break;
                        }
                    }
                }
            }
            (0..12u64)
                .map(|lba| {
                    let mut buf = vec![0u8; 2048];
                    ftl.read(lba, &mut buf).unwrap();
                    buf
                })
                .collect()
        };
        assert_eq!(run(false), run(true));
    }

    fn plane_chip(planes: u32) -> FlashChip {
        FlashChip::new(
            DeviceConfig::new(
                Geometry::new(16, 8, 2048, 64).with_planes(planes),
                FlashMode::Slc,
            )
            .with_disturb(DisturbRates::none()),
        )
    }

    #[test]
    fn consecutive_writes_pair_into_multi_plane_programs() {
        let mut ftl = Ftl::new(plane_chip(2), FtlConfig::traditional());
        let data = vec![0x5Au8; 2048];
        for lba in 0..8u64 {
            ftl.write(lba, &data).unwrap();
        }
        let d = ftl.device_stats();
        let f = ftl.flash_stats();
        assert!(
            d.multi_plane_pairs >= 3,
            "a write burst must pair almost every slot: {d:?}"
        );
        assert_eq!(f.multi_plane_programs, d.multi_plane_pairs);
        // Everything reads back (including a possibly still-staged tail).
        let mut buf = vec![0u8; 2048];
        for lba in 0..8u64 {
            ftl.read(lba, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
        ftl.check_invariants();
    }

    #[test]
    fn staged_write_is_drained_by_reads_overwrites_and_trims() {
        let mut ftl = Ftl::new(plane_chip(2), FtlConfig::traditional());
        let a = vec![0x11u8; 2048];
        let b = vec![0x22u8; 2048];
        // Lone write: parked in the pairing window, flash page untouched.
        ftl.write(0, &a).unwrap();
        assert!(ftl.staged.is_some(), "a lone write stages");
        let mut buf = vec![0u8; 2048];
        ftl.read(0, &mut buf).unwrap();
        assert_eq!(buf, a, "read drains the window first");
        assert!(ftl.staged.is_none());

        // Overwrite of the staged LBA: drain, then the overwrite proceeds.
        ftl.write(1, &a).unwrap();
        assert!(ftl.staged.is_some());
        ftl.write(1, &b).unwrap();
        ftl.read(1, &mut buf).unwrap();
        assert_eq!(buf, b);

        // Trim of a staged LBA leaves it unmapped, not resurrected.
        ftl.write(2, &a).unwrap();
        ftl.trim(2).unwrap();
        assert!(matches!(
            ftl.read(2, &mut buf),
            Err(FtlError::UnmappedLba(2))
        ));
        ftl.check_invariants();
    }

    #[test]
    fn plane_churn_with_gc_matches_single_plane_logical_state() {
        // The same op stream on a 1-plane and a 2-plane chip (identical
        // block count) must expose identical host-visible bytes, straight
        // through GC over plane-local victims and pairing windows.
        let run = |planes: u32| -> Vec<Vec<u8>> {
            let mut ftl = Ftl::new(plane_chip(planes), FtlConfig::traditional());
            for i in 0..700u64 {
                let data = vec![((i * 13) % 251) as u8; 2048];
                ftl.write(i % 10, &data).unwrap();
                if i % 7 == 0 {
                    let mut buf = vec![0u8; 2048];
                    ftl.read(i % 10, &mut buf).unwrap();
                }
                if i % 97 == 0 {
                    ftl.check_invariants();
                }
            }
            assert!(ftl.device_stats().gc_erases > 0, "churn must trip GC");
            (0..10u64)
                .map(|lba| {
                    let mut buf = vec![0u8; 2048];
                    ftl.read(lba, &mut buf).unwrap();
                    buf
                })
                .collect()
        };
        let single = run(1);
        assert_eq!(single, run(2));
        assert_eq!(single, run(4));
    }

    #[test]
    fn paired_writes_double_program_bandwidth() {
        // The tentpole's point at FTL level: the same write burst finishes
        // in well under the single-plane time.
        let elapsed = |planes: u32| -> u64 {
            let mut ftl = Ftl::new(plane_chip(planes), FtlConfig::traditional());
            let data = vec![0x3Cu8; 2048];
            for lba in 0..32u64 {
                ftl.write(lba, &data).unwrap();
            }
            ftl.drain_staged().unwrap(); // flush the tail: comparable times
            ftl.elapsed_ns()
        };
        let single = elapsed(1);
        let dual = elapsed(2);
        assert!(
            2 * single >= 3 * dual,
            "2 planes must be ≥1.5× program bandwidth: {dual} vs {single} ns"
        );
    }

    #[test]
    fn background_gc_steps_stay_correct_on_multi_plane_chips() {
        let mut ftl = Ftl::new(plane_chip(2), FtlConfig::traditional().with_background_gc());
        let data = vec![0x44u8; 2048];
        let mut i = 0u64;
        while ftl.free_block_count() >= ftl.gc_low_water() {
            ftl.write(i % 8, &data).unwrap();
            i += 1;
        }
        let low = ftl.gc_low_water();
        while ftl.gc_pending(low) {
            ftl.background_gc_step(low).unwrap();
            ftl.check_invariants();
        }
        assert!(ftl.device_stats().background_gc_erases > 0);
        let mut buf = vec![0u8; 2048];
        for lba in 0..8u64 {
            ftl.read(lba, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn queued_face_completes_immediately_on_a_single_chip() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let pages: Vec<(Lba, Vec<u8>)> = (0..4).map(|i| (i, vec![i as u8; 2048])).collect();
        let w = ftl.submit(IoRequest::WriteV(pages)).unwrap();
        let wc = ftl.poll_checked(w).expect("write completion");
        assert!(wc.done_ns >= wc.submitted_ns);
        assert!(wc.data.is_empty());

        let r = ftl.submit(IoRequest::ReadV(vec![2, 0, 3])).unwrap();
        let rc = ftl.poll_checked(r).expect("read completion");
        assert_eq!(rc.data.len(), 3);
        assert_eq!(rc.data[0], vec![2u8; 2048]);
        assert_eq!(rc.data[1], vec![0u8; 2048]);
        assert_eq!(rc.data[2], vec![3u8; 2048]);
        assert_eq!(
            rc.done_ns,
            ftl.elapsed_ns(),
            "immediate completion: done is the chip clock"
        );

        ftl.trim(1).unwrap();
        let mut buf = vec![0u8; 2048];
        assert!(matches!(
            ftl.read(1, &mut buf),
            Err(FtlError::UnmappedLba(1))
        ));

        let d = ftl.device_stats();
        assert_eq!(d.vectored_writes, 1);
        assert_eq!(d.vectored_reads, 1);
        assert_eq!(d.host_writes, 4);
    }

    #[test]
    fn queued_counters_ignore_single_page_vectors() {
        let mut ftl = Ftl::new(chip(FlashMode::Slc), FtlConfig::traditional());
        let w = ftl
            .submit(IoRequest::WriteV(vec![(0, vec![7u8; 2048])]))
            .unwrap();
        ftl.poll_checked(w).unwrap();
        let r = ftl.submit(IoRequest::ReadV(vec![0])).unwrap();
        ftl.poll_checked(r).unwrap();
        let d = ftl.device_stats();
        assert_eq!(d.vectored_writes, 0, "a one-page vector is not vectored");
        assert_eq!(d.vectored_reads, 0);
    }

    #[test]
    fn in_place_appends_reduce_gc_pressure() {
        // The paper's core claim at device level: the same logical write
        // stream causes fewer erases with IPA than without.
        let l = layout(2048);
        let run = |ipa: bool| -> (u64, u64) {
            let mut ftl = if ipa {
                Ftl::new(chip(FlashMode::PSlc), FtlConfig::ipa_conventional(l))
            } else {
                Ftl::new(chip(FlashMode::PSlc), FtlConfig::traditional())
            };
            let base = page(0xFF, &l);
            for lba in 0..8u64 {
                ftl.write(lba, &base).unwrap();
            }
            // Alternate appended images and full rewrites 2:1.
            for round in 0..120u64 {
                for lba in 0..8u64 {
                    if ipa && round % 3 != 0 {
                        let slot = (round % 3 - 1) as u16;
                        let mut img = vec![0u8; 2048];
                        ftl.read(lba, &mut img).unwrap();
                        let rec = DeltaRecord::new(
                            vec![(40 + round as u16 % 4, 0x00)],
                            vec![0; l.meta_len()],
                            l.scheme,
                        );
                        ipa_core::write_record_into(&mut img, &l, slot, &rec);
                        ftl.write(lba, &img).unwrap();
                    } else {
                        ftl.write(lba, &base).unwrap();
                    }
                }
            }
            let s = ftl.device_stats();
            (s.gc_erases, s.page_invalidations)
        };
        let (erases_trad, inval_trad) = run(false);
        let (erases_ipa, inval_ipa) = run(true);
        assert!(
            inval_ipa < inval_trad / 2,
            "IPA must invalidate far fewer pages ({inval_ipa} vs {inval_trad})"
        );
        assert!(
            erases_ipa < erases_trad,
            "IPA must erase less ({erases_ipa} vs {erases_trad})"
        );
    }
}
