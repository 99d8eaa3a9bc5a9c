//! The SLC hot tier: a small dedicated SLC device absorbing hot-range
//! writes as a write-back cache in front of the main stripe.

use std::collections::BTreeMap;

use ipa_core::PageLayout;
use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, FlashStats, Geometry};
use ipa_ftl::{BlockDevice, Ftl, FtlConfig, FtlError, Lba, Result};

/// A reserved SLC plane/die set (modelled as its own [`FlashChip`], the
/// dedicated-controller pattern the striped WAL uses) holding full-page
/// images of hot host LBAs.
///
/// The tier is a write-back cache keyed by host LBA: a hit rewrites the
/// image in the tier (out of place, on fast SLC), a miss allocates a
/// free tier slot, and the destage path hands the image back to the
/// main stripe via its cached-program batch writer. Delta appends to a
/// resident page are folded into the cached image as read-modify-writes
/// — each lands as a fresh SLC program, so the NOP budget that gates
/// in-place appends on the main device never binds here.
///
/// The host↔tier map is a `BTreeMap` so candidate enumeration (and with
/// it destage order) is deterministic.
pub struct HotTier {
    ftl: Ftl<FlashChip>,
    /// host LBA → tier LBA of the resident image.
    map: BTreeMap<Lba, Lba>,
    /// Tier LBAs not currently holding an image (LIFO).
    free: Vec<Lba>,
    slots: u64,
}

impl HotTier {
    /// A tier of at least `slots_wanted` page slots of `page_size`
    /// bytes. SLC mode, its own clock; disturb is off — the tier is a
    /// small, furiously rewritten region that real firmware would scrub
    /// continuously.
    pub fn new(page_size: usize, slots_wanted: u64) -> Self {
        let slots_wanted = slots_wanted.max(4);
        let ppb = 32u32;
        // Size raw blocks so the exported capacity clears the ask even
        // after over-provisioning, with slack for GC churn.
        let blocks = ((slots_wanted * 2).div_ceil(ppb as u64) as u32).max(4) + 4;
        let chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(blocks, ppb, page_size, 128), FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        );
        let ftl = Ftl::new(chip, FtlConfig::traditional());
        let slots = ftl.capacity_pages().min(slots_wanted);
        let free: Vec<Lba> = (0..slots).rev().collect();
        HotTier {
            ftl,
            map: BTreeMap::new(),
            free,
            slots,
        }
    }

    /// Total page slots.
    #[inline]
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Host pages resident right now.
    #[inline]
    pub fn resident(&self) -> u64 {
        self.map.len() as u64
    }

    /// Fraction of slots occupied.
    pub fn occupancy(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.resident() as f64 / self.slots as f64
        }
    }

    /// Is `host` resident?
    #[inline]
    pub fn contains(&self, host: Lba) -> bool {
        self.map.contains_key(&host)
    }

    /// Resident host LBAs in ascending order — the destage candidate
    /// pool.
    pub fn resident_hosts(&self) -> Vec<Lba> {
        self.map.keys().copied().collect()
    }

    /// Absorb a full-page write. `Ok(true)` if the tier took it (hit on
    /// a resident image, or a free slot was available); `Ok(false)` if
    /// the tier is full and `host` is not resident — the caller spills
    /// to the main stripe.
    pub fn write(&mut self, host: Lba, data: &[u8]) -> Result<bool> {
        if let Some(&slot) = self.map.get(&host) {
            self.ftl.write(slot, data)?;
            return Ok(true);
        }
        let Some(slot) = self.free.pop() else {
            return Ok(false);
        };
        if let Err(e) = self.ftl.write(slot, data) {
            self.free.push(slot);
            return Err(e);
        }
        self.map.insert(host, slot);
        Ok(true)
    }

    /// Read a resident image into `buf`. `Ok(false)` on a miss.
    pub fn read(&mut self, host: Lba, buf: &mut [u8]) -> Result<bool> {
        match self.map.get(&host) {
            Some(&slot) => {
                self.ftl.read(slot, buf)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Fold a delta append into a resident image (read-modify-write).
    /// `Ok(false)` on a miss. The offset/length rules of the host-side
    /// `write_delta` are enforced against `layout` so the tier accepts
    /// exactly the appends the main device would.
    pub fn apply_delta(
        &mut self,
        host: Lba,
        offset: usize,
        delta: &[u8],
        layout: Option<PageLayout>,
    ) -> Result<bool> {
        let Some(&slot) = self.map.get(&host) else {
            return Ok(false);
        };
        let layout = layout.ok_or(FtlError::LayoutRequired { lba: host })?;
        layout
            .append_slots(offset, delta.len())
            .map_err(|reason| FtlError::BadWriteDelta { lba: host, reason })?;
        let mut img = vec![0u8; self.ftl.page_size()];
        self.ftl.read(slot, &mut img)?;
        // Same cell semantics as the physical append: programming can
        // only clear bits, so the stored slot becomes `old & new`.
        for (i, &b) in delta.iter().enumerate() {
            img[offset + i] &= b;
        }
        self.ftl.write(slot, &img)?;
        Ok(true)
    }

    /// Read a resident image without evicting it (the destage path
    /// copies first, drops the entry only after the main-stripe write
    /// lands). `None` on a miss.
    pub fn peek_image(&mut self, host: Lba) -> Result<Option<Vec<u8>>> {
        let Some(&slot) = self.map.get(&host) else {
            return Ok(None);
        };
        let mut img = vec![0u8; self.ftl.page_size()];
        self.ftl.read(slot, &mut img)?;
        Ok(Some(img))
    }

    /// Drop `host`'s entry and recycle its slot. No-op on a miss.
    pub fn remove(&mut self, host: Lba) -> Result<()> {
        if let Some(slot) = self.map.remove(&host) {
            self.ftl.trim(slot)?;
            self.free.push(slot);
        }
        Ok(())
    }

    /// The tier device's clock.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.ftl.elapsed_ns()
    }

    /// Raw counters of the tier's chip.
    pub fn flash_stats(&self) -> FlashStats {
        self.ftl.flash_stats()
    }

    /// Host-level counters of the tier's internal FTL (its GC and
    /// per-op traffic — reported under the heat section, never folded
    /// into the main device's host counters).
    pub fn device_stats(&self) -> ipa_ftl::DeviceStats {
        self.ftl.device_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::NmScheme;

    fn layout(page: usize) -> PageLayout {
        PageLayout::new(page, 24, 8, NmScheme::new(2, 4))
    }

    #[test]
    fn write_read_round_trip_and_occupancy() {
        let mut t = HotTier::new(2048, 8);
        assert!(t.slots() >= 8);
        assert_eq!(t.resident(), 0);
        let img = vec![0xABu8; 2048];
        assert!(t.write(42, &img).unwrap());
        assert!(t.contains(42));
        let mut buf = vec![0u8; 2048];
        assert!(t.read(42, &mut buf).unwrap());
        assert_eq!(buf, img);
        assert!(!t.read(43, &mut buf).unwrap(), "miss reports false");
        assert!(t.occupancy() > 0.0);
        // Rewrite hits the same slot (no second slot consumed).
        let img2 = vec![0xCDu8; 2048];
        assert!(t.write(42, &img2).unwrap());
        assert_eq!(t.resident(), 1);
        t.read(42, &mut buf).unwrap();
        assert_eq!(buf, img2);
    }

    #[test]
    fn full_tier_refuses_new_hosts_but_keeps_hits() {
        let mut t = HotTier::new(2048, 4);
        let slots = t.slots();
        let img = vec![0x11u8; 2048];
        for h in 0..slots {
            assert!(t.write(h, &img).unwrap());
        }
        assert!(!t.write(slots + 7, &img).unwrap(), "full tier spills");
        assert!(t.write(0, &img).unwrap(), "resident rewrite still lands");
        t.remove(0).unwrap();
        assert!(t.write(slots + 7, &img).unwrap(), "freed slot is reused");
    }

    #[test]
    fn apply_delta_folds_like_the_physical_append() {
        let l = layout(2048);
        let mut t = HotTier::new(2048, 8);
        // An IPA image: erased (0xFF) delta area after the body.
        let mut img = vec![0xFFu8; 2048];
        img[..l.delta_area_offset()].fill(0x5A);
        t.write(9, &img).unwrap();

        let rs = l.record_size();
        let delta = vec![0x0Fu8; rs];
        assert!(t
            .apply_delta(9, l.delta_area_offset(), &delta, Some(l))
            .unwrap());
        let mut buf = vec![0u8; 2048];
        t.read(9, &mut buf).unwrap();
        assert_eq!(
            &buf[l.delta_area_offset()..l.delta_area_offset() + rs],
            &delta[..]
        );
        assert_eq!(buf[0], 0x5A, "body untouched");

        // Misses and malformed appends are distinguished.
        assert!(!t
            .apply_delta(10, l.delta_area_offset(), &delta, Some(l))
            .unwrap());
        assert!(matches!(
            t.apply_delta(9, 1, &delta, Some(l)),
            Err(FtlError::BadWriteDelta { .. })
        ));
        assert!(matches!(
            t.apply_delta(9, l.delta_area_offset(), &delta, None),
            Err(FtlError::LayoutRequired { .. })
        ));
    }

    #[test]
    fn peek_then_remove_is_the_destage_walk() {
        let mut t = HotTier::new(2048, 8);
        let img = vec![0x77u8; 2048];
        t.write(3, &img).unwrap();
        t.write(1, &img).unwrap();
        assert_eq!(t.resident_hosts(), vec![1, 3], "deterministic order");
        let got = t.peek_image(3).unwrap().unwrap();
        assert_eq!(got, img);
        assert!(t.contains(3), "peek does not evict");
        t.remove(3).unwrap();
        assert!(!t.contains(3));
        assert!(t.peek_image(3).unwrap().is_none());
    }
}
