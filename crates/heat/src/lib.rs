//! # `ipa-heat` — heat-based data placement and active wear shifting
//!
//! The IPA device defers erases; *where* the deferred erase pressure
//! lands is still set by the workload. This crate closes that loop with
//! three cooperating pieces:
//!
//! * [`LbaHeatTracker`] — bounded, decaying per-LBA-range write/delta
//!   frequency counters, fed from the device's write and `write_delta`
//!   paths. Memory is one saturating counter per range, never per LBA.
//! * [`HotTier`] — a reserved SLC plane/die set (its own chip, the
//!   dedicated-controller pattern the striped WAL uses) absorbing
//!   hot-range writes as a write-back cache, with a background destage
//!   path returning images to the main stripe via cached-program
//!   batches.
//! * the wear shifter (`shifter.rs`) — the heat state's
//!   [`ipa_maint::WearShifter`] face, stepped by the idle-die
//!   maintenance scheduler: tier flushes when the high-water mark trips,
//!   and hot/cold stripe-slot swaps
//!   ([`ipa_ftl::ShardedFtl::swap_stripe`]) that move hot LBA ranges off
//!   dies accumulating erase deltas fastest.
//!
//! Tracker, tier, counters and the shift job in flight are one value with
//! one owner: the scheduler inside the wrapped
//! [`ipa_maint::MaintainedFtl`] holds it as its shifter, and
//! [`HeatDevice`] borrows it from there around (never during) inner
//! commands. There is no lock in this crate.
//!
//! [`HeatDevice`] assembles the stack around a
//! [`ipa_maint::MaintainedFtl`] and speaks the same
//! [`ipa_ftl::NativeFlashDevice`] contract, so the storage engine mounts
//! it like any other device. As the top device crate this is also where
//! the whole tower is built: [`build_stack`] is the single function that
//! nests stripe, scheduler and heat layer. Thresholds and tier sizing are
//! the fields of [`DefaultPolicy`]; decay interval and job batch sizes are
//! constants beside it.

pub mod device;
pub mod policy;
mod shifter;
pub mod stack;
pub mod stats;
pub mod tier;
pub mod tracker;

pub use device::HeatDevice;
pub use policy::DefaultPolicy;
pub use stack::build_stack;
pub use stats::HeatStats;
pub use tier::HotTier;
pub use tracker::LbaHeatTracker;

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_controller::ControllerConfig;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
    use ipa_ftl::{BlockDevice, FtlConfig, ShardedFtl, StripePolicy};
    use ipa_maint::{MaintConfig, MaintainedFtl};

    fn heat_device(channels: u32, dpc: u32, policy: DefaultPolicy) -> HeatDevice {
        let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none());
        let striped = ShardedFtl::new(
            ControllerConfig::new(channels, dpc, chip),
            FtlConfig::traditional().with_background_gc(),
            StripePolicy::RoundRobin,
        );
        HeatDevice::new(
            MaintainedFtl::new(striped, MaintConfig::default()),
            Box::new(policy),
        )
    }

    #[test]
    fn hot_writes_land_in_the_tier_and_read_back() {
        let mut dev = heat_device(2, 1, DefaultPolicy::default().with_hot_threshold(3));
        let mut buf = vec![0u8; 2048];
        // Hammer a small range hot, scatter some cold writes.
        for round in 0..8u64 {
            for lba in 0..4u64 {
                dev.write(lba, &vec![(round * 4 + lba) as u8; 2048])
                    .unwrap();
            }
            dev.write(40 + round, &vec![0xEEu8; 2048]).unwrap();
        }
        let h = dev.heat_stats();
        assert!(h.hot_hits > 0, "hot range must be absorbed: {h}");
        assert!(h.writes_seen >= 40);
        assert!(h.tier_resident > 0);
        // Reads see the tier's (freshest) images.
        for lba in 0..4u64 {
            dev.read(lba, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == (28 + lba) as u8),
                "lba {lba} stale"
            );
        }
        assert!(dev.heat_stats().tier_read_hits >= 4);
        // Cold LBAs still live on the stripe.
        dev.read(40, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xEE));
        dev.check_invariants();
    }

    #[test]
    fn full_tier_destages_in_the_background() {
        // A tiny tier and everything hot: the high-water mark must trip
        // and the scheduler must drain images back to the stripe.
        let policy = DefaultPolicy::default()
            .with_hot_threshold(1)
            .with_tier_fraction(0.02)
            .with_destage_high_water(0.5);
        let mut dev = heat_device(2, 1, policy);
        let span = 32u64;
        let mut buf = vec![0u8; 2048];
        for round in 0..40u64 {
            for lba in 0..span {
                dev.write(lba, &vec![((round * span + lba) % 251) as u8; 2048])
                    .unwrap();
            }
            // Reads advance the host clock so dies go idle for the
            // scheduler (live traffic does this naturally).
            for lba in 0..span {
                dev.read(lba, &mut buf).unwrap();
            }
        }
        let h = dev.heat_stats();
        let m = dev.maint_stats();
        assert!(h.destaged_pages > 0, "tier never destaged: {h} / {m}");
        assert_eq!(m.destages, h.destaged_pages, "scheduler and heat agree");
        assert!(
            h.tier_resident <= h.tier_slots,
            "tier can never overfill: {h}"
        );
        // Every LBA still reads the latest round, resident or destaged.
        for lba in 0..span {
            dev.read(lba, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == ((39 * span + lba) % 251) as u8),
                "lba {lba} corrupted"
            );
        }
        dev.check_invariants();
    }

    #[test]
    fn skewed_stream_triggers_wear_shifting_swaps() {
        // Aggressive thresholds so the erase-delta gate trips inside a
        // short test; a round-robin stripe + hot half-span concentrates
        // erases on the hot dies.
        let policy = DefaultPolicy::default()
            .with_hot_threshold(u32::MAX) // tier off: isolate migration
            .with_migrate_wear_delta(2)
            .with_range_pages(2);
        let mut dev = heat_device(2, 2, policy);
        let mut buf = vec![0u8; 2048];
        for i in 0..6000u64 {
            // Heavy skew: LBAs 0/1 (dies 0/1 under round-robin on the
            // 2×2 stripe) take almost all rewrites; the cold stream
            // stays on LBAs ≡ 2,3 (mod 4), i.e. dies 2/3.
            let lba = if i % 16 < 14 {
                i % 2
            } else {
                2 + (i % 8) * 4 + (i % 2)
            };
            dev.write(lba, &vec![(i % 251) as u8; 2048]).unwrap();
            if i % 4 == 0 {
                dev.read(lba, &mut buf).unwrap();
            }
        }
        let h = dev.heat_stats();
        let m = dev.maint_stats();
        assert!(
            h.range_migrations > 0,
            "skew must trigger stripe swaps: {h} / {m}"
        );
        assert_eq!(
            m.range_migrations,
            h.range_migrations + h.migrations_skipped
        );
        dev.check_invariants();
        // Data integrity across all swaps.
        for lba in 0..2u64 {
            let last = (0..6000u64).rev().find(|i| i % 16 < 14 && i % 2 == lba);
            if let Some(i) = last {
                dev.read(lba, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == (i % 251) as u8), "lba {lba}");
            }
        }
    }

    #[test]
    fn delta_appends_fold_into_resident_images() {
        use ipa_core::NmScheme;
        use ipa_ftl::{NativeFlashDevice, Region, RegionTable};

        // An IPA-formatted region so write_delta is legal, behind the
        // heat device.
        let layout = ipa_core::PageLayout::new(2048, 24, 8, NmScheme::new(2, 4));
        let mut regions = RegionTable::new();
        regions.add(Region {
            name: "t".into(),
            lbas: 0..64,
            layout: Some(layout),
        });
        let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::PSlc)
            .with_disturb(DisturbRates::none());
        let striped = ShardedFtl::with_regions(
            ControllerConfig::new(2, 1, chip),
            FtlConfig::traditional().with_background_gc(),
            StripePolicy::RoundRobin,
            regions,
        );
        let mut dev = HeatDevice::new(
            MaintainedFtl::new(striped, MaintConfig::default()),
            Box::new(DefaultPolicy::default().with_hot_threshold(2)),
        );

        // Make LBA 5 hot and tier-resident with a valid IPA image.
        let mut img = vec![0xFFu8; 2048];
        img[..layout.delta_area_offset()].fill(0x33);
        for _ in 0..4 {
            dev.write(5, &img).unwrap();
        }
        assert!(dev.heat_stats().hot_hits > 0);

        let rs = layout.record_size();
        let delta = vec![0x21u8; rs];
        dev.write_delta(5, layout.delta_area_offset(), &delta)
            .unwrap();
        assert_eq!(dev.heat_stats().tier_rmw_deltas, 1);
        let mut buf = vec![0u8; 2048];
        dev.read(5, &mut buf).unwrap();
        assert_eq!(
            &buf[layout.delta_area_offset()..layout.delta_area_offset() + rs],
            &delta[..]
        );
        dev.check_invariants();
    }

    #[test]
    fn tier_tokens_complete_at_submission_and_spilled_tokens_wait_on_the_stripe() {
        use ipa_ftl::{IoQueue, IoRequest};

        let mut dev = heat_device(2, 1, DefaultPolicy::default().with_hot_threshold(3));
        for round in 0..8u8 {
            dev.write(0, &vec![round; 2048]).unwrap();
        }
        dev.write(40, &vec![0xEEu8; 2048]).unwrap();
        dev.write(41, &vec![0xEEu8; 2048]).unwrap();
        // (scheduler polls, the host's clock)
        let observed = |dev: &HeatDevice| (dev.maint_stats().polls, dev.submission_clock_ns());

        // Serviced by the tier: redeeming the token reaches nothing.
        let token = dev.submit(IoRequest::ReadV(vec![0])).unwrap();
        assert!(!token.is_posted(), "a resident page is a tier hit");
        let before = observed(&dev);
        assert_eq!(dev.poll_checked(token).unwrap().data, vec![vec![7u8; 2048]]);
        assert_eq!(observed(&dev), before, "an immediate poll moves nothing");

        // Spilled to the stripe: the poll is the wait.
        let token = dev.submit(IoRequest::ReadV(vec![40, 41])).unwrap();
        assert!(token.is_posted(), "cold pages are the stripe's");
        let (polls, _) = observed(&dev);
        let done = dev.poll_checked(token).unwrap();
        assert!(done.done_ns >= done.submitted_ns);
        let (polls_after, clock) = observed(&dev);
        assert_eq!(polls_after, polls + 1, "the scheduler polls at completion");
        assert!(clock >= done.done_ns, "the poll waited");
    }
}
