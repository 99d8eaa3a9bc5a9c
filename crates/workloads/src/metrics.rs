//! The concrete [`MetricsSnapshot`] builder: walk a live
//! [`StorageEngine`] and report every layer's stats struct — pool,
//! device, WAL device, raw flash, controller, maintenance — as one
//! serializable tree, with the derived gauges (hit rate, WAL backlog,
//! utilization, wear spread, per-die busy fractions) computed in place.
//!
//! The shape lives in `ipa_trace::metrics`; this module owns the
//! *vocabulary* — section and metric names — so the driver's
//! [`crate::RunResult`], the fleet soak and the sweep binary all emit
//! snapshots that window (`delta_since`) and serialize identically.

use ipa_heat::HeatDevice;
use ipa_storage::StorageEngine;
use ipa_trace::{MetricSection, MetricsSnapshot};

use crate::driver::Driver;

/// Snapshot every metric the engine's stack exposes right now.
///
/// Sections (present when the layer exists):
///
/// * `engine` — commit/abort counters and the device/log time horizons.
/// * `pool` — buffer-pool traffic plus the derived `hit_rate` gauge.
/// * `device` — FTL counters for the data device.
/// * `wal_device` — FTL counters for the log device, plus the derived
///   `backlog_stripes` gauge (stripes written minus reclaimed — the
///   log-space pressure the truncation path works against).
/// * `flash` — raw chip counters summed over the data device's dies.
/// * `controller` — scheduler counters plus utilization/wear/depth
///   gauges and one `die{N}_busy` / `chan{N}_busy` fraction per die and
///   channel.
/// * `maint` — background-reclaim counters, when the device runs the
///   idle-die scheduler.
/// * `heat` — heat-placement counters (tier traffic, destages, wear
///   migrations) plus tier occupancy gauges, when the device is an
///   [`ipa_heat::HeatDevice`].
pub fn engine_metrics(engine: &StorageEngine) -> MetricsSnapshot {
    let stats = engine.stats();
    let mut snap = MetricsSnapshot::new(stats.elapsed_ns);

    snap.push(
        MetricSection::new("engine")
            .counter("committed", stats.committed)
            .counter("aborted", stats.aborted)
            .counter("elapsed_ns", stats.elapsed_ns)
            .counter("wal_elapsed_ns", stats.wal_elapsed_ns)
            .gauge("max_erase_count", stats.max_erase_count as u64),
    );

    let p = stats.pool;
    let fetches = p.hits + p.misses;
    snap.push(
        MetricSection::new("pool")
            .counter("hits", p.hits)
            .counter("misses", p.misses)
            .counter("evictions", p.evictions)
            .counter("evict_in_place", p.evict_in_place)
            .counter("evict_out_of_place", p.evict_out_of_place)
            .counter("evict_clean", p.evict_clean)
            .counter("in_place_fallbacks", p.in_place_fallbacks)
            .counter("readahead_issued", p.readahead_issued)
            .counter("readahead_hits", p.readahead_hits)
            .gauge_f64(
                "hit_rate",
                if fetches == 0 {
                    0.0
                } else {
                    p.hits as f64 / fetches as f64
                },
            ),
    );

    snap.push(device_section("device", &stats.device));
    if let Some(w) = &stats.wal_device {
        snap.push(device_section("wal_device", w).gauge(
            "backlog_stripes",
            w.wal_stripe_writes.saturating_sub(w.wal_stripes_reclaimed),
        ));
    }

    let f = stats.flash;
    snap.push(
        MetricSection::new("flash")
            .counter("page_reads", f.page_reads)
            .counter("page_programs", f.page_programs)
            .counter("page_reprograms", f.page_reprograms)
            .counter("cache_programs", f.cache_programs)
            .counter("block_erases", f.block_erases)
            .counter("multi_plane_programs", f.multi_plane_programs)
            .counter("multi_plane_reads", f.multi_plane_reads)
            .counter("multi_plane_erases", f.multi_plane_erases)
            .counter("bytes_read", f.bytes_read)
            .counter("bytes_written", f.bytes_written)
            .counter("disturb_bits_injected", f.disturb_bits_injected)
            .counter("busy_ns", f.busy_ns)
            .counter("erase_suspends", f.erase_suspends),
    );

    if let Some(ctrl) = Driver::controller_of(engine) {
        let c = ctrl.stats();
        let mut sec = MetricSection::new("controller")
            .counter("commands", c.commands)
            .counter("reads", c.reads)
            .counter("posted_reads", c.posted_reads)
            .counter("programs", c.programs)
            .counter("erases", c.erases)
            .counter("queue_wait_ns", c.queue_wait_ns)
            .counter("bus_busy_ns", c.bus_busy_ns)
            .counter("sync_points", c.sync_points)
            .counter("backpressure_stalls", c.backpressure_stalls)
            .counter("backpressure_wait_ns", c.backpressure_wait_ns)
            .counter("reads_promoted", c.reads_promoted)
            .counter("erase_suspends", c.erase_suspends)
            .gauge("max_queue_depth", c.max_queue_depth as u64)
            .gauge("max_die_erases", c.max_die_erases)
            .gauge("min_die_erases", c.min_die_erases)
            .gauge("wear_spread", c.wear_spread())
            .gauge("die_util_ppm_max", c.die_util_ppm_max)
            .gauge("chan_util_ppm_max", c.chan_util_ppm_max);
        for die in 0..ctrl.dies() {
            sec = sec.gauge_f64(format!("die{die}_busy"), ctrl.die_busy_fraction(die));
        }
        for (die, &erases) in c.die_erases.iter().enumerate() {
            sec = sec.gauge(format!("die{die}_erases"), erases);
        }
        for ch in 0..ctrl.config().channels {
            sec = sec.gauge_f64(format!("chan{ch}_busy"), ctrl.channel_busy_fraction(ch));
        }
        snap.push(sec);
    }

    if let Some(m) = Driver::maint_stats_of(engine) {
        snap.push(
            MetricSection::new("maint")
                .counter("polls", m.polls)
                .counter("steps", m.steps)
                .counter("migrations", m.migrations)
                .counter("erases", m.erases)
                .counter("range_migrations", m.range_migrations)
                .counter("destages", m.destages)
                .counter("deferred_busy", m.deferred_busy)
                .counter("erase_suspends_seen", m.erase_suspends_seen)
                .gauge("max_wear_spread", m.max_wear_spread),
        );
    }

    if let Some(hd) = engine.device_as::<HeatDevice>() {
        let h = hd.heat_stats();
        let tf = hd.tier_flash_stats();
        snap.push(
            MetricSection::new("heat")
                .counter("writes_seen", h.writes_seen)
                .counter("deltas_seen", h.deltas_seen)
                .counter("hot_hits", h.hot_hits)
                .counter("hot_spills", h.hot_spills)
                .counter("tier_read_hits", h.tier_read_hits)
                .counter("tier_rmw_deltas", h.tier_rmw_deltas)
                .counter("destaged_pages", h.destaged_pages)
                .counter("range_migrations", h.range_migrations)
                .counter("migrations_skipped", h.migrations_skipped)
                .counter("decays", h.decays)
                .counter("tier_page_programs", tf.page_programs)
                .counter("tier_block_erases", tf.block_erases)
                .gauge("tier_resident", h.tier_resident)
                .gauge("tier_slots", h.tier_slots)
                .gauge_f64("tier_occupancy", h.tier_occupancy()),
        );
    }

    snap
}

fn device_section(name: &str, d: &ipa_ftl::DeviceStats) -> MetricSection {
    MetricSection::new(name)
        .counter("host_reads", d.host_reads)
        .counter("host_writes", d.host_writes)
        .counter("host_write_deltas", d.host_write_deltas)
        .counter("in_place_appends", d.in_place_appends)
        .counter("out_of_place_writes", d.out_of_place_writes)
        .counter("multi_plane_pairs", d.multi_plane_pairs)
        .counter("page_invalidations", d.page_invalidations)
        .counter("gc_page_migrations", d.gc_page_migrations)
        .counter("gc_erases", d.gc_erases)
        .counter("background_gc_erases", d.background_gc_erases)
        .counter("bytes_host_written", d.bytes_host_written)
        .counter("bytes_host_read", d.bytes_host_read)
        .counter("ecc_corrected_bits", d.ecc_corrected_bits)
        .counter("uncorrectable_reads", d.uncorrectable_reads)
        .counter("wear_leveling_moves", d.wear_leveling_moves)
        .counter("vectored_reads", d.vectored_reads)
        .counter("vectored_writes", d.vectored_writes)
        .counter("vectored_deltas", d.vectored_deltas)
        .counter("readahead_hits", d.readahead_hits)
        .counter("wal_stripe_writes", d.wal_stripe_writes)
        .counter("wal_stripes_reclaimed", d.wal_stripes_reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, MaintMode, StackSpec, Topology};
    use crate::spec::{build, WorkloadKind};
    use ipa_flash::FlashMode;
    use ipa_ftl::WriteStrategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snapshot_covers_every_layer_of_a_maintained_engine() {
        let cfg = DriverConfig::quick().with_wal_stripe(2, 1);
        let mut bench = build(WorkloadKind::TpcB, 1, 8 * 1024);
        let mut engine = StackSpec::paper(WriteStrategy::IpaNative, FlashMode::PSlc)
            .striped(
                Topology::new(2, 2, ipa_ftl::StripePolicy::RoundRobin),
                MaintMode::background(Some(8)),
            )
            .build(bench.as_mut(), 8 * 1024, &cfg)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        bench.load(&mut engine, &mut rng).unwrap();
        for _ in 0..200 {
            bench.run_tx(&mut engine, &mut rng).unwrap();
        }
        engine.flush_all().unwrap();

        let snap = engine_metrics(&engine);
        for sec in [
            "engine",
            "pool",
            "device",
            "wal_device",
            "flash",
            "controller",
            "maint",
        ] {
            assert!(snap.section(sec).is_some(), "missing section {sec}");
        }
        assert!(snap.get("engine.committed").unwrap().as_u64() >= 200);
        let hit_rate = snap.get("pool.hit_rate").unwrap().as_f64();
        assert!((0.0..=1.0).contains(&hit_rate));
        assert!(snap.get("device.host_writes").unwrap().as_u64() > 0);
        assert!(snap.get("flash.page_programs").unwrap().as_u64() > 0);
        assert!(snap.get("controller.commands").unwrap().as_u64() > 0);
        // 2×2 topology: one busy-fraction gauge per die and channel,
        // each a sane fraction.
        for name in ["die0_busy", "die1_busy", "die2_busy", "die3_busy"] {
            let v = snap.get(&format!("controller.{name}")).unwrap().as_f64();
            assert!((0.0..=1.0).contains(&v), "{name}={v}");
        }
        assert!(snap.get("controller.chan1_busy").is_some());
        assert!(snap.get("controller.chan2_busy").is_none());

        // Round-trips through JSON and windows sanely.
        let text = snap.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
        let d = snap.delta_since(&snap);
        assert_eq!(d.get("controller.commands").unwrap().as_u64(), 0);
        assert_eq!(
            d.get("controller.max_queue_depth").unwrap().as_u64(),
            snap.get("controller.max_queue_depth").unwrap().as_u64(),
            "gauges carry through a self-delta"
        );
    }

    #[test]
    fn wal_backlog_gauge_tracks_unreclaimed_stripes() {
        let snap = {
            let cfg = DriverConfig::quick().with_wal_stripe(2, 1);
            let mut bench = build(WorkloadKind::TpcB, 1, 8 * 1024);
            let mut engine = StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
                .striped(Topology::single(), MaintMode::inline())
                .build(bench.as_mut(), 8 * 1024, &cfg)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            bench.load(&mut engine, &mut rng).unwrap();
            for _ in 0..100 {
                bench.run_tx(&mut engine, &mut rng).unwrap();
            }
            engine.flush_all().unwrap();
            engine_metrics(&engine)
        };
        let writes = snap.get("wal_device.wal_stripe_writes").unwrap().as_u64();
        let reclaimed = snap
            .get("wal_device.wal_stripes_reclaimed")
            .unwrap()
            .as_u64();
        let backlog = snap.get("wal_device.backlog_stripes").unwrap().as_u64();
        assert_eq!(backlog, writes.saturating_sub(reclaimed));
        assert!(writes > 0, "striped WAL must have written stripes");
    }
}
