//! The metric registry — every name the benchmark reports, with its unit
//! — and the result documents, written with `ipa_trace::json`.

use ipa_trace::json::JsonValue;

use crate::layers::Metrics;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: measured with tracing off, reported by every
/// workload, never zero. `BENCHMARK.json` carries their direction and
/// regression bound.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s"),
    def("wall_us_per_op", "us"),
    def("peak_rss_mb", "MiB"),
    def("sim_tps", "1/s"),
    def("sim_write_amp", "ratio"),
];

/// Per-layer metrics, prefixed by the crate they observe. Reported by the
/// traced run, never gated. A metric a workload's stack has no layer for
/// reads 0 there.
pub const PER_LAYER: [MetricDef; 83] = [
    // 1. Simulated counters per measured op.
    def("storage.pool_hit_rate", "ratio"),
    def("storage.evictions_per_op", "1/op"),
    def("storage.evict_in_place_share", "ratio"),
    def("storage.wal_sim_us_per_op", "us/op"),
    def("storage.wal_pages_per_op", "1/op"),
    def("ftl.host_reads_per_op", "1/op"),
    def("ftl.host_writes_per_op", "1/op"),
    def("ftl.host_deltas_per_op", "1/op"),
    def("ftl.in_place_share", "ratio"),
    def("ftl.gc_migrations_per_op", "1/op"),
    def("ftl.gc_erases_per_op", "1/op"),
    def("ftl.bytes_written_per_op", "B/op"),
    def("maint.steps_per_op", "1/op"),
    def("maint.bg_erase_share", "ratio"),
    def("maint.deferred_busy_per_op", "1/op"),
    def("controller.cmds_per_op", "1/op"),
    def("controller.queue_wait_us_per_cmd", "us"),
    def("controller.bus_busy_share", "ratio"),
    def("controller.die_util_max", "ratio"),
    def("controller.chan_util_max", "ratio"),
    def("controller.max_queue_depth", "count"),
    def("controller.reads_promoted_per_op", "1/op"),
    def("controller.erase_suspends_per_op", "1/op"),
    def("controller.read_p50_us", "us"),
    def("controller.read_p999_us", "us"),
    def("controller.wear_spread", "count"),
    def("flash.page_reads_per_op", "1/op"),
    def("flash.programs_per_op", "1/op"),
    def("flash.reprograms_per_op", "1/op"),
    def("flash.erases_per_op", "1/op"),
    def("flash.busy_us_per_op", "us/op"),
    def("flash.wall_ns_per_cmd", "ns"),
    def("workloads.sim_lat_p50_us", "us"),
    def("workloads.sim_lat_p99_us", "us"),
    def("workloads.sim_lat_p999_us", "us"),
    def("workloads.sim_migrations_per_host_write", "ratio"),
    def("workloads.sim_erases_per_host_write", "ratio"),
    def("workloads.sim_peak_block_erases", "count"),
    // 2. The host-wall probe ladder, median ns per call.
    def("core.delta_encode_ns", "ns"),
    def("core.delta_apply_ns", "ns"),
    def("core.tracker_verdict_ns", "ns"),
    def("flash.read_page_ns", "ns"),
    def("flash.program_page_ns", "ns"),
    def("flash.append_region_ns", "ns"),
    def("flash.erase_block_ns", "ns"),
    def("flash.ecc_encode_8k_ns", "ns"),
    def("flash.ecc_check_8k_ns", "ns"),
    def("controller.read_page_ns", "ns"),
    def("controller.program_page_ns", "ns"),
    def("controller.append_region_ns", "ns"),
    def("controller.stats_ns", "ns"),
    def("ftl.oob_encode_ns", "ns"),
    def("ftl.oob_verify_ns", "ns"),
    def("ftl.read_ns", "ns"),
    def("ftl.write_ns", "ns"),
    def("ftl.write_delta_ns", "ns"),
    def("ftl.sharded_read_ns", "ns"),
    def("ftl.sharded_write_ns", "ns"),
    def("ftl.sharded_readv8_ns", "ns"),
    def("maint.write_ns", "ns"),
    def("heat.write_ns", "ns"),
    def("storage.pool_hit_ns", "ns"),
    def("storage.pool_miss_ns", "ns"),
    def("storage.index_lookup_ns", "ns"),
    def("storage.update_commit_ns", "ns"),
    def("storage.wal_flush_ns", "ns"),
    def("trace.ring_record_ns", "ns"),
    def("trace.hist_record_ns", "ns"),
    // 3. The traced run.
    def("workloads.load_s", "s"),
    def("workloads.warmup_s", "s"),
    def("workloads.tx_wall_p50_us", "us"),
    def("workloads.tx_wall_p99_us", "us"),
    def("workloads.tx_wall_p999_us", "us"),
    def("trace.events_per_op", "1/op"),
    def("trace.dropped", "count"),
    def("trace.overhead_pct", "%"),
    def("workloads.churn_t1_wall_us_per_op", "us"),
    def("workloads.churn_thread_speedup", "x"),
    // 1 × 2: where the ladder says the measured wall time goes.
    def("flash.wall_share_est", "%"),
    def("ftl.wall_share_est", "%"),
    def("controller.wall_share_est", "%"),
    def("storage.wall_share_est", "%"),
    def("unattributed.wall_share_est", "%"),
];

/// The `metrics` object of a result line: every registry entry exactly
/// once, in registry order. A registry name the run did not set reads 0
/// (a layer the workload's stack does not have); a name set outside the
/// registry is a bug.
pub fn metrics_json(defs: &[MetricDef], values: &Metrics) -> JsonValue {
    for (name, _) in values.iter() {
        assert!(
            defs.iter().any(|d| d.name == name),
            "{name} is not in the registry"
        );
    }
    JsonValue::Obj(
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    JsonValue::Obj(vec![
                        (
                            "value".into(),
                            JsonValue::Num(values.get(d.name).unwrap_or(0.0)),
                        ),
                        ("unit".into(), JsonValue::Str(d.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line the contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: JsonValue) -> JsonValue {
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Num(attempted as f64)),
        ("failed".into(), JsonValue::Num(failed as f64)),
        ("metrics".into(), metrics),
    ])
}

/// Print `name value unit` rows, one per registry entry.
pub fn print_metrics(defs: &[MetricDef], values: &Metrics) {
    for d in defs {
        println!(
            "  {:<42} {:>16.4} {}",
            d.name,
            values.get(d.name).unwrap_or(0.0),
            d.unit
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn registry_names_and_units_meet_the_contract() {
        let all: Vec<MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (i, d) in all.iter().enumerate() {
            assert!(well_formed(d.name, "_.-", 64), "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                well_formed(d.unit, "_/%.-", 16),
                "{} unit {}",
                d.name,
                d.unit
            );
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} listed twice",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn metrics_object_lists_every_entry_once_and_fills_absent_layers() {
        let mut m = Metrics::default();
        m.set("sim_tps", 12.5);
        let json = metrics_json(&END_TO_END, &m);
        let JsonValue::Obj(members) = &json else {
            panic!("object expected")
        };
        assert_eq!(members.len(), END_TO_END.len());
        assert_eq!(
            json.get("sim_tps").and_then(|v| v.get("value")),
            Some(&JsonValue::Num(12.5))
        );
        assert_eq!(
            json.get("setup_s").and_then(|v| v.get("unit")),
            Some(&JsonValue::Str("s".into()))
        );
        let line = result_line(true, 10, 0, json).render();
        let back = ipa_trace::json::parse(&line).unwrap();
        assert_eq!(back.get("attempted").and_then(JsonValue::as_u64), Some(10));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn a_stray_metric_name_is_a_bug() {
        let mut m = Metrics::default();
        m.set("nonsense", 1.0);
        metrics_json(&END_TO_END, &m);
    }
}
