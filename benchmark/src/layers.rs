//! Per-layer metrics: simulated counters normalised per measured op, the
//! traced run's host-wall figures, and the estimate that ties the probe
//! ladder back to a workload's `wall_us_per_op`.

use std::collections::BTreeMap;

use ipa_ftl::DeviceStats;

use crate::probes::Probe;
use crate::stats::exact_percentile;
use crate::timed::Span;
use crate::workloads::{ChurnRun, EngineRun};

/// Metric name → value. A name set twice is a bug in this file.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated write amplification over the window: flash page writes the
/// device made per host write it was asked for (`1 + Table 1's migrations
/// per host write`). Never below 1, so it is defined on a device that
/// never collected garbage.
pub fn write_amp(d: &DeviceStats) -> f64 {
    1.0 + d.migrations_per_host_write()
}

fn ftl_counters(m: &mut Metrics, d: &DeviceStats, ops: f64) {
    m.set("ftl.host_reads_per_op", d.host_reads as f64 / ops);
    m.set("ftl.host_writes_per_op", d.host_writes as f64 / ops);
    m.set("ftl.host_deltas_per_op", d.host_write_deltas as f64 / ops);
    m.set("ftl.in_place_share", d.in_place_fraction());
    m.set(
        "ftl.gc_migrations_per_op",
        d.gc_page_migrations as f64 / ops,
    );
    m.set("ftl.gc_erases_per_op", d.gc_erases as f64 / ops);
    m.set(
        "ftl.bytes_written_per_op",
        d.bytes_host_written as f64 / ops,
    );
    m.set(
        "maint.bg_erase_share",
        ratio(d.background_gc_erases as f64, d.gc_erases as f64),
    );
}

/// Source 1 for an engine workload: simulated counters of the measured
/// window per measured transaction. `device`/`flash`/`wal_device` are
/// windowed by the driver; pool, controller and maintenance counters are
/// windowed here against the [`crate::timed::WindowStart`] snapshot.
/// `window_s` is the run's best-of-passes host time for the window. Gauges (`die_util_max`, `chan_util_max`, `max_queue_depth`,
/// `wear_spread`) describe the whole run.
pub fn engine_counters(m: &mut Metrics, run: &EngineRun, window_s: f64) {
    let r = &run.result;
    let start = run
        .timed
        .at_window_start
        .as_ref()
        .expect("a finished run opened its window");
    let ops = run.ops as f64;

    let (p0, p1) = (&start.engine.pool, &r.pool);
    let hits = (p1.hits - p0.hits) as f64;
    let misses = (p1.misses - p0.misses) as f64;
    let in_place = (p1.evict_in_place - p0.evict_in_place) as f64;
    let out_of_place = (p1.evict_out_of_place - p0.evict_out_of_place) as f64;
    m.set("storage.pool_hit_rate", ratio(hits, hits + misses));
    m.set(
        "storage.evictions_per_op",
        (p1.evictions - p0.evictions) as f64 / ops,
    );
    m.set(
        "storage.evict_in_place_share",
        ratio(in_place, in_place + out_of_place),
    );
    let wal_ns_end = r
        .metrics
        .get("engine.wal_elapsed_ns")
        .map(|v| v.as_u64())
        .unwrap_or(0);
    m.set(
        "storage.wal_sim_us_per_op",
        wal_ns_end.saturating_sub(start.engine.wal_elapsed_ns) as f64 / 1e3 / ops,
    );
    m.set(
        "storage.wal_pages_per_op",
        r.wal_device.map(|w| w.host_writes).unwrap_or(0) as f64 / ops,
    );

    ftl_counters(m, &r.device, ops);

    let maint = r.maint.zip(start.maint);
    m.set(
        "maint.steps_per_op",
        maint.map(|(e, s)| e.steps - s.steps).unwrap_or(0) as f64 / ops,
    );
    m.set(
        "maint.deferred_busy_per_op",
        maint
            .map(|(e, s)| e.deferred_busy - s.deferred_busy)
            .unwrap_or(0) as f64
            / ops,
    );

    // All zero on the single-chip stacks: there is no controller there.
    let whole = r.controller.clone().unwrap_or_default();
    let c = match &start.controller {
        Some(s) => whole.delta_since(s),
        None => whole,
    };
    let channels = 4.0;
    m.set("controller.cmds_per_op", c.commands as f64 / ops);
    m.set("controller.queue_wait_us_per_cmd", c.mean_wait_ns() / 1e3);
    m.set(
        "controller.bus_busy_share",
        ratio(c.bus_busy_ns as f64, r.elapsed_ns as f64 * channels),
    );
    m.set("controller.die_util_max", c.die_util_max());
    m.set("controller.chan_util_max", c.chan_util_max());
    m.set("controller.max_queue_depth", c.max_queue_depth as f64);
    m.set(
        "controller.reads_promoted_per_op",
        c.reads_promoted as f64 / ops,
    );
    m.set(
        "controller.erase_suspends_per_op",
        c.erase_suspends as f64 / ops,
    );
    m.set("controller.read_p50_us", r.read_latency.p50_ns as f64 / 1e3);
    m.set(
        "controller.read_p999_us",
        r.read_latency.p999_ns as f64 / 1e3,
    );
    m.set("controller.wear_spread", c.wear_spread() as f64);

    let f = &r.flash;
    let commands = f.page_reads + f.total_programs() + f.block_erases;
    m.set("flash.page_reads_per_op", f.page_reads as f64 / ops);
    m.set("flash.programs_per_op", f.page_programs as f64 / ops);
    m.set("flash.reprograms_per_op", f.page_reprograms as f64 / ops);
    m.set("flash.erases_per_op", f.block_erases as f64 / ops);
    m.set("flash.busy_us_per_op", f.busy_ns as f64 / 1e3 / ops);
    m.set(
        "flash.wall_ns_per_cmd",
        ratio(window_s * 1e9, commands as f64),
    );

    m.set("workloads.sim_lat_p50_us", r.latency.p50_ns as f64 / 1e3);
    m.set("workloads.sim_lat_p99_us", r.latency.p99_ns as f64 / 1e3);
    m.set("workloads.sim_lat_p999_us", r.latency.p999_ns as f64 / 1e3);
    m.set(
        "workloads.sim_migrations_per_host_write",
        r.migrations_per_host_write(),
    );
    m.set(
        "workloads.sim_erases_per_host_write",
        r.erases_per_host_write(),
    );
    m.set("workloads.sim_peak_block_erases", r.max_erase_count as f64);
}

/// Source 1 for the churn workload: `run_threaded` hands back only the
/// device's `DeviceStats` (whole run — its device is built for the run),
/// so the `ftl.*` counters are real and every layer it does not expose
/// reads 0.
pub fn churn_counters(m: &mut Metrics, run: &ChurnRun) {
    let first = &run.t2[0];
    let ops = first.ops as f64;
    ftl_counters(m, &first.device, ops);
    m.set(
        "workloads.sim_migrations_per_host_write",
        first.device.migrations_per_host_write(),
    );
    m.set(
        "workloads.sim_erases_per_host_write",
        first.device.erases_per_host_write(),
    );
    let (t1, t2) = (
        ChurnRun::best_wall_ns(&run.t1) as f64,
        ChurnRun::best_wall_ns(&run.t2) as f64,
    );
    m.set("workloads.churn_t1_wall_us_per_op", t1 / 1e3 / ops);
    m.set("workloads.churn_thread_speedup", ratio(t1, t2));
}

/// Source 3 for an engine workload: what the [`crate::timed::Timed`]
/// adapter and the controller's ring recorded during the traced run, and
/// the traced run's cost over the untraced one (both best-of-passes).
pub fn traced_metrics(
    m: &mut Metrics,
    traced: &EngineRun,
    traced_wall_us_per_op: f64,
    untraced_wall_us_per_op: f64,
) {
    m.set("workloads.load_s", traced.load_s);
    m.set("workloads.warmup_s", traced.warmup_s);
    let mut durs: Vec<u64> = traced
        .timed
        .measured_spans()
        .iter()
        .map(|s| s.dur_ns)
        .collect();
    durs.sort_unstable();
    for (name, q) in [
        ("workloads.tx_wall_p50_us", 0.50),
        ("workloads.tx_wall_p99_us", 0.99),
        ("workloads.tx_wall_p999_us", 0.999),
    ] {
        let (ns, _) = exact_percentile(&durs, q).expect("a traced run has spans");
        m.set(name, ns as f64 / 1e3);
    }
    let r = &traced.result;
    let events = r.trace.len() as u64 + r.trace_dropped;
    m.set("trace.events_per_op", events as f64 / traced.ops as f64);
    m.set("trace.dropped", r.trace_dropped as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_wall_us_per_op / untraced_wall_us_per_op - 1.0),
    );
}

/// The slowest measured transactions of a traced run, slowest first.
pub fn slowest_spans(spans: &[Span], n: usize) -> Vec<(usize, Span)> {
    let mut indexed: Vec<(usize, Span)> = spans.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.dur_ns.cmp(&a.1.dur_ns).then(a.0.cmp(&b.0)));
    indexed.truncate(n);
    indexed
}

/// Per-op call counts the share estimate multiplies the ladder by.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallsPerOp {
    pub flash_reads: f64,
    pub flash_programs: f64,
    pub flash_appends: f64,
    pub flash_erases: f64,
    pub host_reads: f64,
    pub host_writes: f64,
    pub host_deltas: f64,
    pub pool_hits: f64,
    pub pool_misses: f64,
    pub commits: f64,
    /// Does a controller (and the sharded FTL over it) sit on the path?
    pub scheduled: bool,
}

impl CallsPerOp {
    pub fn of_engine(m: &Metrics, run: &EngineRun) -> Self {
        let get = |n: &str| m.get(n).expect("counters come first");
        let start = run
            .timed
            .at_window_start
            .as_ref()
            .expect("a finished run opened its window");
        let ops = run.ops as f64;
        let (p0, p1) = (&start.engine.pool, &run.result.pool);
        let committed_end = run
            .result
            .metrics
            .get("engine.committed")
            .map(|v| v.as_u64())
            .unwrap_or(0);
        CallsPerOp {
            flash_reads: get("flash.page_reads_per_op"),
            flash_programs: get("flash.programs_per_op"),
            flash_appends: get("flash.reprograms_per_op"),
            flash_erases: get("flash.erases_per_op"),
            host_reads: get("ftl.host_reads_per_op"),
            host_writes: get("ftl.host_writes_per_op"),
            host_deltas: get("ftl.host_deltas_per_op"),
            pool_hits: (p1.hits - p0.hits) as f64 / ops,
            pool_misses: (p1.misses - p0.misses) as f64 / ops,
            commits: committed_end.saturating_sub(start.engine.committed) as f64 / ops,
            scheduled: run.result.controller.is_some(),
        }
    }
}

/// `*.wall_share_est`: calls per op × the ladder's self cost per call, as
/// a percentage of the workload's measured `wall_us_per_op`. The ladder
/// runs on 8 KiB pSLC pages with an idle device around each call, so the
/// estimate is coarse by construction; the unattributed remainder is
/// reported so that the gap is visible instead of hidden. The five
/// figures sum to 100.
pub fn wall_share_est(m: &mut Metrics, calls: &CallsPerOp, probes: &[Probe], wall_us_per_op: f64) {
    let ns = |name: &str| {
        probes
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("probe {name} missing from the ladder"))
            .ns
    };
    let self_cost = |rung: f64, below: f64| (rung - below).max(0.0);
    let (read, program, append) = (
        ns("flash.read_page_ns"),
        ns("flash.program_page_ns"),
        ns("flash.append_region_ns"),
    );

    let flash = calls.flash_reads * read
        + calls.flash_programs * program
        + calls.flash_appends * append
        + calls.flash_erases * ns("flash.erase_block_ns");

    let controller = if calls.scheduled {
        calls.flash_reads * self_cost(ns("controller.read_page_ns"), read)
            + calls.flash_programs * self_cost(ns("controller.program_page_ns"), program)
            + calls.flash_appends * self_cost(ns("controller.append_region_ns"), append)
    } else {
        0.0
    };

    // Single-chip FTL self cost per host command, plus — behind a
    // controller — what sharding adds on top of the FTL and controller
    // self costs already counted.
    let ftl_read = self_cost(ns("ftl.read_ns"), read);
    let ftl_write = self_cost(ns("ftl.write_ns"), program);
    let ftl_delta = self_cost(ns("ftl.write_delta_ns"), append);
    let mut ftl =
        calls.host_reads * ftl_read + calls.host_writes * ftl_write + calls.host_deltas * ftl_delta;
    if calls.scheduled {
        let ctrl_read = self_cost(ns("controller.read_page_ns"), read);
        let ctrl_program = self_cost(ns("controller.program_page_ns"), program);
        ftl += calls.host_reads
            * self_cost(ns("ftl.sharded_read_ns"), ns("ftl.read_ns") + ctrl_read)
            + (calls.host_writes + calls.host_deltas)
                * self_cost(
                    ns("ftl.sharded_write_ns"),
                    ns("ftl.write_ns") + ctrl_program,
                );
    }

    let hit = ns("storage.pool_hit_ns");
    let storage = calls.pool_hits * hit
        + calls.pool_misses * self_cost(ns("storage.pool_miss_ns"), ns("ftl.read_ns"))
        + calls.commits * self_cost(ns("storage.update_commit_ns"), hit);

    let total_ns = wall_us_per_op * 1e3;
    let pct = |layer_ns: f64| 100.0 * layer_ns / total_ns;
    m.set("flash.wall_share_est", pct(flash));
    m.set("ftl.wall_share_est", pct(ftl));
    m.set("controller.wall_share_est", pct(controller));
    m.set("storage.wall_share_est", pct(storage));
    m.set(
        "unattributed.wall_share_est",
        100.0 - pct(flash) - pct(ftl) - pct(controller) - pct(storage),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(values: &[(&'static str, f64)]) -> Vec<Probe> {
        values
            .iter()
            .map(|&(name, ns)| Probe {
                name,
                ns,
                samples: 1,
            })
            .collect()
    }

    fn toy_ladder() -> Vec<Probe> {
        ladder(&[
            ("flash.read_page_ns", 100.0),
            ("flash.program_page_ns", 1_000.0),
            ("flash.append_region_ns", 500.0),
            ("flash.erase_block_ns", 10_000.0),
            ("controller.read_page_ns", 150.0),
            ("controller.program_page_ns", 1_100.0),
            ("controller.append_region_ns", 450.0), // below its lower rung
            ("ftl.read_ns", 400.0),
            ("ftl.write_ns", 1_600.0),
            ("ftl.write_delta_ns", 700.0),
            ("ftl.sharded_read_ns", 500.0),
            ("ftl.sharded_write_ns", 1_900.0),
            ("storage.pool_hit_ns", 20.0),
            ("storage.pool_miss_ns", 900.0),
            ("storage.update_commit_ns", 320.0),
        ])
    }

    #[test]
    fn shares_multiply_calls_by_self_cost_and_sum_to_100() {
        let calls = CallsPerOp {
            flash_reads: 2.0,
            flash_programs: 1.0,
            flash_appends: 1.0,
            flash_erases: 0.01,
            host_reads: 2.0,
            host_writes: 0.5,
            host_deltas: 1.0,
            pool_hits: 10.0,
            pool_misses: 2.0,
            commits: 1.0,
            scheduled: false,
        };
        let mut m = Metrics::default();
        wall_share_est(&mut m, &calls, &toy_ladder(), 10.0);
        // flash: 2·100 + 1000 + 500 + 0.01·10000 = 1800 ns of 10 000.
        assert!((m.get("flash.wall_share_est").unwrap() - 18.0).abs() < 1e-9);
        // ftl: 2·300 + 0.5·600 + 1·200 = 1100 ns.
        assert!((m.get("ftl.wall_share_est").unwrap() - 11.0).abs() < 1e-9);
        assert_eq!(m.get("controller.wall_share_est"), Some(0.0));
        // storage: 10·20 + 2·(900−400) + 1·(320−20) = 1500 ns.
        assert!((m.get("storage.wall_share_est").unwrap() - 15.0).abs() < 1e-9);
        assert!((m.get("unattributed.wall_share_est").unwrap() - 56.0).abs() < 1e-9);
        let sum: f64 = m.iter().map(|(_, v)| v).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scheduled_stacks_add_controller_and_sharding_self_costs() {
        let calls = CallsPerOp {
            flash_reads: 1.0,
            flash_programs: 1.0,
            flash_appends: 1.0,
            host_reads: 1.0,
            host_writes: 1.0,
            scheduled: true,
            ..CallsPerOp::default()
        };
        let mut m = Metrics::default();
        wall_share_est(&mut m, &calls, &toy_ladder(), 10.0);
        // controller: 50 + 100 + max(0, 450 − 500) = 150 ns.
        assert!((m.get("controller.wall_share_est").unwrap() - 1.5).abs() < 1e-9);
        // ftl: 300 + 600, plus sharding: (500 − 400 − 50) + (1900 − 1600 − 100).
        assert!((m.get("ftl.wall_share_est").unwrap() - 11.5).abs() < 1e-9);
        // An over-attributed ladder shows as a negative remainder, not a lie.
        let mut tight = Metrics::default();
        wall_share_est(&mut tight, &calls, &toy_ladder(), 1.0);
        assert!(tight.get("unattributed.wall_share_est").unwrap() < 0.0);
        let sum: f64 = tight.iter().map(|(_, v)| v).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn write_amp_is_one_without_gc() {
        let idle = DeviceStats {
            host_writes: 500,
            ..DeviceStats::default()
        };
        assert_eq!(write_amp(&idle), 1.0);
        let busy = DeviceStats {
            host_writes: 300,
            host_write_deltas: 100,
            gc_page_migrations: 100,
            ..DeviceStats::default()
        };
        assert_eq!(write_amp(&busy), 1.25);
        assert_eq!(write_amp(&DeviceStats::default()), 1.0);
    }

    #[test]
    fn slowest_spans_rank_by_duration() {
        let spans: Vec<Span> = [5u64, 9, 1, 9]
            .iter()
            .enumerate()
            .map(|(i, &d)| Span {
                start_ns: i as u64,
                dur_ns: d,
            })
            .collect();
        let top: Vec<usize> = slowest_spans(&spans, 3).iter().map(|(i, _)| *i).collect();
        assert_eq!(top, vec![1, 3, 0]);
    }
}
