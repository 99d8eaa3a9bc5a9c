//! The `parallel_sweep` CSV schema: one column table that generates the
//! header and every row, so the two cannot disagree and nothing addresses
//! a cell by position. Column names and order are the perf trajectory's
//! contract — old CSVs stay comparable as long as this table only grows
//! at the end.

use ipa_workloads::{ControllerStats, RunResult, StackSpec, Topology, WorkloadKind};

/// How [`Row::run`] fills a column from a driver run (`None`: a run has
/// nothing to say about it).
type Fill = Option<fn(&RunResult) -> f64>;

/// The CSV schema: column name, decimals, and the figure of a driver run
/// that fills the column. The header and every row are generated from
/// this one table, so they cannot disagree; names and order are the perf
/// trajectory's contract. A cell nobody sets prints zero at its column's
/// precision (text columns: empty).
#[rustfmt::skip]
pub const COLUMNS: [(&str, usize, Fill); 42] = [
    ("section",               0, None),
    ("topology",              0, None),
    ("planes",                0, None),
    ("gc_mode",               0, None),
    ("queue_cap",             0, None),
    ("workload",              0, None),
    ("tps",                   1, Some(|r| r.tps)),
    ("speedup",               3, None),
    ("p50_ns",                0, Some(|r| r.latency.p50_ns as f64)),
    ("p99_ns",                0, Some(|r| r.latency.p99_ns as f64)),
    ("p999_ns",               0, Some(|r| r.latency.p999_ns as f64)),
    ("max_ns",                0, Some(|r| r.latency.max_ns as f64)),
    ("mean_wait_ns",          1, Some(|r| ctrl(r, |c| c.mean_wait_ns()))),
    ("depth_max",             0, Some(|r| ctrl(r, |c| c.max_queue_depth as f64))),
    ("ncq_stalls",            0, Some(|r| ctrl(r, |c| c.backpressure_stalls as f64))),
    ("ncq_stall_ns",          0, Some(|r| ctrl(r, |c| c.backpressure_wait_ns as f64))),
    ("gc_erases",             0, Some(|r| r.device.gc_erases as f64)),
    ("bg_gc_erases",          0, Some(|r| r.device.background_gc_erases as f64)),
    ("bg_steps",              0, Some(|r| r.maint.map_or(0, |m| m.steps) as f64)),
    ("busy_skips",            0, Some(|r| r.maint.map_or(0, |m| m.deferred_busy) as f64)),
    ("wear_spread",           0, Some(|r| ctrl(r, |c| c.wear_spread() as f64))),
    ("in_place_fraction",     4, Some(|r| r.device.in_place_fraction())),
    ("programs_per_sec",      1, Some(|r| r.programs_per_sec())),
    ("multi_plane_pairs",     0, Some(|r| r.device.multi_plane_pairs as f64)),
    ("vectored_reads",        0, Some(|r| r.device.vectored_reads as f64)),
    ("vectored_writes",       0, Some(|r| r.device.vectored_writes as f64)),
    ("readahead_hits",        0, Some(|r| r.device.readahead_hits as f64)),
    ("wal_stripe_writes",     0, Some(|r| r.wal_device.map_or(0, |w| w.wal_stripe_writes) as f64)),
    ("p999_read_ns",          0, Some(|r| r.read_latency.p999_ns as f64)),
    ("reads_promoted",        0, Some(|r| ctrl(r, |c| c.reads_promoted as f64))),
    ("erase_suspends",        0, Some(|r| ctrl(r, |c| c.erase_suspends as f64))),
    ("tenants",               0, None),
    ("kills",                 0, None),
    ("recoveries",            0, None),
    ("wal_stripes_reclaimed", 0, None),
    ("die_util_max",          4, Some(|r| ctrl(r, |c| c.die_util_max()))),
    ("chan_util_max",         4, Some(|r| ctrl(r, |c| c.chan_util_max()))),
    ("threads",               0, None),
    ("wall_ops_per_sec",      1, None),
    ("hot_hits",              0, Some(|r| r.heat.map_or(0, |h| h.hot_hits) as f64)),
    ("migrations",            0, Some(|r| r.heat.map_or(0, |h| h.range_migrations) as f64)),
    ("destages",              0, Some(|r| r.heat.map_or(0, |h| h.destaged_pages) as f64)),
];

/// A figure of the run's scheduler counters (zero on a controller-less
/// device).
fn ctrl(r: &RunResult, get: fn(&ControllerStats) -> f64) -> f64 {
    r.controller.as_ref().map_or(0.0, get)
}

/// One CSV row: a cell per [`COLUMNS`] entry, addressed by column name.
#[derive(Debug, Clone)]
pub struct Row(Vec<String>);

impl Row {
    pub fn header() -> String {
        COLUMNS.map(|c| c.0).join(",")
    }

    fn col(name: &str) -> usize {
        let at = COLUMNS.iter().position(|c| c.0 == name);
        at.unwrap_or_else(|| panic!("no CSV column named {name}"))
    }

    /// A row of zeros for `section`: `workload` on `topo`, one thread,
    /// inline GC, no queue cap.
    pub fn new(section: &str, topo: &Topology, workload: &str) -> Row {
        let zero = |c: &(&str, usize, Fill)| format!("{:.*}", c.1, 0.0);
        Row(COLUMNS.iter().map(zero).collect())
            .set("section", section)
            .set("topology", topo)
            .set("planes", topo.planes)
            .set("gc_mode", "inline")
            .set("queue_cap", "")
            .set("workload", workload)
            .num("speedup", 1.0)
            .set("threads", 1)
    }

    pub fn set(mut self, name: &str, value: impl ToString) -> Row {
        self.0[Self::col(name)] = value.to_string();
        self
    }

    /// Set a fractional cell at its column's precision.
    pub fn num(mut self, name: &str, value: f64) -> Row {
        let i = Self::col(name);
        self.0[i] = format!("{value:.*}", COLUMNS[i].1);
        self
    }

    pub fn get(&self, name: &str) -> &str {
        &self.0[Self::col(name)]
    }

    /// A numeric cell back as a number — bars are judged on the very
    /// figures the CSV reports.
    pub fn value(&self, name: &str) -> f64 {
        let cell = self.get(name);
        let parsed = cell.parse();
        parsed.unwrap_or_else(|_| panic!("{name} = {cell:?} is not numeric"))
    }

    pub fn line(&self) -> String {
        self.0.join(",")
    }

    /// The row of one driver run of `kind` on `spec` (a striped stack).
    pub fn run(section: &str, spec: &StackSpec, kind: WorkloadKind, r: &RunResult) -> Row {
        let topo = spec.topology.expect("sweep stacks are striped");
        let gc_mode = match (spec.maint.background_gc, spec.maint.qos) {
            (true, true) => "background+qos",
            (true, false) => "background",
            (false, true) => "inline+qos",
            (false, false) => "inline",
        };
        let cap = spec.maint.queue_cap.map(|c| c.to_string());
        let row = Row::new(section, &topo, kind.name())
            .set("gc_mode", gc_mode)
            .set("queue_cap", cap.unwrap_or_default());
        let figures = COLUMNS.iter().filter_map(|c| Some((c.0, c.2?(r))));
        figures.fold(row, |row, (name, value)| row.num(name, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_ftl::StripePolicy;

    #[test]
    fn header_and_rows_come_from_the_one_column_table() {
        let header = Row::header();
        assert_eq!(header.split(',').count(), 42);
        assert!(header.starts_with("section,topology,planes,gc_mode,queue_cap,workload,tps,"));
        assert!(header.ends_with(",threads,wall_ops_per_sec,hot_hits,migrations,destages"));
        let topo = Topology::new(4, 2, StripePolicy::RoundRobin);
        let row = Row::new("scan", &topo, "TPC-B")
            .num("tps", 1234.567)
            .num("speedup", 2.0)
            .set("threads", 2);
        assert_eq!(row.line().split(',').count(), 42, "one cell per column");
        // Cells resolve by name, fractional ones at their column's
        // precision; a cell nobody set keeps its zero.
        assert_eq!(row.get("tps"), "1234.6");
        assert_eq!(row.value("speedup"), 2.0);
        assert_eq!(row.get("speedup"), "2.000");
        assert_eq!(row.get("threads"), "2");
        assert_eq!(row.get("topology"), "4ch×2d/rr");
        assert_eq!(row.get("hot_hits"), "0");
        assert_eq!(row.get("die_util_max"), "0.0000");
        assert_eq!(row.get("queue_cap"), "", "text column: empty, not zero");
    }
}
