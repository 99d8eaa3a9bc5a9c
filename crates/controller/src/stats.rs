//! Scheduler-level counters: where commands waited and how deep the
//! per-die queues ran.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregate scheduler statistics across all channels and dies.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Commands dispatched (reads + programs + appends + erases).
    pub commands: u64,
    /// Synchronous read commands (host blocked until data arrived).
    pub reads: u64,
    /// Subset of `reads` issued in a posted lane (vectored host reads /
    /// read-ahead): the host did not block at issue; the completion time
    /// was surfaced through the queue instead.
    #[serde(default)]
    pub posted_reads: u64,
    /// Posted program/re-program/append commands.
    pub programs: u64,
    /// Posted erase commands.
    pub erases: u64,
    /// Total time commands spent queued before their die/channel was free.
    pub queue_wait_ns: u64,
    /// Total channel-bus occupancy (all channels summed).
    pub bus_busy_ns: u64,
    /// Deepest any single die queue got (posted commands in flight).
    pub max_queue_depth: usize,
    /// Explicit sync points (full clock merges) the host requested.
    pub sync_points: u64,
    /// Host submissions that hit a full NCQ queue and had to wait.
    pub backpressure_stalls: u64,
    /// Total time host clocks spent blocked on full NCQ queues.
    pub backpressure_wait_ns: u64,
    /// Erase count of the most-erased die (controller-level wear view).
    pub max_die_erases: u64,
    /// Erase count of the least-erased die.
    pub min_die_erases: u64,
    /// Total erase count of every die, indexed by die. Unlike the
    /// max/min extrema these are *counters*, so `delta_since` subtracts
    /// them per die — the window view a placement policy needs to see
    /// which die is wearing right now, not just which has worn the most
    /// since power-on.
    #[serde(default)]
    pub die_erases: Vec<u64>,
    /// QoS scheduler: host reads that started earlier than FIFO dispatch
    /// would have allowed (jumped pending posted work, or suspended an
    /// in-flight erase).
    #[serde(default)]
    pub reads_promoted: u64,
    /// QoS scheduler: erase-suspend commands issued so a host read could
    /// cut through an in-flight erase pulse.
    #[serde(default)]
    pub erase_suspends: u64,
    /// Utilization of the busiest die in parts-per-million of elapsed
    /// simulated time (gauge, computed at snapshot time).
    #[serde(default)]
    pub die_util_ppm_max: u64,
    /// Utilization of the busiest channel bus in parts-per-million of
    /// elapsed simulated time (gauge, computed at snapshot time).
    #[serde(default)]
    pub chan_util_ppm_max: u64,
}

impl ControllerStats {
    /// Mean queueing delay per command, nanoseconds.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.commands == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / self.commands as f64
        }
    }

    /// Cross-die wear imbalance: max−min total erase count over all dies.
    /// Zero means perfectly balanced wear; a growing spread says the
    /// stripe (or the GC victim policy) is concentrating erases.
    pub fn wear_spread(&self) -> u64 {
        self.max_die_erases - self.min_die_erases
    }

    /// Counters accumulated since `prev` — the window attribution a
    /// multi-tenant harness needs to charge scheduler activity (queue
    /// waits, NCQ stalls, promotions) to the tenant that ran between two
    /// snapshots. Gauges and whole-device extrema (`max_queue_depth`,
    /// `max_die_erases`/`min_die_erases`, the utilizations) keep their
    /// current values: they describe device state, not flow.
    pub fn delta_since(&self, prev: &ControllerStats) -> ControllerStats {
        ControllerStats {
            commands: self.commands - prev.commands,
            reads: self.reads - prev.reads,
            posted_reads: self.posted_reads - prev.posted_reads,
            programs: self.programs - prev.programs,
            erases: self.erases - prev.erases,
            queue_wait_ns: self.queue_wait_ns - prev.queue_wait_ns,
            bus_busy_ns: self.bus_busy_ns - prev.bus_busy_ns,
            max_queue_depth: self.max_queue_depth,
            sync_points: self.sync_points - prev.sync_points,
            backpressure_stalls: self.backpressure_stalls - prev.backpressure_stalls,
            backpressure_wait_ns: self.backpressure_wait_ns - prev.backpressure_wait_ns,
            max_die_erases: self.max_die_erases,
            min_die_erases: self.min_die_erases,
            die_erases: self
                .die_erases
                .iter()
                .enumerate()
                .map(|(die, &now)| {
                    // A `prev` snapshot from before the vector existed (or
                    // from a smaller device) contributes zero, not underflow.
                    now.saturating_sub(prev.die_erases.get(die).copied().unwrap_or(0))
                })
                .collect(),
            reads_promoted: self.reads_promoted - prev.reads_promoted,
            erase_suspends: self.erase_suspends - prev.erase_suspends,
            die_util_ppm_max: self.die_util_ppm_max,
            chan_util_ppm_max: self.chan_util_ppm_max,
        }
    }

    /// Busiest-die utilization as a fraction of elapsed simulated time.
    pub fn die_util_max(&self) -> f64 {
        self.die_util_ppm_max as f64 / 1e6
    }

    /// Busiest-channel bus utilization as a fraction of elapsed time.
    pub fn chan_util_max(&self) -> f64 {
        self.chan_util_ppm_max as f64 / 1e6
    }
}

impl fmt::Display for ControllerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cmds={} (r={} p={} e={}) wait={:.3}ms bus={:.3}ms depth_max={} syncs={} \
             ncq_stalls={} ncq_wait={:.3}ms wear_spread={} promoted={} suspends={} \
             die_util_max={:.1}% chan_util_max={:.1}%",
            self.commands,
            self.reads,
            self.programs,
            self.erases,
            self.queue_wait_ns as f64 / 1e6,
            self.bus_busy_ns as f64 / 1e6,
            self.max_queue_depth,
            self.sync_points,
            self.backpressure_stalls,
            self.backpressure_wait_ns as f64 / 1e6,
            self.wear_spread(),
            self.reads_promoted,
            self.erase_suspends,
            self.die_util_max() * 100.0,
            self.chan_util_max() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_wait_handles_zero_commands() {
        assert_eq!(ControllerStats::default().mean_wait_ns(), 0.0);
        let s = ControllerStats {
            commands: 4,
            queue_wait_ns: 200,
            ..Default::default()
        };
        assert!((s.mean_wait_ns() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let s = ControllerStats::default().to_string();
        assert!(s.contains("cmds=0"));
        assert!(s.contains("depth_max=0"));
        assert!(s.contains("ncq_stalls=0"));
        assert!(s.contains("wear_spread=0"));
        assert!(s.contains("die_util_max=0.0%"));
        assert!(s.contains("chan_util_max=0.0%"));
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let prev = ControllerStats {
            commands: 10,
            reads: 4,
            queue_wait_ns: 100,
            max_queue_depth: 3,
            max_die_erases: 7,
            min_die_erases: 2,
            ..Default::default()
        };
        let now = ControllerStats {
            commands: 25,
            reads: 9,
            queue_wait_ns: 450,
            max_queue_depth: 5,
            max_die_erases: 9,
            min_die_erases: 3,
            backpressure_stalls: 2,
            ..Default::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.commands, 15);
        assert_eq!(d.reads, 5);
        assert_eq!(d.queue_wait_ns, 350);
        assert_eq!(d.backpressure_stalls, 2);
        assert_eq!(d.max_queue_depth, 5, "gauge keeps the current value");
        assert_eq!(d.wear_spread(), 6, "extrema stay whole-device");
    }

    #[test]
    fn delta_carries_shrinking_gauges_without_underflow() {
        // Regression: gauges can legally *decrease* across a window
        // (utilization fell as the device went quiet). A delta
        // that subtracted them would underflow-saturate into nonsense;
        // the window must simply report the newer point-in-time values.
        let prev = ControllerStats {
            commands: 50,
            posted_reads: 20,
            max_queue_depth: 6,
            die_util_ppm_max: 900_000,
            chan_util_ppm_max: 450_000,
            ..Default::default()
        };
        let now = ControllerStats {
            commands: 80,
            posted_reads: 30,
            max_queue_depth: 6,
            die_util_ppm_max: 300_000, // device went quiet
            chan_util_ppm_max: 100_000,
            ..Default::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.posted_reads, 10, "counters still subtract");
        assert_eq!(d.max_queue_depth, 6);
        assert_eq!(
            d.die_util_ppm_max, 300_000,
            "shrinking gauge carries the newer value, not 300k - 900k"
        );
        assert_eq!(d.chan_util_ppm_max, 100_000);
        assert!((d.die_util_max() - 0.3).abs() < 1e-9);
        assert!((d.chan_util_max() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn delta_subtracts_per_die_erases() {
        // Regression: the window view used to expose only the max/min
        // extrema, so a placement policy could not tell *which* die was
        // wearing inside a window. Per-die erase counts are counters:
        // they subtract elementwise, with a short or missing `prev`
        // vector (older snapshot, smaller device) contributing zero.
        let prev = ControllerStats {
            max_die_erases: 7,
            min_die_erases: 2,
            die_erases: vec![7, 2, 4],
            ..Default::default()
        };
        let now = ControllerStats {
            max_die_erases: 12,
            min_die_erases: 3,
            die_erases: vec![12, 3, 4, 9],
            ..Default::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.die_erases, vec![5, 1, 0, 9]);
        assert_eq!(d.max_die_erases, 12, "extrema stay whole-device gauges");
        // And against a pre-field snapshot (empty vector), the delta is
        // the full current count, not an underflow.
        let old = ControllerStats::default();
        assert_eq!(now.delta_since(&old).die_erases, vec![12, 3, 4, 9]);
    }

    #[test]
    fn wear_spread_is_max_minus_min() {
        let s = ControllerStats {
            max_die_erases: 17,
            min_die_erases: 5,
            ..Default::default()
        };
        assert_eq!(s.wear_spread(), 12);
        assert_eq!(ControllerStats::default().wear_spread(), 0);
    }
}
