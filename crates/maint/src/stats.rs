//! Counters the maintenance subsystem keeps about itself.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What the scheduler did and what it observed while doing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintStats {
    /// Scheduler polls (one per host command on a maintained device).
    pub polls: u64,
    /// Background reclaim steps dispatched (migrations + erases).
    pub steps: u64,
    /// Valid pages copied by background steps.
    pub migrations: u64,
    /// Victim blocks erased by background steps (jobs completed).
    pub erases: u64,
    /// Dispatch opportunities skipped because the die was busy with host
    /// work — the idle gate doing its job.
    pub deferred_busy: u64,
    /// Peak cross-die wear spread (max−min die erase count) observed at
    /// poll time.
    pub max_wear_spread: u64,
    /// Controller-reported erase suspensions observed at poll time — how
    /// often host reads interrupted a reclaim erase (QoS devices only;
    /// stays 0 under FIFO scheduling).
    #[serde(default)]
    pub erase_suspends_seen: u64,
    /// Shifter steps that reported `ShiftStep::Migrated`: hot/cold LBA
    /// stripe swaps attempted (0 under `NoShift`).
    #[serde(default)]
    pub range_migrations: u64,
    /// Shifter steps that reported `ShiftStep::Destaged`: hot-tier pages
    /// handed back to the stripe (0 under `NoShift`).
    #[serde(default)]
    pub destages: u64,
}

impl MaintStats {
    /// Mean background steps per poll — how much reclaim the scheduler
    /// managed to hide in idle gaps.
    pub fn steps_per_poll(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.steps as f64 / self.polls as f64
        }
    }
}

impl fmt::Display for MaintStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "polls={} steps={} (mig={} erase={} shift={} destage={}) busy_skips={} \
             wear_spread_max={} suspends={}",
            self.polls,
            self.steps,
            self.migrations,
            self.erases,
            self.range_migrations,
            self.destages,
            self.deferred_busy,
            self.max_wear_spread,
            self.erase_suspends_seen
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_per_poll_handles_zero() {
        assert_eq!(MaintStats::default().steps_per_poll(), 0.0);
        let s = MaintStats {
            polls: 4,
            steps: 6,
            ..Default::default()
        };
        assert!((s.steps_per_poll() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let s = MaintStats::default().to_string();
        assert!(s.contains("polls=0"));
        assert!(s.contains("wear_spread_max=0"));
    }
}
