//! The idle-die reclaim scheduler.

use ipa_controller::{CmdContext, CommandKind, FlashController, TracePhase};
use ipa_ftl::{GcProgress, Result, ShardedFtl};

use crate::stats::MaintStats;

/// What one [`WearShifter::step`] did — which [`MaintStats`] counter the
/// scheduler ticks for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftStep {
    /// A hot-tier image went back to the stripe: [`MaintStats::destages`].
    Destaged,
    /// A hot/cold stripe swap ran: [`MaintStats::range_migrations`].
    Migrated,
}

/// Heat-placement hook: cross-die background work (wear-shifting stripe
/// swaps, hot-tier flushes) the idle-die scheduler dispatches after
/// per-die GC. The scheduler owns *when* (idle dies, internal context,
/// one step per poll); the shifter owns *what* — which LBAs move where,
/// and the job those moves belong to, which the scheduler never sees.
pub trait WearShifter: Send + 'static {
    /// The dies the next step would occupy — the scheduler's idle gate.
    /// A shifter holding no work proposes some here; `None` while the
    /// device is balanced (nothing to step). `Some` of an empty list is
    /// a step free to run.
    fn next_dies(&mut self, ftl: &ShardedFtl) -> Option<Vec<u32>>;

    /// Run the one bounded step [`WearShifter::next_dies`] just named
    /// (one swap pair, one destaged page).
    fn step(&mut self, ftl: &mut ShardedFtl) -> Result<ShiftStep>;
}

/// The GC-only scheduler's shifter: never has work.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoShift;

impl WearShifter for NoShift {
    fn next_dies(&mut self, _ftl: &ShardedFtl) -> Option<Vec<u32>> {
        None
    }

    fn step(&mut self, _ftl: &mut ShardedFtl) -> Result<ShiftStep> {
        unreachable!("NoShift names no step")
    }
}

/// Dispatches background reclaim steps onto idle dies.
///
/// One `poll` runs after every host command on a maintained device. It
/// asks each shard whether reclaim work is pending (an in-flight
/// [`ipa_ftl::GcJob`], or a free pool below the shard's low-water mark),
/// orders the needy dies by urgency (fewest free blocks first) with the
/// controller's wear view (fewest total erases first) as the
/// deterministic tie-break, and gives each die that is *idle at the
/// current host time* one single-command step. Dies busy with host work
/// are skipped — their reclaim waits for a quieter poll, or for the write
/// path's emergency inline GC if pressure wins. Then the [`WearShifter`]
/// gets one step under the same idle gate.
///
/// The scheduler holds no job state: a half-done GC job lives in its
/// shard, a half-done shift job in the shifter `S` ([`NoShift`] for
/// plain background GC). Two policy values are fixed, not configured.
/// *One step per die per poll*: after a step the die reads busy, so the
/// idle gate itself spreads the rest of a job across later polls instead
/// of stacking a reclaim burst into one die-busy period a host read then
/// waits out in full. *Refill starts at the low-water mark, not above
/// it*: triggering early reclaims blocks while they still hold valid
/// pages, and on GC-light workloads (TATP) that extra copy-back traffic
/// costs more tail latency than the deeper pool buys.
///
/// Note the limit of what dispatch ordering can do: with a fixed LBA
/// stripe, each shard's long-run erase count is set by the workload, so
/// the wear view here is observability (the spread is tracked per poll
/// and reported in [`MaintStats`]) plus priority, not active balancing.
/// Shifting erases between dies needs LBA re-striping — that is the
/// `ipa-heat` crate's job, through the [`WearShifter`] hook.
///
/// Steps run with the die handles of exactly the shards they touch set
/// to [`CmdContext::INTERNAL`] (a GC step's own die; the dies
/// [`WearShifter::next_dies`] names for a shift step): copy-backs and
/// programs occupy die and channel clocks (host commands arriving later
/// on that die queue behind them, exactly like real firmware) but never
/// trip NCQ back-pressure, and other dies' host traffic is unaffected.
///
/// On a QoS controller ([`ipa_controller::ControllerConfig::with_qos`])
/// the reclaim erases this scheduler posts are *suspendable*: a host
/// read landing on the die parks the erase pulse, completes, and lets
/// the erase resume (bounded by
/// [`ipa_flash::DeviceConfig::erase_resume_limit`]). The scheduler needs
/// no cooperation for this — posted internal erases sit in the same
/// die queue the QoS slot search walks — but it observes the suspensions
/// in [`MaintStats::erase_suspends_seen`].
pub struct MaintenanceScheduler<S = NoShift> {
    stats: MaintStats,
    /// The controller's erase-command count when the wear spread was last
    /// computed; `u64::MAX` before the first poll. The spread can only
    /// change when something erased, so a poll recomputes it only then.
    spread_at_erases: u64,
    /// The installed shifter and, inside it, whatever job it holds.
    pub shifter: S,
}

impl<S: WearShifter> MaintenanceScheduler<S> {
    pub fn new(shifter: S) -> Self {
        MaintenanceScheduler {
            stats: MaintStats::default(),
            spread_at_erases: u64::MAX,
            shifter,
        }
    }

    #[inline]
    pub fn stats(&self) -> MaintStats {
        self.stats
    }

    /// The same scheduler (counters kept) dispatching for `shifter`
    /// instead; the old shifter and whatever job it held are dropped.
    pub fn with_shifter<T: WearShifter>(self, shifter: T) -> MaintenanceScheduler<T> {
        MaintenanceScheduler {
            stats: self.stats,
            spread_at_erases: self.spread_at_erases,
            shifter,
        }
    }

    /// One scheduling round over all shards (see the type docs). The
    /// poll owns the stripe exclusively, so it reaches each shard without
    /// a lock ([`ShardedFtl::shard_mut`]).
    pub fn poll(&mut self, ftl: &mut ShardedFtl) -> Result<()> {
        self.stats.polls += 1;

        // Snapshot the needy dies with their urgency and wear keys.
        let mut pending: Vec<(u32 /* free */, u64 /* wear */, u32 /* die */)> = Vec::new();
        for die in 0..ftl.dies() {
            let shard = ftl.shard_mut(die);
            if shard.gc_pending(shard.gc_low_water()) {
                let free = shard.free_block_count();
                pending.push((free, ftl.controller().die_erase_count(die), die));
            }
        }
        pending.sort_unstable();

        for (_, _, die) in pending {
            let ctrl = ftl.controller();
            if !ctrl.die_idle(die) {
                self.stats.deferred_busy += 1;
                continue;
            }
            // Mark the dispatch decision on the die's trace track (no-op
            // without a tracer): the copy-backs/erases that follow carry
            // the `internal` origin and attribute to this instant.
            ctrl.trace_instant(die, CommandKind::ReclaimStep, TracePhase::Dispatched);
            self.gc_step(ftl, die)?;
        }

        self.shift_step(ftl)?;

        self.observe_wear(ftl.controller());
        Ok(())
    }

    /// Fold the controller's wear view into the stats. This runs after
    /// every host command, so it reads two counters rather than taking a
    /// full [`FlashController::stats`] snapshot, and walks the dies only
    /// when an erase — the scheduler's own or the write path's inline GC —
    /// has happened since the last walk.
    fn observe_wear(&mut self, ctrl: &FlashController) {
        let (erases, erase_suspends) = ctrl.erase_counters();
        self.stats.erase_suspends_seen = erase_suspends;
        if erases != self.spread_at_erases {
            self.spread_at_erases = erases;
            let wear = (0..ctrl.dies()).map(|die| ctrl.die_erase_count(die));
            let (min, max) = wear.fold((u64::MAX, 0), |(lo, hi), e| (lo.min(e), hi.max(e)));
            self.stats.max_wear_spread = self.stats.max_wear_spread.max(max.saturating_sub(min));
        }
    }

    /// Heat-placement dispatch: one step of the shifter's work, run only
    /// if every die it touches is idle at the current host time —
    /// migrations yield to host traffic the same way GC does.
    fn shift_step(&mut self, ftl: &mut ShardedFtl) -> Result<()> {
        let Some(dies) = self.shifter.next_dies(ftl) else {
            return Ok(());
        };
        let ctrl = ftl.controller();
        if dies.iter().any(|&d| !ctrl.die_idle(d)) {
            self.stats.deferred_busy += 1;
            return Ok(());
        }
        if let Some(&die) = dies.first() {
            ctrl.trace_instant(die, CommandKind::MigrateStep, TracePhase::Dispatched);
        }
        set_context(ftl, &dies, CmdContext::INTERNAL);
        let step = self.shifter.step(ftl);
        set_context(ftl, &dies, CmdContext::default());
        match step? {
            ShiftStep::Destaged => self.stats.destages += 1,
            ShiftStep::Migrated => self.stats.range_migrations += 1,
        }
        self.stats.steps += 1;
        Ok(())
    }

    /// One reclaim step on one shard, issued as a firmware-internal
    /// command on that shard's die only.
    fn gc_step(&mut self, ftl: &mut ShardedFtl, die: u32) -> Result<()> {
        let shard = ftl.shard_mut(die);
        shard.chip_mut().set_context(CmdContext::INTERNAL);
        let low_water = shard.gc_low_water();
        let progress = shard.background_gc_step(low_water);
        shard.chip_mut().set_context(CmdContext::default());
        match progress? {
            GcProgress::Idle => return Ok(()),
            GcProgress::Migrated => self.stats.migrations += 1,
            GcProgress::Erased => self.stats.erases += 1,
        }
        self.stats.steps += 1;
        Ok(())
    }
}

/// Set the command context of the die handles behind `dies`' shards.
fn set_context(ftl: &mut ShardedFtl, dies: &[u32], ctx: CmdContext) {
    for &die in dies {
        ftl.shard_mut(die).chip_mut().set_context(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_controller::ControllerConfig;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, Geometry};
    use ipa_ftl::{BlockDevice, FtlConfig, FtlError, Lba, StripePolicy};
    use std::sync::Arc;

    fn striped(channels: u32, dpc: u32, queue_cap: Option<usize>) -> ShardedFtl {
        let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none());
        let mut ctrl = ControllerConfig::new(channels, dpc, chip);
        ctrl.queue_cap = queue_cap;
        ShardedFtl::new(
            ctrl,
            FtlConfig::traditional().with_background_gc(),
            StripePolicy::RoundRobin,
        )
    }

    /// The trait's test double: names `dies`; a step programs `writes`
    /// (in whatever context the scheduler left on their dies) and reports
    /// `outcome`.
    struct Scripted {
        dies: Option<Vec<u32>>,
        writes: Vec<Lba>,
        outcome: Result<ShiftStep>,
        steps: u32,
    }

    impl WearShifter for Scripted {
        fn next_dies(&mut self, _ftl: &ShardedFtl) -> Option<Vec<u32>> {
            self.dies.clone()
        }

        fn step(&mut self, ftl: &mut ShardedFtl) -> Result<ShiftStep> {
            self.steps += 1;
            for &lba in &self.writes {
                ftl.write(lba, &[0x3C; 2048])?;
            }
            self.outcome.clone()
        }
    }

    fn scripted(dies: Option<Vec<u32>>, writes: &[Lba]) -> MaintenanceScheduler<Scripted> {
        MaintenanceScheduler::new(Scripted {
            dies,
            writes: writes.to_vec(),
            outcome: Ok(ShiftStep::Migrated),
            steps: 0,
        })
    }

    #[test]
    fn a_shifter_without_work_or_with_a_busy_die_is_not_stepped() {
        // 1ch×2d round-robin: even LBAs on die 0, odd on die 1. A posted
        // host program leaves die 1 busy and die 0 idle.
        let mut s = striped(1, 2, None);
        s.write(1, &[0x11; 2048]).unwrap();

        let mut balanced = scripted(None, &[0]);
        balanced.poll(&mut s).unwrap();
        let st = balanced.stats();
        assert_eq!((st.polls, st.steps, st.deferred_busy), (1, 0, 0), "{st}");

        let mut gated = scripted(Some(vec![0, 1]), &[0]);
        gated.poll(&mut s).unwrap();
        let st = gated.stats();
        assert_eq!((st.steps, st.deferred_busy), (0, 1), "{st}");
        assert_eq!((balanced.shifter.steps, gated.shifter.steps), (0, 0));
    }

    #[test]
    fn a_shift_step_is_internal_on_the_named_dies_only_and_the_context_is_restored() {
        let stalls = |s: &ShardedFtl| s.controller().stats().backpressure_stalls;
        // NCQ depth 1: a second host program on a die still working on
        // its first stalls the host; internal commands are exempt.
        let mut s = striped(1, 2, Some(1));
        s.write(1, &[0x11; 2048]).unwrap();

        // Die 0 is idle and the only die named. The step programs die 1,
        // which it did not name and which still holds the host's program,
        // then die 0 twice (the second finds the queue at the cap).
        let mut sched = scripted(Some(vec![0]), &[1, 0, 2]);
        sched.poll(&mut s).unwrap();
        let st = sched.stats();
        assert_eq!(sched.shifter.steps, 1, "exactly one step per poll");
        assert_eq!((st.steps, st.range_migrations, st.destages), (1, 1, 0));
        assert_eq!(stalls(&s), 1, "only the unnamed die's program stalled");
        // Back in the default context: the host's next program on die 0
        // queues behind the step's and feels the cap.
        s.write(0, &[0x22; 2048]).unwrap();
        assert!(stalls(&s) > 1, "die 0 was left in the internal context");

        // The counter follows the step's report.
        s.sync();
        sched.shifter.writes = vec![0];
        sched.shifter.outcome = Ok(ShiftStep::Destaged);
        sched.poll(&mut s).unwrap();
        let st = sched.stats();
        assert_eq!((st.steps, st.range_migrations, st.destages), (2, 1, 1));

        // A failing step is propagated, counts nothing, and still leaves
        // the default context behind.
        s.sync();
        sched.shifter.outcome = Err(FtlError::DeviceFull);
        assert_eq!(sched.poll(&mut s), Err(FtlError::DeviceFull));
        assert_eq!((sched.shifter.steps, sched.stats().steps), (3, 2));
        let before = stalls(&s);
        s.write(0, &[0x33; 2048]).unwrap();
        assert!(stalls(&s) > before, "an error must not leak the context");
    }

    #[test]
    fn poll_reclaims_only_on_idle_dies() {
        let mut s = striped(2, 1, None);
        let mut sched = MaintenanceScheduler::new(NoShift);
        let data = vec![0x5Au8; 2048];
        // Churn a hot set until both shards sit below their marks, then
        // poll with every die idle: reclaim must happen.
        for i in 0..900u64 {
            s.write(i % 16, &data).unwrap();
        }
        s.sync();
        while {
            sched.poll(&mut s).unwrap();
            // Catch the host clock up so dies fall idle again between
            // polls (in live traffic, host reads/CPU time do this).
            s.sync();
            (0..s.dies()).any(|d| {
                // Two sequential guards: nesting the calls would lock the
                // shard mutex reentrantly.
                let lw = s.shard(d).gc_low_water();
                s.shard(d).gc_pending(lw)
            })
        } {}
        let st = sched.stats();
        assert!(st.erases > 0, "idle polls must complete reclaims: {st}");
        assert!(st.steps >= st.erases + st.migrations - 1);
        s.check_invariants();
        // Data survives background reclaim.
        let mut buf = vec![0u8; 2048];
        for lba in 0..16u64 {
            s.read(lba, &mut buf).unwrap();
        }
    }

    #[test]
    fn busy_dies_are_skipped() {
        let mut s = striped(1, 2, None);
        let mut sched = MaintenanceScheduler::new(NoShift);
        let data = vec![0xA5u8; 2048];
        for i in 0..900u64 {
            s.write(i % 16, &data).unwrap();
            // Poll immediately after the posted program: the written die
            // is still busy, so at least some dispatches must defer.
            sched.poll(&mut s).unwrap();
        }
        let st = sched.stats();
        assert!(
            st.deferred_busy > 0,
            "posted programs must defer same-die reclaim: {st}"
        );
        assert!(st.polls >= 900);
        s.check_invariants();
    }

    #[test]
    fn wear_spread_is_observed() {
        let mut s = striped(2, 2, None);
        let mut sched = MaintenanceScheduler::new(NoShift);
        let data = vec![0x11u8; 2048];
        for i in 0..2500u64 {
            s.write(i % 24, &data).unwrap();
            if i % 3 == 0 {
                s.sync();
            }
            sched.poll(&mut s).unwrap();
        }
        let st = sched.stats();
        assert!(st.erases > 0);
        // The wear view flowed through: the observed peak matches the
        // controller's final report or exceeded it mid-run.
        let final_spread = s.controller().stats().wear_spread();
        assert!(st.max_wear_spread >= final_spread.saturating_sub(1));
    }

    /// The poll's wear observation as it was before it stopped taking a
    /// full controller snapshot per host command — the reference the
    /// two-counter form must equal.
    fn observe_wear_by_snapshot(stats: &mut MaintStats, ctrl: &FlashController) {
        let c = ctrl.stats();
        stats.max_wear_spread = stats.max_wear_spread.max(c.wear_spread());
        stats.erase_suspends_seen = c.erase_suspends;
    }

    #[test]
    fn wear_observation_equals_a_snapshot_per_poll() {
        let chip = DeviceConfig::new(Geometry::new(16, 8, 2048, 64), FlashMode::Slc)
            .with_disturb(DisturbRates::none());
        let mut s = ShardedFtl::new(
            ControllerConfig::new(2, 2, chip).with_qos(),
            FtlConfig::traditional().with_background_gc(),
            StripePolicy::RoundRobin,
        );
        let ctrl = Arc::clone(s.controller());
        let mut sched = MaintenanceScheduler::new(NoShift);
        let mut reference = MaintStats::default();
        let mut poll = |s: &mut ShardedFtl, sched: &mut MaintenanceScheduler, at: &str| {
            sched.poll(s).unwrap();
            observe_wear_by_snapshot(&mut reference, &ctrl);
            let st = sched.stats();
            assert_eq!(
                (st.max_wear_spread, st.erase_suspends_seen),
                (reference.max_wear_spread, reference.erase_suspends_seen),
                "{at}"
            );
        };
        let data = vec![0x5Au8; 2048];
        let mut buf = vec![0u8; 2048];
        // Before anything erased: the first poll computes a spread (0).
        poll(&mut s, &mut sched, "first poll");
        // Skewed churn with a poll per command: background erases, and
        // host reads that land on them (suspensions under QoS).
        for i in 0..1500u64 {
            s.write((i * i) % 20, &data).unwrap();
            poll(&mut s, &mut sched, "write");
            if i % 4 == 0 {
                s.sync();
            }
            if i % 2 == 0 {
                s.read((i * i) % 20, &mut buf).unwrap();
                poll(&mut s, &mut sched, "read");
            }
        }
        let scheduled = sched.stats().erases;
        assert!(scheduled > 0 && sched.stats().max_wear_spread > 0);
        // Unpolled churn on one die: the write path's emergency GC erases
        // inline — erases this scheduler did not issue but must observe.
        let before = ctrl.erase_counters().0;
        for _ in 0..600 {
            s.write(4, &data).unwrap();
        }
        assert_eq!(sched.stats().erases, scheduled);
        assert!(
            ctrl.erase_counters().0 > before,
            "inline GC must have erased"
        );
        poll(&mut s, &mut sched, "after inline GC");
        // Polls with reads only: most see no new erase and skip the walk.
        s.sync();
        for _ in 0..8 {
            s.read(4, &mut buf).unwrap();
            poll(&mut s, &mut sched, "read-only poll");
        }
        assert!(
            sched.stats().erase_suspends_seen > 0,
            "QoS suspensions seen"
        );
    }
}
