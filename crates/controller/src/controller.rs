//! The multi-channel controller: per-die command queues and a scheduler
//! that charges channel-bus and die-busy time.
//!
//! ## Timing model
//!
//! Every die keeps its own [`SimClock`] recording when its array becomes
//! idle; every channel bus keeps one recording when the bus is free. The
//! host-side clock (`host`) only advances when the host actually has to
//! wait:
//!
//! * **Reads are synchronous** — the host needs the data, so it pays
//!   queueing (die busy), sense, bus-contention and transfer time in full:
//!   `done = max(max(submit, die_free) + sense, chan_free) + transfer`.
//! * **Programs / re-programs / appends are posted** — the host enqueues
//!   the command and continues immediately (per-channel DMA engines move
//!   the payload; host-side CPU cost is the driver's `cpu_ns_per_tx`).
//!   The transfer occupies the channel bus starting when both the bus and
//!   the die are free, and the ISPP staircase then occupies the die. This
//!   is exactly where channel/die parallelism buys throughput: transfers
//!   on different channels and staircases on different dies all overlap.
//! * **Erases are fully posted** — no bus payload; the die is simply busy
//!   for `erase_ns` starting when it next falls idle.
//!
//! A later command on the *same* die queues behind the posted work (its
//! start time is clamped by the die clock), so a 1 × 1 topology reproduces
//! the old single-chip sequential walk exactly, while wider topologies
//! overlap. [`FlashController::sync`] max-merges every die clock back into
//! the host clock — the barrier used at result-consumption boundaries.
//!
//! State mutations are applied to the per-die [`FlashChip`] eagerly, in
//! submission order. Per-die FIFO dispatch means the logical outcome is
//! identical to the sequential single-chip execution — only *time* is
//! scheduled, which is what makes die-striped parity checks meaningful.
//!
//! ## Threading model
//!
//! The controller is `Send + Sync` and every operation takes `&self`:
//! callers share it through a plain [`Arc`]. Internally the state is
//! split so die-local traffic never serializes behind one big lock:
//!
//! * one `Mutex<DieState>` per die (chip + die clock + posted queue),
//! * one `Mutex<ChannelState>` per channel bus,
//! * an `AtomicU64` host clock (advanced with `fetch_max`, so concurrent
//!   submitters only ever push it forward),
//! * one `Mutex<Central>` for the cross-die odds and ends: latency
//!   records, the trace sink and aggregate stats.
//!
//! The lock order is **die → channel → central**; no path acquires a die
//! or channel lock while holding `central`, each scheduled command
//! touches exactly one die and takes `central` exactly once (the tail
//! bookkeeping), so operations on different dies proceed in parallel and
//! deadlock is impossible by construction. A single-threaded caller sees
//! bit-identical behaviour to the historical `RefCell` controller — the
//! parity walls in `tests/` hold across the refactor.
//!
//! How a command is scheduled — blocking or posted, QoS-eligible or not,
//! host or firmware — is carried by the command, not by the controller:
//! every [`DieHandle`] holds a [`CmdContext`] that its owner sets
//! ([`DieHandle::set_context`]) and each command it issues reads. A handle
//! lives inside its shard's FTL behind the shard mutex, so a context is
//! per-die state under a lock the caller already holds: one thread's
//! posted vector or reclaim step on die 0 cannot change how another
//! thread's read on die 1 is timed, counted or traced. Under concurrent
//! submitters the *logical* outcome on each die is still its submission
//! order (the die mutex serializes chip mutation); what stays approximate
//! is the one thing still shared — the host clock every submitter stamps
//! its commands from.
//!
//! ## Latency QoS (opt-in: [`ControllerConfig::with_qos`])
//!
//! With QoS enabled the per-die queue becomes a *reorder window* for host
//! reads: a short read may start in an idle gap, jump pending posted
//! programs/erases (they are pushed out by exactly the read's occupancy),
//! or *suspend* an in-flight erase pulse — paying the chip's
//! `erase_suspend_ns` park cost and pushing the erase's completion out by
//! the read's run time, bounded by `erase_resume_limit` suspensions per
//! erase so an erase under constant read pressure still finishes. Only
//! *time* is reordered: chip state is mutated eagerly in submission order,
//! so read-your-writes holds by construction and
//! [`FlashController::sync`] remains a total barrier. Promotion applies to
//! host reads in the [`Lane::Blocking`] and [`Lane::PostedPriority`]
//! lanes — bulk vectored reads ([`Lane::Posted`], read-ahead) stay FIFO
//! so background streaming cannot starve posted writes — and never to
//! firmware-internal reads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ipa_flash::{
    FlashChip, FlashMode, FlashStats, Geometry, MultiPlaneWrite, Nand, PageImage, Ppa, Result,
    SimClock,
};
use ipa_trace::{CommandKind, CommandOrigin, LatencyHistogram, SharedSink, TraceEvent, TracePhase};

use crate::config::ControllerConfig;
use crate::stats::ControllerStats;

/// Poison-transparent lock: a panic mid-operation on another thread must
/// not wedge the simulator's observability paths (stats, sync) — the
/// state is plain data and every invariant is re-established before a
/// guard drops on the success paths.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How the host waits for a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// The host needs the data now: the read advances the host clock to
    /// its completion.
    #[default]
    Blocking,
    /// Member of a vectored read: issues from the vector's submission
    /// instant without advancing the host clock; the submitter collects
    /// [`DieHandle::last_read_done_ns`] and waits when it polls. FIFO
    /// under QoS.
    Posted,
    /// Posted, and eligible for QoS promotion.
    PostedPriority,
}

/// The scheduling context of the commands a [`DieHandle`] issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CmdContext {
    pub lane: Lane,
    /// Firmware-internal work (background maintenance): posted commands
    /// bypass the NCQ cap — the scheduler gates internal dispatch on die
    /// idleness, and charging firmware copy-backs to the host clock would
    /// corrupt the timing model — and reads are neither QoS-promoted nor
    /// sampled as host-read latencies.
    pub internal: bool,
}

impl CmdContext {
    /// Firmware-internal work in the blocking lane.
    pub const INTERNAL: CmdContext = CmdContext {
        lane: Lane::Blocking,
        internal: true,
    };

    /// A host read in `lane`.
    pub fn host(lane: Lane) -> Self {
        CmdContext {
            lane,
            internal: false,
        }
    }

    /// The origin a traced command issued in this context is attributed to.
    fn origin(self) -> CommandOrigin {
        match (self.internal, self.lane) {
            (true, _) => CommandOrigin::Internal,
            (false, Lane::PostedPriority) => CommandOrigin::HostPriority,
            (false, Lane::Posted) => CommandOrigin::ReadAhead,
            (false, Lane::Blocking) => CommandOrigin::Host,
        }
    }
}

/// What kind of array work a posted command occupies the die with —
/// decides whether the QoS scheduler may suspend it mid-pulse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PostedKind {
    /// Program / re-program / append / multi-plane program.
    Program,
    /// Block erase — suspendable while `resumes_left > 0`.
    Erase,
}

/// A posted (not-yet-complete relative to host time) command on a die.
#[derive(Debug, Clone, Copy)]
struct Posted {
    /// When the command engages the die (bus start for transfers).
    start_ns: u64,
    done_ns: u64,
    kind: PostedKind,
    /// Erase-suspend budget left (always 0 for programs).
    resumes_left: u16,
    /// Trace identity: sequence id, command kind, and origin at
    /// submission — lets suspend/resume instants name the command they
    /// perturb. Zero-cost when no tracer is attached (plain `Copy` data).
    cmd: u64,
    ckind: CommandKind,
    origin: CommandOrigin,
}

/// A promotion slot the QoS scheduler found for a host read: where the
/// read may start and which queued work has to move for it.
struct QosSlot {
    /// Earliest instant the die array can attend to the read.
    start_ns: u64,
    /// First queue index that must be pushed out past the read.
    pending_from: usize,
    /// In-flight erase being suspended: (queue index, array time the
    /// erase still needs when it resumes).
    suspended: Option<(usize, u64)>,
}

struct DieState {
    chip: FlashChip,
    /// When the die's array next falls idle.
    clock: SimClock,
    /// Posted commands still in flight at host time.
    queue: VecDeque<Posted>,
    /// End of the latest QoS-promoted read on this die — promoted reads
    /// serialize among themselves even while the die clock is pushed out
    /// by the shifted posted tail.
    read_busy_ns: u64,
    /// Time the die's array was busy (sense/program/erase phases).
    busy_ns: u64,
}

/// One channel bus: its free-time clock plus accumulated transfer time
/// (utilization telemetry), guarded together so a transfer charges both
/// under one acquisition.
struct ChannelState {
    clock: SimClock,
    busy_ns: u64,
}

/// The cross-die state: host-read latency records, the trace hook and
/// the aggregate counters. Everything here
/// is touched once per command (a few integer ops), so one mutex is
/// cheap; the per-die heavy lifting (chip mutation, queue walks) never
/// holds it.
struct Central {
    /// Device-side latency (`done - submit`) of every host read, in issue
    /// order — the tail-latency SLO wall samples p99.9 from here. Empty
    /// when `bounded_read_lat` routes samples to the histogram instead.
    read_lat: Vec<u64>,
    /// Fixed-memory log2 sketch of every host-read latency; always
    /// maintained (a record is a handful of integer ops) so long soaks
    /// can drop the exact buffer without losing percentiles.
    read_hist: LatencyHistogram,
    /// When set, host-read latencies go only to `read_hist` — the
    /// bounded-memory mode for long soaks.
    bounded_read_lat: bool,
    /// Lifecycle-event sink; `None` (default) skips every emission.
    tracer: Option<SharedSink>,
    /// Per-controller command sequence number pairing trace phases.
    cmd_seq: u64,
    stats: ControllerStats,
}

impl Central {
    #[inline]
    fn emit(&self, ev: TraceEvent) {
        if let Some(t) = &self.tracer {
            lock(t).record(ev);
        }
    }
}

/// The controller: `channels × dies_per_channel` chips behind a scheduler.
///
/// `Send + Sync`; the whole public surface takes `&self` — share it via
/// [`FlashController::shared`] and call from as many threads as you like.
/// See the module docs for the lock layout and ordering discipline.
pub struct FlashController {
    cfg: ControllerConfig,
    dies: Vec<Mutex<DieState>>,
    /// When each channel bus is next free (plus its busy telemetry).
    channels: Vec<Mutex<ChannelState>>,
    /// The host-side clock: submission timestamps come from here.
    /// Monotone advancement is `fetch_max`; only the explicit
    /// multi-client hook [`FlashController::set_host_ns`] rewinds it.
    host: HostClock,
    central: Mutex<Central>,
}

/// The host clock, on a cache line of its own: every submitter loads it
/// several times per command, and on a line shared with `central` (which
/// every command's tail writes) each of those loads is a cross-core miss.
#[repr(align(64))]
struct HostClock(AtomicU64);

// The controller is shared across host threads by design; this fails to
// compile the moment a non-Sync field sneaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FlashController>();
};

impl FlashController {
    pub fn new(cfg: ControllerConfig) -> Self {
        let dies = (0..cfg.dies())
            .map(|d| {
                Mutex::new(DieState {
                    chip: FlashChip::new(cfg.chip_for_die(d)),
                    clock: SimClock::new(),
                    queue: VecDeque::new(),
                    read_busy_ns: 0,
                    busy_ns: 0,
                })
            })
            .collect();
        let channels = (0..cfg.channels)
            .map(|_| {
                Mutex::new(ChannelState {
                    clock: SimClock::new(),
                    busy_ns: 0,
                })
            })
            .collect();
        FlashController {
            cfg,
            dies,
            channels,
            host: HostClock(AtomicU64::new(0)),
            central: Mutex::new(Central {
                read_lat: Vec::new(),
                read_hist: LatencyHistogram::new(),
                bounded_read_lat: false,
                tracer: None,
                cmd_seq: 0,
                stats: ControllerStats::default(),
            }),
        }
    }

    /// Shared, handle-ready construction.
    pub fn shared(cfg: ControllerConfig) -> Arc<FlashController> {
        Arc::new(FlashController::new(cfg))
    }

    /// One [`DieHandle`] per die, in die-index order.
    pub fn handles(ctrl: &Arc<FlashController>) -> Vec<DieHandle> {
        let (dies, geometry, mode) = (ctrl.cfg.dies(), ctrl.cfg.chip.geometry, ctrl.cfg.chip.mode);
        (0..dies)
            .map(|die| DieHandle {
                ctrl: Arc::clone(ctrl),
                die,
                geometry,
                mode,
                ctx: CmdContext::default(),
                last_read_done_ns: 0,
            })
            .collect()
    }

    #[inline]
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    #[inline]
    pub fn dies(&self) -> u32 {
        self.cfg.dies()
    }

    /// Scheduler counters, including the controller-level wear view
    /// (min/max total erase count across dies) computed at call time.
    /// Per-die totals come from [`FlashController::die_erase_count`], so
    /// the spread aggregates every plane's erases, not plane 0's.
    /// Locks are taken strictly sequentially (never nested), so this is
    /// safe to call concurrently with command submission — the snapshot
    /// is then approximate across dies, exact within each.
    pub fn stats(&self) -> ControllerStats {
        let mut s = lock(&self.central).stats.clone();
        s.min_die_erases = u64::MAX;
        s.max_die_erases = 0;
        s.die_erases = Vec::with_capacity(self.dies.len());
        let mut max_die_busy = 0u64;
        let mut horizon = self.host_ns();
        for die in &self.dies {
            let d = lock(die);
            let e: u64 = d.chip.plane_erase_counts().iter().sum();
            s.min_die_erases = s.min_die_erases.min(e);
            s.max_die_erases = s.max_die_erases.max(e);
            s.die_erases.push(e);
            max_die_busy = max_die_busy.max(d.busy_ns);
            horizon = horizon.max(d.clock.now_ns());
        }
        if self.dies.is_empty() {
            s.min_die_erases = 0;
        }
        let mut max_chan_busy = 0u64;
        for ch in &self.channels {
            max_chan_busy = max_chan_busy.max(lock(ch).busy_ns);
        }
        // No clamp: a die or bus busy for longer than the horizon would be
        // a timing-model bug (`tests/heat_placement.rs` pins busy ≤ elapsed).
        if horizon > 0 {
            let util_ppm = |busy_ns: u64| (busy_ns as u128 * 1_000_000 / horizon as u128) as u64;
            s.die_util_ppm_max = util_ppm(max_die_busy);
            s.chan_util_ppm_max = util_ppm(max_chan_busy);
        }
        s
    }

    /// `(erases, erase_suspends)` — the erase commands issued and the
    /// erase suspensions served so far, as [`FlashController::stats`]
    /// reports them, for a per-command poller that needs only these: one
    /// central lock, no snapshot.
    pub fn erase_counters(&self) -> (u64, u64) {
        let c = lock(&self.central);
        (c.stats.erases, c.stats.erase_suspends)
    }

    /// Total block erases a die has performed — the wear view the
    /// maintenance scheduler balances reclaim dispatch against.
    /// Aggregated across every plane of the die: a multi-plane die wears
    /// on all its planes, and a plane-0-only view would undercount (and
    /// mis-order wear-aware dispatch) the moment `planes > 1`.
    pub fn die_erase_count(&self, die: u32) -> u64 {
        lock(&self.dies[die as usize])
            .chip
            .plane_erase_counts()
            .iter()
            .sum()
    }

    /// One die's erase count split by plane (telemetry for plane-local GC
    /// victim analysis).
    pub fn die_plane_erases(&self, die: u32) -> Vec<u64> {
        lock(&self.dies[die as usize])
            .chip
            .plane_erase_counts()
            .to_vec()
    }

    /// Is the die's array idle at the current host time? True exactly when
    /// a command submitted now would start immediately (no posted work
    /// still occupying the array) — the maintenance scheduler's dispatch
    /// predicate for background reclaim.
    pub fn die_idle(&self, die: u32) -> bool {
        lock(&self.dies[die as usize])
            .clock
            .is_idle_at(self.host_ns())
    }

    /// How far past the current host time a die stays busy (zero if idle).
    pub fn die_busy_ns(&self, die: u32) -> u64 {
        lock(&self.dies[die as usize])
            .clock
            .busy_ns_after(self.host_ns())
    }

    /// Device-side latency (`done − submit`) of every host read so far,
    /// in issue order (a snapshot copy — the buffer lives behind the
    /// central lock now). Benchmarks slice this by index to window
    /// samples. Empty in bounded mode
    /// ([`Self::set_bounded_read_latencies`]) — use
    /// [`Self::read_latency_histogram`] there.
    pub fn read_latencies(&self) -> Vec<u64> {
        lock(&self.central).read_lat.clone()
    }

    /// Number of exact host-read latency samples recorded so far —
    /// cursor bookkeeping without copying the buffer.
    pub fn read_latency_count(&self) -> usize {
        lock(&self.central).read_lat.len()
    }

    /// Fixed-memory log2 histogram of every host-read latency so far.
    /// Always maintained; snapshot it and use
    /// [`LatencyHistogram::delta_since`] to window samples.
    pub fn read_latency_histogram(&self) -> LatencyHistogram {
        lock(&self.central).read_hist
    }

    /// Bounded-memory mode: stop appending host-read latencies to the
    /// exact sample buffer (the histogram keeps recording). Long soaks
    /// switch this on so memory stays constant; tests use the exact
    /// buffer as the percentile oracle.
    pub fn set_bounded_read_latencies(&self, bounded: bool) {
        let mut c = lock(&self.central);
        c.bounded_read_lat = bounded;
        if bounded {
            c.read_lat = Vec::new();
        }
    }

    /// Attach a lifecycle-event sink. Every command the controller
    /// schedules from now on emits `Submitted`/`Dispatched`/`Started`/
    /// `Completed` (plus `Suspended`/`Resumed`/`Promoted` instants from
    /// the QoS path). Recording never perturbs timing or state — a
    /// traced run is bit-identical to an untraced one.
    pub fn set_tracer(&self, sink: SharedSink) {
        lock(&self.central).tracer = Some(sink);
    }

    /// Detach the tracer (emission returns to a single dead branch).
    pub fn clear_tracer(&self) {
        lock(&self.central).tracer = None;
    }

    /// Is a tracer currently attached?
    pub fn tracing_enabled(&self) -> bool {
        lock(&self.central).tracer.is_some()
    }

    /// Emit a standalone instant event on a die's track at current host
    /// time — the maintenance scheduler marks reclaim dispatch this way.
    pub fn trace_instant(&self, die: u32, kind: CommandKind, phase: TracePhase) {
        let mut c = lock(&self.central);
        if c.tracer.is_none() {
            return;
        }
        c.cmd_seq += 1;
        let ev = TraceEvent {
            at_ns: self.host_ns(),
            cmd: c.cmd_seq,
            die,
            channel: self.cfg.channel_of(die),
            kind,
            origin: CommandOrigin::Internal,
            phase,
        };
        c.emit(ev);
    }

    /// Fraction of elapsed simulated time die `die`'s array spent busy
    /// (sense + staircase + erase pulse time over the merged horizon).
    pub fn die_busy_fraction(&self, die: u32) -> f64 {
        let elapsed = self.elapsed_ns();
        if elapsed == 0 {
            return 0.0;
        }
        let busy = lock(&self.dies[die as usize]).busy_ns;
        busy as f64 / elapsed as f64
    }

    /// Fraction of elapsed simulated time channel `ch`'s bus spent
    /// transferring payload.
    pub fn channel_busy_fraction(&self, ch: u32) -> f64 {
        let elapsed = self.elapsed_ns();
        if elapsed == 0 {
            return 0.0;
        }
        let busy = lock(&self.channels[ch as usize]).busy_ns;
        busy as f64 / elapsed as f64
    }

    /// Posted commands still in flight on a die at current host time.
    pub fn queue_depth(&self, die: u32) -> usize {
        lock(&self.dies[die as usize]).queue.len()
    }

    /// Raw chip counters of one die.
    pub fn die_flash_stats(&self, die: u32) -> FlashStats {
        *lock(&self.dies[die as usize]).chip.stats()
    }

    /// Raw chip counters summed across all dies.
    pub fn flash_stats(&self) -> FlashStats {
        self.dies.iter().fold(FlashStats::default(), |acc, d| {
            acc.merged(lock(d).chip.stats())
        })
    }

    /// Peak erase count across every die.
    pub fn max_erase_count(&self) -> u32 {
        self.dies
            .iter()
            .map(|d| lock(d).chip.max_erase_count())
            .max()
            .unwrap_or(0)
    }

    /// Simulated time if the host synced right now: the furthest-ahead of
    /// the host clock and every die clock. Non-mutating peek.
    pub fn elapsed_ns(&self) -> u64 {
        self.dies
            .iter()
            .map(|d| lock(d).clock.now_ns())
            .fold(self.host_ns(), u64::max)
    }

    /// Submission-side clock: the logical "now" commands are issued at.
    pub fn host_ns(&self) -> u64 {
        self.host.0.load(Ordering::SeqCst)
    }

    /// Reposition the submission-side clock — the multi-client hook. Each
    /// client thread has its own logical "now"; the driver sets it before
    /// issuing that client's commands, so two clients' reads overlap
    /// instead of serialising through a single host clock. Die and channel
    /// clocks are untouched (they are device state, not client state), so
    /// commands submitted "in the past" still queue behind busy hardware
    /// via `start = max(submit, die_free, chan_free)`. This is the one
    /// host-clock write that may rewind; concurrent threads should use
    /// [`FlashController::advance_host_ns`] instead.
    pub fn set_host_ns(&self, ns: u64) {
        self.host.0.store(ns, Ordering::SeqCst);
    }

    /// Monotone host-clock advance (`fetch_max`): safe under concurrent
    /// submitters, where a raw reposition could travel backwards past
    /// another thread's progress.
    pub fn advance_host_ns(&self, ns: u64) {
        self.host.0.fetch_max(ns, Ordering::SeqCst);
    }

    /// Barrier: wait for every posted command, max-merging all die clocks
    /// into the host clock. Returns the merged time.
    pub fn sync(&self) -> u64 {
        for die in &self.dies {
            let mut d = lock(die);
            self.host.0.fetch_max(d.clock.now_ns(), Ordering::SeqCst);
            d.queue.clear();
        }
        lock(&self.central).stats.sync_points += 1;
        self.host_ns()
    }

    /// Drop completed entries from a die's queue.
    fn retire_queue(d: &mut DieState, now: u64) {
        while d.queue.front().is_some_and(|p| p.done_ns <= now) {
            d.queue.pop_front();
        }
    }

    /// QoS policy: find a promotion slot for a host read submitted at
    /// `submit` on die `d`, or `None` to fall back to FIFO dispatch.
    /// Promotion applies when QoS is configured, the read is host-issued
    /// (not firmware-internal), it is either a plain blocking read or in
    /// the priority lane, and posted work is actually queued.
    fn qos_read_slot(&self, d: &mut DieState, submit: u64, ctx: CmdContext) -> Option<QosSlot> {
        if !self.cfg.qos || ctx.internal || ctx.lane == Lane::Posted {
            return None;
        }
        Self::retire_queue(d, submit);
        // The instant the die array could first attend to this read:
        // promoted reads on one die serialize among themselves.
        let t0 = submit.max(d.read_busy_ns);
        let idx = d.queue.iter().position(|p| p.done_ns > t0)?;
        let e = d.queue[idx];
        if e.start_ns > t0 {
            // Idle gap before `e` engages the die: slot the read in; `e`
            // and everything behind it move out only if the read overruns
            // the gap.
            Some(QosSlot {
                start_ns: t0,
                pending_from: idx,
                suspended: None,
            })
        } else if e.kind == PostedKind::Erase && e.resumes_left > 0 {
            // Suspend the in-flight erase pulse: the array parks it in
            // `erase_suspend_ns`, serves the read, then resumes the
            // remaining pulse time once the read's occupancy ends.
            let park = self.cfg.chip.latency.erase_suspend_ns;
            Some(QosSlot {
                start_ns: t0 + park,
                pending_from: idx + 1,
                suspended: Some((idx, e.done_ns - t0)),
            })
        } else {
            // Unsuspendable in-flight command: wait for it alone and jump
            // everything queued behind it.
            Some(QosSlot {
                start_ns: e.done_ns,
                pending_from: idx + 1,
                suspended: None,
            })
        }
    }

    /// Apply a promotion: reschedule the suspended erase, push the
    /// pending posted tail out past the read, and keep the die clock on
    /// the new horizon. Chip state is untouched — promotion reorders
    /// time, never state. Returns whether an erase was suspended plus the
    /// suspend/resume instants to emit (buffered: the central lock — and
    /// with it the sink — is taken once at the end of the read).
    fn commit_qos_slot(
        &self,
        d: &mut DieState,
        die: u32,
        slot: &QosSlot,
        read_done: u64,
    ) -> (bool, Option<[TraceEvent; 2]>) {
        let mut floor = read_done;
        let mut suspended = false;
        let mut events = None;
        if let Some((idx, remaining)) = slot.suspended {
            suspended = true;
            d.chip.record_erase_suspend();
            let e = &mut d.queue[idx];
            e.resumes_left -= 1;
            e.done_ns = read_done + remaining;
            floor = e.done_ns;
            let e = d.queue[idx];
            let channel = self.cfg.channel_of(die);
            let instant = |at_ns, phase| TraceEvent {
                at_ns,
                cmd: e.cmd,
                die,
                channel,
                kind: e.ckind,
                origin: e.origin,
                phase,
            };
            events = Some([
                instant(slot.start_ns, TracePhase::Suspended),
                instant(read_done, TracePhase::Resumed),
            ]);
        }
        if let Some(first) = d.queue.get(slot.pending_from) {
            let delta = floor.saturating_sub(first.start_ns);
            if delta > 0 {
                for p in d.queue.iter_mut().skip(slot.pending_from) {
                    p.start_ns += delta;
                    p.done_ns += delta;
                }
            }
        }
        if let Some(back) = d.queue.back() {
            let end = back.done_ns;
            d.clock.advance_to(end);
        }
        d.clock.advance_to(floor);
        d.read_busy_ns = d.read_busy_ns.max(read_done);
        (suspended, events)
    }

    /// Read scheduling: run `f` on the chip — it reads `pages` pages under
    /// one command (the planes of a multi-plane read sense concurrently,
    /// a single die-busy window) and advances the chip clock by sense +
    /// transfer — then recover the sense portion and charge queueing,
    /// die-busy and channel-bus time around it. A host read blocks the
    /// host clock until the data arrives (unless posted); a firmware
    /// copy-back read only occupies the die and channel. Returns `f`'s
    /// value and the instant the data is ready.
    ///
    /// Lock walk: die → channel (released) → central, in order.
    fn op_read_timed<T>(
        &self,
        die: u32,
        pages: usize,
        ctx: CmdContext,
        kind: CommandKind,
        f: impl FnOnce(&mut FlashChip) -> Result<T>,
    ) -> Result<(T, u64)> {
        let d = die as usize;
        let ch = self.cfg.channel_of(die) as usize;
        let g = self.cfg.chip.geometry;
        let bus = self
            .cfg
            .chip
            .latency
            .transfer_ns(pages * (g.page_size + g.oob_size));
        let sync_host = kind != CommandKind::CopybackRead;
        let posted = ctx.lane != Lane::Blocking;
        let submit = self.host_ns();

        let mut die_g = lock(&self.dies[d]);
        let t0 = die_g.chip.elapsed_ns();
        let img = f(&mut die_g.chip)?;
        let dt = die_g.chip.elapsed_ns() - t0;
        let sense = dt.saturating_sub(bus);

        let fifo_start = submit.max(die_g.clock.now_ns());
        let slot = if sync_host {
            self.qos_read_slot(&mut die_g, submit, ctx)
        } else {
            None
        };
        let start = slot.as_ref().map_or(fifo_start, |s| s.start_ns);
        let sense_end = start + sense;
        let (bus_start, done);
        {
            let mut chan = lock(&self.channels[ch]);
            if slot.is_some() {
                // A promoted read preempts the channel as well as the die:
                // queued posted DMA yields, its tail pushed out by exactly
                // the read's transfer time.
                bus_start = sense_end;
                done = bus_start + bus;
                let ch_free = chan.clock.now_ns();
                chan.clock.advance_to(done.max(ch_free + bus));
            } else {
                bus_start = sense_end.max(chan.clock.now_ns());
                done = bus_start + bus;
                chan.clock.advance_to(done);
            }
            chan.busy_ns += bus;
        }

        let mut promoted = false;
        let mut suspended = false;
        let mut suspend_events = None;
        if let Some(slot) = &slot {
            let (susp, evs) = self.commit_qos_slot(&mut die_g, die, slot, done);
            suspended = susp;
            suspend_events = evs;
            if start < fifo_start {
                promoted = true;
            }
        }
        die_g.clock.advance_to(done);
        if sync_host && !posted {
            self.host.0.fetch_max(done, Ordering::SeqCst);
        }
        Self::retire_queue(&mut die_g, self.host_ns());

        die_g.busy_ns += sense;

        // Tail bookkeeping under central — die lock still held (die →
        // central is the sanctioned order), sink reached only from here.
        let mut c = lock(&self.central);
        if suspended {
            c.stats.erase_suspends += 1;
        }
        if promoted {
            c.stats.reads_promoted += 1;
        }
        if sync_host {
            if !ctx.internal {
                let lat = done - submit;
                c.read_hist.record(lat);
                if !c.bounded_read_lat {
                    c.read_lat.push(lat);
                }
            }
            if posted {
                // The data is in flight: the submitter waits for `done`
                // when it polls, not here.
                c.stats.posted_reads += 1;
            }
        }
        c.stats.commands += 1;
        c.stats.reads += 1;
        c.stats.queue_wait_ns += (start - submit) + (bus_start - sense_end);
        c.stats.bus_busy_ns += bus;

        if c.tracer.is_some() {
            if let Some(evs) = suspend_events {
                for ev in evs {
                    c.emit(ev);
                }
            }
            c.cmd_seq += 1;
            let cmd = c.cmd_seq;
            let origin = if sync_host {
                ctx.origin()
            } else {
                // Copy-back reads are firmware work by definition.
                CommandOrigin::Internal
            };
            let base = TraceEvent {
                at_ns: submit,
                cmd,
                die,
                channel: ch as u32,
                kind,
                origin,
                phase: TracePhase::Submitted,
            };
            c.emit(base);
            if promoted {
                c.emit(TraceEvent {
                    at_ns: start,
                    phase: TracePhase::Promoted,
                    ..base
                });
            }
            c.emit(TraceEvent {
                at_ns: start,
                phase: TracePhase::Started,
                ..base
            });
            c.emit(TraceEvent {
                at_ns: done,
                phase: TracePhase::Completed,
                ..base
            });
        }
        Ok((img, done))
    }

    /// NCQ back-pressure: when the die's posted queue is at the cap, block
    /// the submitting (host) clock until the oldest in-flight command
    /// completes. Firmware-internal submissions are exempt — the
    /// maintenance scheduler gates them on die idleness instead. Returns
    /// the (stalls, waited-ns) to fold into the central stats later.
    fn apply_backpressure(&self, d: &mut DieState, ctx: CmdContext) -> (u64, u64) {
        let Some(cap) = self.cfg.queue_cap else {
            return (0, 0);
        };
        if ctx.internal {
            return (0, 0);
        }
        let (mut stalls, mut waited) = (0u64, 0u64);
        Self::retire_queue(d, self.host_ns());
        while d.queue.len() >= cap {
            let due = d.queue.front().expect("cap >= 1").done_ns;
            let wait = due.saturating_sub(self.host_ns());
            self.host.0.fetch_max(due, Ordering::SeqCst);
            stalls += 1;
            waited += wait;
            Self::retire_queue(d, self.host_ns());
        }
        (stalls, waited)
    }

    /// Posted command: optional bus transfer up front, then the array runs
    /// in the background. The host resumes once the bus is released.
    fn op_posted<F>(
        &self,
        die: u32,
        bus_bytes: usize,
        ctx: CmdContext,
        ckind: CommandKind,
        f: F,
    ) -> Result<()>
    where
        F: FnOnce(&mut FlashChip) -> Result<()>,
    {
        let is_erase = ckind.is_erase();
        let d = die as usize;
        let ch = self.cfg.channel_of(die) as usize;

        let mut die_g = lock(&self.dies[d]);
        let t0 = die_g.chip.elapsed_ns();
        f(&mut die_g.chip)?;
        let dt = die_g.chip.elapsed_ns() - t0;
        // Only successful commands consume time; a full queue then blocks
        // the submitting clock before the command is timestamped.
        let (bp_stalls, bp_wait_ns) = self.apply_backpressure(&mut die_g, ctx);
        let submit = self.host_ns();

        let bus = self.cfg.chip.latency.transfer_ns(bus_bytes);
        let array = dt.saturating_sub(bus);

        let mut start = submit.max(die_g.clock.now_ns());
        if bus > 0 {
            let mut chan = lock(&self.channels[ch]);
            start = start.max(chan.clock.now_ns());
            chan.clock.advance_to(start + bus);
            chan.busy_ns += bus;
        }
        let bus_end = start + bus;
        let done = bus_end + array;

        die_g.clock.advance_to(done);
        Self::retire_queue(&mut die_g, submit);
        let resumes_left = if is_erase {
            die_g.chip.config().erase_resume_limit
        } else {
            0
        };

        die_g.busy_ns += array;

        // The sequence id lives behind central and the queue entry needs
        // it, so the push happens with die and central held (in order).
        let mut c = lock(&self.central);
        c.cmd_seq += 1;
        let cmd = c.cmd_seq;
        let origin = ctx.origin();
        die_g.queue.push_back(Posted {
            start_ns: start,
            done_ns: done,
            kind: if is_erase {
                PostedKind::Erase
            } else {
                PostedKind::Program
            },
            resumes_left,
            cmd,
            ckind,
            origin,
        });
        c.stats.max_queue_depth = c.stats.max_queue_depth.max(die_g.queue.len());
        c.stats.commands += 1;
        if is_erase {
            c.stats.erases += 1;
        } else {
            c.stats.programs += 1;
        }
        c.stats.queue_wait_ns += start - submit;
        if bus > 0 {
            c.stats.bus_busy_ns += bus;
        }
        c.stats.backpressure_stalls += bp_stalls;
        c.stats.backpressure_wait_ns += bp_wait_ns;

        if c.tracer.is_some() {
            let base = TraceEvent {
                at_ns: submit,
                cmd,
                die,
                channel: ch as u32,
                kind: ckind,
                origin,
                phase: TracePhase::Submitted,
            };
            c.emit(base);
            // Posted commands enter the die queue at submission time.
            c.emit(TraceEvent {
                at_ns: submit,
                phase: TracePhase::Dispatched,
                ..base
            });
            // Span times reflect the schedule at dispatch; a later QoS
            // promotion perturbs them, visible as suspend/resume instants.
            c.emit(TraceEvent {
                at_ns: start,
                phase: TracePhase::Started,
                ..base
            });
            c.emit(TraceEvent {
                at_ns: done,
                phase: TracePhase::Completed,
                ..base
            });
        }
        Ok(())
    }

    /// Run a closure against one die's chip (read-only view). The die
    /// lock is held for the duration — keep the closure small.
    pub fn with_chip<R>(&self, die: u32, f: impl FnOnce(&FlashChip) -> R) -> R {
        f(&lock(&self.dies[die as usize]).chip)
    }

    /// One die's completion horizon (its array-idle clock) — test and
    /// handle plumbing; not the merged host view.
    pub fn die_time_ns(&self, die: u32) -> u64 {
        lock(&self.dies[die as usize]).clock.now_ns()
    }
}

/// A handle giving one die's view of the controller. Implements
/// [`ipa_flash::Nand`], so an [`ipa_flash::FlashChip`] consumer — the FTL —
/// can be pointed at a scheduled die without code changes.
pub struct DieHandle {
    ctrl: Arc<FlashController>,
    die: u32,
    geometry: Geometry,
    mode: FlashMode,
    ctx: CmdContext,
    last_read_done_ns: u64,
}

impl DieHandle {
    /// Die index within the controller.
    #[inline]
    pub fn die(&self) -> u32 {
        self.die
    }

    /// The controller this handle schedules through.
    pub fn controller(&self) -> &Arc<FlashController> {
        &self.ctrl
    }

    /// The context every command this handle issues from now on carries.
    pub fn set_context(&mut self, ctx: CmdContext) {
        self.ctx = ctx;
    }

    /// When the data of this handle's last successful read is ready — what
    /// the submitter of a posted read waits for.
    #[inline]
    pub fn last_read_done_ns(&self) -> u64 {
        self.last_read_done_ns
    }

    fn read<T>(
        &mut self,
        pages: usize,
        kind: CommandKind,
        f: impl FnOnce(&mut FlashChip) -> Result<T>,
    ) -> Result<T> {
        let (v, done) = self
            .ctrl
            .op_read_timed(self.die, pages, self.ctx, kind, f)?;
        self.last_read_done_ns = done;
        Ok(v)
    }

    fn post(
        &self,
        bus_bytes: usize,
        kind: CommandKind,
        f: impl FnOnce(&mut FlashChip) -> Result<()>,
    ) -> Result<()> {
        self.ctrl.op_posted(self.die, bus_bytes, self.ctx, kind, f)
    }
}

impl Nand for DieHandle {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn mode(&self) -> FlashMode {
        self.mode
    }

    fn flash_stats(&self) -> FlashStats {
        self.ctrl.die_flash_stats(self.die)
    }

    fn elapsed_ns(&self) -> u64 {
        // This die's completion horizon (not the merged host view).
        self.ctrl.die_time_ns(self.die)
    }

    fn nop_limit(&self, page: u32) -> u16 {
        self.ctrl.with_chip(self.die, |chip| chip.nop_limit(page))
    }

    fn is_erased(&self, ppa: Ppa) -> Result<bool> {
        self.ctrl.with_chip(self.die, |chip| chip.is_erased(ppa))
    }

    fn program_count(&self, ppa: Ppa) -> Result<u16> {
        self.ctrl
            .with_chip(self.die, |chip| chip.program_count(ppa))
    }

    fn erase_count(&self, block: u32) -> Result<u32> {
        self.ctrl
            .with_chip(self.die, |chip| chip.erase_count(block))
    }

    fn max_erase_count(&self) -> u32 {
        self.ctrl.with_chip(self.die, FlashChip::max_erase_count)
    }

    fn is_bad(&self, block: u32) -> bool {
        self.ctrl.with_chip(self.die, |chip| chip.is_bad(block))
    }

    fn peek_data(&self, ppa: Ppa) -> Option<Vec<u8>> {
        self.ctrl
            .with_chip(self.die, |chip| chip.peek_data(ppa).map(<[u8]>::to_vec))
    }

    fn peek_overwrite_compatible(&self, ppa: Ppa, new: &[u8]) -> Option<bool> {
        self.ctrl.with_chip(self.die, |chip| {
            chip.peek_data(ppa)
                .map(|old| old.iter().zip(new).all(|(&o, &n)| n & !o == 0))
        })
    }

    fn peek_oob(&self, ppa: Ppa) -> Option<Vec<u8>> {
        self.ctrl
            .with_chip(self.die, |chip| chip.peek_oob(ppa).map(<[u8]>::to_vec))
    }

    fn read_page(&mut self, ppa: Ppa) -> Result<PageImage> {
        self.read(1, CommandKind::Read, |chip| chip.read_page(ppa))
    }

    fn copyback_read(&mut self, ppa: Ppa) -> Result<PageImage> {
        self.read(1, CommandKind::CopybackRead, |chip| chip.read_page(ppa))
    }

    // The borrowed reads schedule exactly like the owned ones — the
    // closure is all that differs, and it copies out of the array under
    // the same die lock.
    fn read_page_into(&mut self, ppa: Ppa, data: &mut [u8], oob: &mut [u8]) -> Result<()> {
        self.read(1, CommandKind::Read, |chip| {
            chip.read_page_into(ppa, data, oob)
        })
    }

    fn copyback_read_into(&mut self, ppa: Ppa, data: &mut [u8], oob: &mut [u8]) -> Result<()> {
        self.read(1, CommandKind::CopybackRead, |chip| {
            chip.read_page_into(ppa, data, oob)
        })
    }

    fn program_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()> {
        let bytes = data.len() + oob.len();
        self.post(bytes, CommandKind::Program, |chip| {
            chip.program_page(ppa, data, oob)
        })
    }

    fn reprogram_page(&mut self, ppa: Ppa, data: &[u8], oob: &[u8]) -> Result<()> {
        let bytes = data.len() + oob.len();
        self.post(bytes, CommandKind::Program, |chip| {
            chip.reprogram_page(ppa, data, oob)
        })
    }

    fn append_region(
        &mut self,
        ppa: Ppa,
        data_off: usize,
        bytes: &[u8],
        oob_off: usize,
        oob_bytes: &[u8],
    ) -> Result<()> {
        // IPA's bus win carries through the scheduler: only delta bytes
        // occupy the channel.
        let n = bytes.len() + oob_bytes.len();
        self.post(n, CommandKind::Append, |chip| {
            chip.append_region(ppa, data_off, bytes, oob_off, oob_bytes)
        })
    }

    fn erase_block(&mut self, block: u32) -> Result<()> {
        self.post(0, CommandKind::Erase, |chip| chip.erase_block(block))
    }

    fn multi_plane_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        // One posted command, one die-busy window: the chip charges every
        // member's transfer plus a single staircase, and the scheduler
        // treats the whole thing as one program occupying the die.
        let bytes = pages.iter().map(|p| p.data.len() + p.oob.len()).sum();
        self.post(bytes, CommandKind::MultiPlaneProgram, |chip| {
            chip.multi_plane_program(pages)
        })
    }

    fn multi_plane_read(&mut self, ppas: &[Ppa]) -> Result<Vec<PageImage>> {
        self.read(ppas.len(), CommandKind::MultiPlaneRead, |chip| {
            chip.multi_plane_read(ppas)
        })
    }

    fn cache_program(&mut self, pages: &[MultiPlaneWrite<'_>]) -> Result<()> {
        // One posted command, one die-busy window: the chip pipelines each
        // member's transfer behind the previous member's pulse, so the
        // array time `op_posted` derives (chip time minus the serial bus
        // transfer) is exactly the un-overlapped pulse remainder.
        let bytes = pages.iter().map(|p| p.data.len() + p.oob.len()).sum();
        self.post(bytes, CommandKind::CachedProgram, |chip| {
            chip.cache_program(pages)
        })
    }

    fn multi_plane_erase(&mut self, blocks: &[u32]) -> Result<()> {
        // One posted erase, one die-busy window: the chip charges a
        // single pulse for the whole aligned group.
        self.post(0, CommandKind::MultiPlaneErase, |chip| {
            chip.multi_plane_erase(blocks)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::{DeviceConfig, DisturbRates};

    fn cfg(channels: u32, dies_per_channel: u32) -> ControllerConfig {
        ControllerConfig::new(
            channels,
            dies_per_channel,
            DeviceConfig::tiny()
                .with_mode(FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        )
    }

    fn page(h: &DieHandle, fill: u8) -> (Vec<u8>, Vec<u8>) {
        (
            vec![fill; h.geometry().page_size],
            vec![0xFF; h.geometry().oob_size],
        )
    }

    /// Time for one program when nothing else contends.
    fn solo_program_ns() -> u64 {
        let ctrl = FlashController::shared(cfg(1, 1));
        let mut h = FlashController::handles(&ctrl).pop().unwrap();
        let (data, oob) = page(&h, 0x00);
        h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        ctrl.sync()
    }

    #[test]
    fn programs_on_distinct_dies_overlap() {
        let solo = solo_program_ns();
        let ctrl = FlashController::shared(cfg(4, 2));
        let mut handles = FlashController::handles(&ctrl);
        assert_eq!(handles.len(), 8);
        for h in handles.iter_mut() {
            let (data, oob) = page(h, 0x00);
            h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        }
        let elapsed = ctrl.sync();
        assert!(
            elapsed < 8 * solo / 2,
            "8 programs across 8 dies must overlap: {elapsed} vs 8×{solo} sequential"
        );
        assert!(elapsed >= solo, "cannot beat a single program");
    }

    #[test]
    fn programs_on_one_die_serialize() {
        let solo = solo_program_ns();
        let ctrl = FlashController::shared(cfg(4, 2));
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0x00);
        for p in 0..4 {
            h.program_page(Ppa::new(0, p), &data, &oob).unwrap();
        }
        let elapsed = ctrl.sync();
        assert_eq!(
            elapsed,
            4 * solo,
            "same-die FIFO must match the sequential single-chip walk"
        );
    }

    #[test]
    fn shared_channel_serializes_transfers_only() {
        // Same die count, one channel vs dedicated channels: the shared
        // bus adds transfer serialization but staircases still overlap.
        let run = |channels: u32, dies_per_channel: u32| -> u64 {
            let ctrl = FlashController::shared(cfg(channels, dies_per_channel));
            let mut handles = FlashController::handles(&ctrl);
            for h in handles.iter_mut() {
                let (data, oob) = page(h, 0x00);
                h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
            }
            ctrl.sync()
        };
        let shared_bus = run(1, 4);
        let wide_bus = run(4, 1);
        let solo = solo_program_ns();
        assert!(wide_bus < shared_bus, "dedicated channels must be faster");
        assert!(
            shared_bus < 4 * solo,
            "even a shared channel overlaps the program staircases"
        );
    }

    #[test]
    fn read_after_posted_program_queues_behind_it() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let mut handles = FlashController::handles(&ctrl);
        let (data, oob) = page(&handles[0], 0x00);
        handles[0]
            .program_page(Ppa::new(0, 0), &data, &oob)
            .unwrap();
        let host_after_post = ctrl.host_ns();
        let die_done = ctrl.die_time_ns(0);
        assert!(
            host_after_post < die_done,
            "posted program must leave the die busy past the host clock"
        );
        // The read must wait for the staircase to finish before sensing.
        handles[0].read_page(Ppa::new(0, 0)).unwrap();
        let after_read = ctrl.host_ns();
        assert!(after_read > die_done);
        assert!(ctrl.stats().queue_wait_ns > 0);
    }

    #[test]
    fn read_on_idle_die_skips_the_queue() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let mut handles = FlashController::handles(&ctrl);
        // Seed die 1 with data while everything is idle, then sync.
        let (data, oob) = page(&handles[1], 0x00);
        handles[1]
            .program_page(Ppa::new(0, 0), &data, &oob)
            .unwrap();
        ctrl.sync();
        let t0 = ctrl.host_ns();

        // Busy die 0, then read die 1: the read must not pay die 0's wait.
        handles[0]
            .program_page(Ppa::new(0, 0), &data, &oob)
            .unwrap();
        handles[1].read_page(Ppa::new(0, 0)).unwrap();
        let read_done = ctrl.host_ns();
        let die0_done = ctrl.die_time_ns(0);
        assert!(
            read_done < die0_done,
            "read on the idle die completed at {read_done}, die 0 still busy to {die0_done} (t0 {t0})"
        );
    }

    #[test]
    fn sync_merges_die_clocks_and_drains_queues() {
        let ctrl = FlashController::shared(cfg(1, 2));
        let mut handles = FlashController::handles(&ctrl);
        handles[1].erase_block(3).unwrap();
        assert_eq!(ctrl.queue_depth(1), 1);
        assert!(ctrl.host_ns() < ctrl.die_time_ns(1));
        assert_eq!(ctrl.elapsed_ns(), ctrl.die_time_ns(1));
        let merged = ctrl.sync();
        assert_eq!(merged, ctrl.die_time_ns(1));
        assert_eq!(ctrl.host_ns(), merged);
        assert_eq!(ctrl.queue_depth(1), 0);
        assert_eq!(ctrl.stats().sync_points, 1);
        assert_eq!(ctrl.stats().erases, 1);
    }

    #[test]
    fn failed_commands_cost_nothing() {
        let ctrl = FlashController::shared(cfg(1, 1));
        let mut h = FlashController::handles(&ctrl).remove(0);
        assert!(h.read_page(Ppa::new(0, 0)).is_err()); // erased page
        assert_eq!(ctrl.elapsed_ns(), 0, "failed command must not consume time");
        assert_eq!(ctrl.stats().commands, 0);
    }

    #[test]
    fn deterministic_given_config() {
        let run = || -> (u64, ControllerStats) {
            let ctrl = FlashController::shared(cfg(2, 2));
            let mut handles = FlashController::handles(&ctrl);
            for (i, h) in handles.iter_mut().enumerate() {
                let (data, oob) = page(h, 0x00);
                h.program_page(Ppa::new(0, i as u32), &data, &oob).unwrap();
                h.read_page(Ppa::new(0, i as u32)).unwrap();
            }
            let t = ctrl.sync();
            let s = ctrl.stats();
            (t, s)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_cap_backpressures_the_host() {
        let run = |cap: Option<usize>| -> (u64, ControllerStats) {
            let mut c = cfg(1, 1);
            if let Some(cap) = cap {
                c = c.with_queue_cap(cap);
            }
            let ctrl = FlashController::shared(c);
            let mut h = FlashController::handles(&ctrl).remove(0);
            let (data, oob) = page(&h, 0x00);
            for p in 0..6 {
                h.program_page(Ppa::new(0, p), &data, &oob).unwrap();
            }
            (ctrl.host_ns(), ctrl.stats())
        };
        let (free_host, free_stats) = run(None);
        let (capped_host, capped_stats) = run(Some(2));
        assert_eq!(free_stats.backpressure_stalls, 0);
        assert!(
            capped_stats.backpressure_stalls > 0,
            "six posted programs into a cap-2 queue must stall"
        );
        assert!(capped_stats.backpressure_wait_ns > 0);
        assert!(
            capped_host > free_host,
            "back-pressure must advance the submitting clock: {capped_host} vs {free_host}"
        );
        assert!(capped_stats.max_queue_depth <= 3, "cap bounds the queue");
        // State and total die time are unchanged — the cap reshapes who
        // waits, not what happens.
        assert_eq!(free_stats.programs, capped_stats.programs);
    }

    #[test]
    fn internal_mode_bypasses_the_cap() {
        let ctrl = FlashController::shared(cfg(1, 1).with_queue_cap(1));
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0x00);
        h.set_context(CmdContext::INTERNAL);
        for p in 0..4 {
            h.program_page(Ppa::new(0, p), &data, &oob).unwrap();
        }
        assert_eq!(
            ctrl.stats().backpressure_stalls,
            0,
            "firmware-internal posts must not charge the host clock"
        );
        assert_eq!(ctrl.host_ns(), 0);
        assert_eq!(
            ctrl.queue_depth(0),
            4,
            "internal work still occupies the die"
        );
    }

    #[test]
    fn die_idleness_tracks_posted_work() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let mut handles = FlashController::handles(&ctrl);
        assert!(ctrl.die_idle(0) && ctrl.die_idle(1));
        let (data, oob) = page(&handles[0], 0x00);
        handles[0]
            .program_page(Ppa::new(0, 0), &data, &oob)
            .unwrap();
        assert!(!ctrl.die_idle(0), "posted program keeps die 0 busy");
        assert!(ctrl.die_busy_ns(0) > 0);
        assert!(ctrl.die_idle(1), "die 1 untouched");
        assert_eq!(ctrl.die_busy_ns(1), 0);
        ctrl.sync();
        assert!(ctrl.die_idle(0), "sync catches the host up");
    }

    fn plane_cfg(channels: u32, dies_per_channel: u32, planes: u32) -> ControllerConfig {
        ControllerConfig::new(
            channels,
            dies_per_channel,
            DeviceConfig::new(
                ipa_flash::Geometry::new(16, 8, 2048, 64).with_planes(planes),
                FlashMode::Slc,
            )
            .with_disturb(DisturbRates::none()),
        )
    }

    #[test]
    fn multi_plane_program_charges_one_die_busy_window() {
        // Two single programs on one die serialize two staircases; one
        // paired command runs one. The pair must finish well inside 2×.
        let solo_done = {
            let ctrl = FlashController::shared(plane_cfg(1, 1, 2));
            let mut h = FlashController::handles(&ctrl).remove(0);
            let (data, oob) = page(&h, 0x00);
            h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
            h.program_page(Ppa::new(1, 0), &data, &oob).unwrap();
            ctrl.sync()
        };
        let paired_done = {
            let ctrl = FlashController::shared(plane_cfg(1, 1, 2));
            let mut h = FlashController::handles(&ctrl).remove(0);
            let (data, oob) = page(&h, 0x00);
            let pages = [
                MultiPlaneWrite {
                    ppa: Ppa::new(0, 0),
                    data: &data,
                    oob: &oob,
                },
                MultiPlaneWrite {
                    ppa: Ppa::new(1, 0),
                    data: &data,
                    oob: &oob,
                },
            ];
            h.multi_plane_program(&pages).unwrap();
            assert_eq!(ctrl.stats().programs, 1, "one command in the books");
            assert_eq!(ctrl.queue_depth(0), 1, "one posted entry in flight");
            ctrl.sync()
        };
        assert!(
            2 * solo_done >= 3 * paired_done,
            "paired program must run one staircase: {paired_done} vs 2×solo {solo_done}"
        );
    }

    #[test]
    fn multi_plane_read_is_one_scheduled_command() {
        let ctrl = FlashController::shared(plane_cfg(1, 1, 2));
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0xA5);
        for b in [0, 1] {
            h.program_page(Ppa::new(b, 2), &data, &oob).unwrap();
        }
        ctrl.sync();
        let imgs = h
            .multi_plane_read(&[Ppa::new(0, 2), Ppa::new(1, 2)])
            .unwrap();
        assert_eq!(imgs.len(), 2);
        assert!(imgs.iter().all(|i| i.data == data));
        assert_eq!(ctrl.stats().reads, 1, "one read command");
        assert_eq!(ctrl.die_flash_stats(0).multi_plane_reads, 1);
        assert_eq!(ctrl.die_flash_stats(0).page_reads, 2);
        // Misalignment surfaces through the scheduler as the typed error.
        assert!(matches!(
            h.multi_plane_read(&[Ppa::new(0, 2), Ppa::new(1, 3)]),
            Err(ipa_flash::FlashError::MultiPlaneMismatch { .. })
        ));
    }

    #[test]
    fn posted_reads_surface_the_completion_horizon() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let mut handles = FlashController::handles(&ctrl);
        let (data, oob) = page(&handles[0], 0xA5);
        for h in handles.iter_mut() {
            h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        }
        ctrl.sync();
        let t0 = ctrl.host_ns();

        // Two posted reads on two dies: neither advances the host clock;
        // both issue from the same instant and the horizon — the max of
        // the handles' completions — is when the later one lands.
        let mut horizon = t0;
        for h in handles.iter_mut() {
            h.set_context(CmdContext::host(Lane::Posted));
            h.read_page(Ppa::new(0, 0)).unwrap();
            horizon = horizon.max(h.last_read_done_ns());
        }
        assert_eq!(ctrl.host_ns(), t0, "posted reads leave the host clock");
        assert!(horizon > t0, "the data lands later");
        assert_eq!(ctrl.stats().posted_reads, 2);
        assert_eq!(ctrl.stats().reads, 2, "posted reads are still reads");
        // Overlap: two dies, one window — well under two serial reads.
        let serial = {
            let ctrl2 = FlashController::shared(cfg(2, 1));
            let mut hs = FlashController::handles(&ctrl2);
            let (d2, o2) = page(&hs[0], 0xA5);
            for h in hs.iter_mut() {
                h.program_page(Ppa::new(0, 0), &d2, &o2).unwrap();
            }
            ctrl2.sync();
            let s0 = ctrl2.host_ns();
            hs[0].read_page(Ppa::new(0, 0)).unwrap();
            hs[1].read_page(Ppa::new(0, 0)).unwrap();
            ctrl2.host_ns() - s0
        };
        assert!(
            horizon - t0 < serial,
            "posted reads must overlap: {} vs {serial} ns",
            horizon - t0
        );
    }

    #[test]
    fn die_wear_view_aggregates_erases_across_planes() {
        // Regression: erases landing on plane 1 (and 3) must reach
        // `die_erase_count` and the wear spread — a plane-0-only view
        // reports zero wear here.
        let ctrl = FlashController::shared(plane_cfg(2, 1, 4));
        let mut handles = FlashController::handles(&ctrl);
        handles[0].erase_block(1).unwrap(); // plane 1
        handles[0].erase_block(5).unwrap(); // plane 1
        handles[0].erase_block(3).unwrap(); // plane 3
        assert_eq!(
            ctrl.die_erase_count(0),
            3,
            "all planes' erases count toward the die"
        );
        assert_eq!(ctrl.die_plane_erases(0), vec![0, 2, 0, 1]);
        assert_eq!(ctrl.die_erase_count(1), 0);
        let s = ctrl.stats();
        assert_eq!(s.max_die_erases, 3);
        assert_eq!(s.min_die_erases, 0);
        assert_eq!(s.wear_spread(), 3);
    }

    #[test]
    fn wear_view_reports_min_max_die_erases() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let mut handles = FlashController::handles(&ctrl);
        assert_eq!(ctrl.stats().wear_spread(), 0);
        handles[0].erase_block(0).unwrap();
        handles[0].erase_block(1).unwrap();
        handles[1].erase_block(0).unwrap();
        let s = ctrl.stats();
        assert_eq!(s.max_die_erases, 2);
        assert_eq!(s.min_die_erases, 1);
        assert_eq!(s.wear_spread(), 1);
        assert_eq!(ctrl.die_erase_count(0), 2);
        assert_eq!(ctrl.die_erase_count(1), 1);
    }

    #[test]
    fn qos_read_jumps_pending_programs() {
        // Four posted programs queue on one die; a blocking read then
        // arrives. FIFO pays the whole burst; QoS waits only for the
        // in-flight program and jumps the pending three.
        let run = |qos: bool| -> (u64, ControllerStats) {
            let mut c = cfg(1, 1);
            if qos {
                c = c.with_qos();
            }
            let ctrl = FlashController::shared(c);
            let mut h = FlashController::handles(&ctrl).remove(0);
            let (data, oob) = page(&h, 0x00);
            h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
            ctrl.sync();
            for p in 1..5 {
                h.program_page(Ppa::new(0, p), &data, &oob).unwrap();
            }
            let t0 = ctrl.host_ns();
            h.read_page(Ppa::new(0, 0)).unwrap();
            (ctrl.host_ns() - t0, ctrl.stats())
        };
        let (fifo, fifo_stats) = run(false);
        let (qos, qos_stats) = run(true);
        assert_eq!(fifo_stats.reads_promoted, 0, "FIFO never promotes");
        assert_eq!(qos_stats.reads_promoted, 1);
        assert!(
            2 * qos < fifo,
            "promoted read must beat the FIFO burst by 2×: {qos} vs {fifo} ns"
        );
        // The jumped programs still happen — pushed out, not dropped.
        assert_eq!(qos_stats.programs, fifo_stats.programs);
    }

    #[test]
    fn qos_read_suspends_an_inflight_erase() {
        let erase_ns = cfg(1, 1).chip.latency.erase_ns;
        let ctrl = FlashController::shared(cfg(1, 1).with_qos());
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0xA5);
        h.program_page(Ppa::new(1, 0), &data, &oob).unwrap();
        ctrl.sync();
        let t0 = ctrl.host_ns();

        h.erase_block(3).unwrap(); // in flight, 1.5 ms of array time
        h.read_page(Ppa::new(1, 0)).unwrap();
        let read_latency = ctrl.host_ns() - t0;
        assert!(
            read_latency < erase_ns / 4,
            "suspended erase must not gate the read: {read_latency} ns"
        );
        let s = ctrl.stats();
        assert_eq!(s.erase_suspends, 1);
        assert_eq!(s.reads_promoted, 1);
        assert_eq!(ctrl.die_flash_stats(0).erase_suspends, 1);
        // The erase still completes in full: its pulse remainder lands
        // after the read, pushing the die horizon past submit + erase.
        let merged = ctrl.sync();
        assert!(merged >= t0 + erase_ns + read_latency);
    }

    #[test]
    fn erase_suspend_resume_budget_is_bounded() {
        // tiny() carries erase_resume_limit = 2: the third and fourth
        // back-to-back reads must wait for the twice-suspended erase to
        // finish instead of suspending it again.
        let ctrl = FlashController::shared(cfg(1, 1).with_qos());
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0xA5);
        h.program_page(Ppa::new(1, 0), &data, &oob).unwrap();
        ctrl.sync();
        h.erase_block(3).unwrap();
        for _ in 0..4 {
            h.read_page(Ppa::new(1, 0)).unwrap();
        }
        let s = ctrl.stats();
        assert_eq!(
            s.erase_suspends, 2,
            "resume budget must bound suspensions: {s}"
        );
        assert_eq!(ctrl.die_flash_stats(0).erase_suspends, 2);
    }

    #[test]
    fn priority_lane_promotes_posted_reads() {
        // Bulk posted reads stay FIFO under QoS; the priority lane
        // promotes. Same traffic, different lane.
        let run = |lane: Lane| -> (u64, ControllerStats) {
            let ctrl = FlashController::shared(cfg(1, 1).with_qos());
            let mut h = FlashController::handles(&ctrl).remove(0);
            let (data, oob) = page(&h, 0x3C);
            h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
            ctrl.sync();
            for p in 1..4 {
                h.program_page(Ppa::new(0, p), &data, &oob).unwrap();
            }
            let t0 = ctrl.host_ns();
            h.set_context(CmdContext::host(lane));
            h.read_page(Ppa::new(0, 0)).unwrap();
            (h.last_read_done_ns() - t0, ctrl.stats())
        };
        let (bulk, bulk_stats) = run(Lane::Posted);
        let (prio, prio_stats) = run(Lane::PostedPriority);
        assert_eq!(bulk_stats.reads_promoted, 0, "bulk posted reads stay FIFO");
        assert_eq!(prio_stats.reads_promoted, 1);
        assert!(
            prio < bulk,
            "priority read must land before the posted burst drains: {prio} vs {bulk} ns"
        );
        assert_eq!(bulk_stats.posted_reads, 1);
        assert_eq!(prio_stats.posted_reads, 1, "priority reads are posted too");
    }

    #[test]
    fn read_latencies_record_host_reads_only() {
        let ctrl = FlashController::shared(cfg(1, 1).with_qos());
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0x0F);
        h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        ctrl.sync();
        h.read_page(Ppa::new(0, 0)).unwrap();
        h.set_context(CmdContext::INTERNAL);
        h.copyback_read(Ppa::new(0, 0)).unwrap();
        h.read_page(Ppa::new(0, 0)).unwrap();
        assert_eq!(
            ctrl.read_latency_count(),
            1,
            "copy-backs and firmware-internal reads are not host samples"
        );
        assert!(ctrl.read_latencies()[0] > 0);
    }

    #[test]
    fn borrowed_reads_schedule_exactly_like_owned_ones() {
        // Twin QoS controllers run one script — programs left in flight,
        // then reads in every lane — one through the owned reads, one
        // through the borrowed ones.
        let twin = || {
            let ctrl = FlashController::shared(cfg(2, 1).with_qos());
            let handles = FlashController::handles(&ctrl);
            (ctrl, handles)
        };
        let ((owned_ctrl, mut owned), (into_ctrl, mut into)) = (twin(), twin());
        let (data, oob) = page(&owned[0], 0x5A);
        let (mut d, mut o) = (vec![0xEE; data.len()], vec![0xEE; oob.len()]);
        for h in owned.iter_mut().chain(&mut into) {
            h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        }
        let script = [
            (0, CmdContext::default(), false),
            (1, CmdContext::host(Lane::PostedPriority), false),
            (0, CmdContext::host(Lane::Posted), false),
            (1, CmdContext::INTERNAL, true),
            (0, CmdContext::default(), true),
        ];
        for (step, (die, ctx, copyback)) in script.into_iter().enumerate() {
            for h in [&mut owned[die], &mut into[die]] {
                h.program_page(Ppa::new(0, step as u32 + 1), &data, &oob)
                    .unwrap();
                h.set_context(ctx);
            }
            let (img, ()) = if copyback {
                (
                    owned[die].copyback_read(Ppa::new(0, 0)).unwrap(),
                    into[die]
                        .copyback_read_into(Ppa::new(0, 0), &mut d, &mut o)
                        .unwrap(),
                )
            } else {
                (
                    owned[die].read_page(Ppa::new(0, 0)).unwrap(),
                    into[die]
                        .read_page_into(Ppa::new(0, 0), &mut d, &mut o)
                        .unwrap(),
                )
            };
            assert_eq!((&img.data, &img.oob), (&d, &o), "step {step}");
            assert_eq!(
                owned[die].last_read_done_ns(),
                into[die].last_read_done_ns(),
                "step {step}"
            );
            assert_eq!(owned_ctrl.host_ns(), into_ctrl.host_ns(), "step {step}");
            assert_eq!(owned_ctrl.stats(), into_ctrl.stats(), "step {step}");
            assert_eq!(owned_ctrl.flash_stats(), into_ctrl.flash_stats());
            assert_eq!(owned_ctrl.read_latencies(), into_ctrl.read_latencies());
        }
        assert!(into_ctrl.stats().reads_promoted > 0, "the script met QoS");

        // A rejected borrowed read is free and writes nothing.
        let before = (into_ctrl.stats(), into[0].last_read_done_ns());
        d.fill(0xEE);
        assert!(into[0]
            .read_page_into(Ppa::new(1, 0), &mut d, &mut o)
            .is_err());
        assert!(into[0]
            .read_page_into(Ppa::new(0, 0), &mut d, &mut o[1..])
            .is_err());
        assert!(d.iter().all(|&b| b == 0xEE));
        assert_eq!((into_ctrl.stats(), into[0].last_read_done_ns()), before);
    }

    #[test]
    fn state_is_identical_to_a_bare_chip() {
        // The scheduler reorders *time*, never state: a die driven through
        // the controller holds exactly the bytes a bare chip would.
        let dc = DeviceConfig::tiny()
            .with_mode(FlashMode::Slc)
            .with_disturb(DisturbRates::none());
        let mut bare = FlashChip::new(dc.clone());
        let ctrl = FlashController::shared(ControllerConfig::single(dc));
        let mut h = FlashController::handles(&ctrl).remove(0);

        let g = *bare.geometry();
        let oob = vec![0xFF; g.oob_size];
        let mut data = vec![0xFF; g.page_size];
        data[..32].fill(0x3C);
        for t in [&mut bare as &mut dyn Nand, &mut h as &mut dyn Nand] {
            t.program_page(Ppa::new(1, 0), &data, &oob).unwrap();
            t.append_region(Ppa::new(1, 0), 100, &[0x11; 8], 4, &[0x00; 2])
                .unwrap();
            t.erase_block(2).unwrap();
        }
        assert_eq!(
            bare.peek_data(Ppa::new(1, 0)).map(<[u8]>::to_vec),
            h.peek_data(Ppa::new(1, 0))
        );
        assert_eq!(
            Nand::flash_stats(&bare).page_reprograms,
            h.flash_stats().page_reprograms
        );
    }

    use ipa_trace::RingRecorder;

    fn attach_recorder(ctrl: &Arc<FlashController>) -> Arc<Mutex<RingRecorder>> {
        let rec = Arc::new(Mutex::new(RingRecorder::new(1 << 16)));
        ctrl.set_tracer(rec.clone());
        rec
    }

    #[test]
    fn tracing_records_command_lifecycles() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let rec = attach_recorder(&ctrl);
        let mut handles = FlashController::handles(&ctrl);
        let (data, oob) = page(&handles[0], 0x5A);
        handles[0]
            .program_page(Ppa::new(0, 0), &data, &oob)
            .unwrap();
        ctrl.sync();
        handles[0].read_page(Ppa::new(0, 0)).unwrap();

        let events = lock(&rec).to_vec();
        let completed: Vec<_> = events
            .iter()
            .filter(|e| e.phase == TracePhase::Completed)
            .collect();
        assert_eq!(completed.len(), 2, "one program + one read completed");
        assert_eq!(completed[0].kind, CommandKind::Program);
        assert_eq!(completed[1].kind, CommandKind::Read);
        assert_eq!(completed[1].origin, CommandOrigin::Host);
        // The program (posted) also dispatched; the read did not.
        assert_eq!(
            events
                .iter()
                .filter(|e| e.phase == TracePhase::Dispatched)
                .count(),
            1
        );
        // Phases of one command share its id and are time-ordered.
        let read_cmd = completed[1].cmd;
        let read_evs: Vec<_> = events.iter().filter(|e| e.cmd == read_cmd).collect();
        assert_eq!(read_evs.len(), 3); // submitted, started, completed
        assert!(read_evs.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(lock(&rec).dropped(), 0);
    }

    #[test]
    fn tracing_marks_promotions_and_suspend_resume_pairs() {
        let ctrl = FlashController::shared(cfg(1, 1).with_qos());
        let rec = attach_recorder(&ctrl);
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0xA5);
        h.program_page(Ppa::new(1, 0), &data, &oob).unwrap();
        ctrl.sync();
        h.erase_block(3).unwrap();
        h.read_page(Ppa::new(1, 0)).unwrap();

        let events = lock(&rec).to_vec();
        let stats = ctrl.stats();
        let count = |p: TracePhase| events.iter().filter(|e| e.phase == p).count() as u64;
        assert_eq!(count(TracePhase::Promoted), stats.reads_promoted);
        assert_eq!(count(TracePhase::Suspended), stats.erase_suspends);
        assert_eq!(count(TracePhase::Resumed), stats.erase_suspends);
        assert!(stats.erase_suspends > 0, "scenario must suspend the erase");
        // The suspend instants name the erase, not the read.
        let susp = events
            .iter()
            .find(|e| e.phase == TracePhase::Suspended)
            .unwrap();
        assert_eq!(susp.kind, CommandKind::Erase);
        let resume = events
            .iter()
            .find(|e| e.phase == TracePhase::Resumed)
            .unwrap();
        assert_eq!(resume.cmd, susp.cmd, "pair shares the erase's id");
        assert!(resume.at_ns >= susp.at_ns);
    }

    #[test]
    fn tracing_never_perturbs_timing_or_state() {
        let run = |traced: bool| -> (u64, ControllerStats) {
            let ctrl = FlashController::shared(cfg(2, 2).with_qos());
            if traced {
                attach_recorder(&ctrl);
            }
            let mut handles = FlashController::handles(&ctrl);
            for (i, h) in handles.iter_mut().enumerate() {
                let (data, oob) = page(h, 0x0F);
                h.program_page(Ppa::new(0, i as u32), &data, &oob).unwrap();
                h.read_page(Ppa::new(0, i as u32)).unwrap();
                h.erase_block(7).unwrap();
            }
            let t = ctrl.sync();
            (t, ctrl.stats())
        };
        assert_eq!(run(false), run(true), "tracing must be observation-only");
    }

    #[test]
    fn internal_and_lane_origins_are_attributed() {
        let ctrl = FlashController::shared(cfg(1, 1));
        let rec = attach_recorder(&ctrl);
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0x3C);
        h.set_context(CmdContext::INTERNAL);
        h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        ctrl.sync();
        h.set_context(CmdContext::host(Lane::Posted));
        h.read_page(Ppa::new(0, 0)).unwrap();

        let events = lock(&rec).to_vec();
        let origin_of = |k: CommandKind, nth: usize| {
            events
                .iter()
                .filter(|e| e.kind == k && e.phase == TracePhase::Completed)
                .nth(nth)
                .unwrap()
                .origin
        };
        assert_eq!(origin_of(CommandKind::Program, 0), CommandOrigin::Internal);
        assert_eq!(origin_of(CommandKind::Read, 0), CommandOrigin::ReadAhead);
    }

    #[test]
    fn a_posted_lane_on_one_die_leaves_another_dies_blocking_read_alone() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let rec = attach_recorder(&ctrl);
        let mut handles = FlashController::handles(&ctrl);
        let (data, oob) = page(&handles[0], 0xA5);
        for h in handles.iter_mut() {
            h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        }
        ctrl.sync();
        // Keep die 1 busy so its read lands after die 0's.
        handles[1]
            .program_page(Ppa::new(0, 1), &data, &oob)
            .unwrap();
        let t0 = ctrl.host_ns();

        // Die 0 carries a posted vector member; die 1's owner blocks.
        handles[0].set_context(CmdContext::host(Lane::Posted));
        handles[0].read_page(Ppa::new(0, 0)).unwrap();
        let posted_done = handles[0].last_read_done_ns();
        assert_eq!(ctrl.host_ns(), t0, "the posted read leaves the host clock");
        handles[1].read_page(Ppa::new(0, 0)).unwrap();

        let blocking_done = handles[1].last_read_done_ns();
        assert_eq!(ctrl.host_ns(), blocking_done, "blocking read waits");
        assert!(blocking_done > posted_done);
        assert_eq!(ctrl.read_latency_count(), 2, "both are host-read samples");
        let s = ctrl.stats();
        assert_eq!(s.posted_reads, 1, "only die 0's read was posted");
        assert_eq!(
            handles[0].last_read_done_ns(),
            posted_done,
            "die 0's completion excludes die 1's read"
        );
        let origins: Vec<_> = lock(&rec)
            .to_vec()
            .iter()
            .filter(|e| e.kind == CommandKind::Read && e.phase == TracePhase::Completed)
            .map(|e| (e.die, e.origin))
            .collect();
        assert_eq!(
            origins,
            [(0, CommandOrigin::ReadAhead), (1, CommandOrigin::Host)]
        );
    }

    #[test]
    fn busy_fractions_are_sane_and_surface_in_stats() {
        let ctrl = FlashController::shared(cfg(2, 1));
        let mut handles = FlashController::handles(&ctrl);
        let (data, oob) = page(&handles[0], 0x00);
        for p in 0..4 {
            handles[0]
                .program_page(Ppa::new(0, p), &data, &oob)
                .unwrap();
        }
        ctrl.sync();
        let busy0 = ctrl.die_busy_fraction(0);
        assert!(busy0 > 0.0 && busy0 <= 1.0, "die 0 worked: {busy0}");
        assert_eq!(ctrl.die_busy_fraction(1), 0.0, "die 1 idle");
        let ch0 = ctrl.channel_busy_fraction(0);
        assert!(ch0 > 0.0 && ch0 < busy0, "bus busy but less than array");
        assert_eq!(ctrl.channel_busy_fraction(1), 0.0);
        let s = ctrl.stats();
        // Integer ppm and the f64 fraction agree to rounding.
        assert!((s.die_util_ppm_max as f64 - busy0 * 1e6).abs() <= 1.0);
        assert!((s.chan_util_ppm_max as f64 - ch0 * 1e6).abs() <= 1.0);
    }

    #[test]
    fn bounded_latency_mode_keeps_the_histogram_only() {
        let ctrl = FlashController::shared(cfg(1, 1));
        ctrl.set_bounded_read_latencies(true);
        let mut h = FlashController::handles(&ctrl).remove(0);
        let (data, oob) = page(&h, 0x11);
        h.program_page(Ppa::new(0, 0), &data, &oob).unwrap();
        ctrl.sync();
        for _ in 0..5 {
            h.read_page(Ppa::new(0, 0)).unwrap();
        }
        assert!(ctrl.read_latencies().is_empty(), "exact buffer disabled");
        let hist = ctrl.read_latency_histogram();
        assert_eq!(hist.count(), 5);
        assert!(hist.percentile(0.5) > 0);
    }

    #[test]
    fn concurrent_submitters_preserve_per_die_logical_state() {
        // The tentpole's contract: N threads hammering disjoint dies
        // through one shared controller leave exactly the bytes a serial
        // run would, and the monotone counters add up.
        use std::thread;
        let ctrl = FlashController::shared(cfg(2, 2));
        let handles = FlashController::handles(&ctrl);
        let per_die = 8u32;
        thread::scope(|s| {
            for mut h in handles {
                s.spawn(move || {
                    let (data, oob) = page(&h, 0x20 + h.die() as u8);
                    for p in 0..per_die {
                        h.program_page(Ppa::new(0, p), &data, &oob).unwrap();
                    }
                    for p in 0..per_die {
                        h.read_page(Ppa::new(0, p)).unwrap();
                    }
                });
            }
        });
        ctrl.sync();
        let s = ctrl.stats();
        assert_eq!(s.programs, 4 * per_die as u64);
        assert_eq!(s.reads, 4 * per_die as u64);
        for die in 0..4u32 {
            let fill = 0x20 + die as u8;
            let img = ctrl.with_chip(die, |chip| {
                chip.peek_data(Ppa::new(0, 0)).map(<[u8]>::to_vec)
            });
            assert_eq!(img.unwrap()[0], fill, "die {die} holds its own bytes");
        }
    }
}
