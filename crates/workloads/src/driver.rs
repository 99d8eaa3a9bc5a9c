//! The benchmark driver: load → warm up → measure, with deterministic
//! seeding and simulated-time throughput.
//!
//! Throughput follows the simulator's time model: the run takes as long as
//! the busier of the data/log devices, plus a fixed CPU cost per
//! transaction (the OpenSSD experiments are I/O-bound, so device time
//! dominates exactly as in the paper).

use rand::rngs::StdRng;
use rand::SeedableRng;

use ipa_controller::{ControllerConfig, ControllerStats, FlashController};
use ipa_core::NmScheme;
use ipa_flash::{DeviceConfig, DisturbRates, FlashMode, FlashStats, Geometry};
use ipa_ftl::{
    BlockDevice, DeviceStats, FtlConfig, IoRequest, ShardedFtl, StripePolicy, WriteStrategy,
};
use ipa_heat::{DefaultPolicy, HeatDevice, HeatStats};
use ipa_maint::{MaintStats, MaintainedFtl};
use ipa_storage::{EngineConfig, PoolStats, Result, StorageEngine, TableKind};
use ipa_trace::{LatencyHistogram, MetricsSnapshot, RingRecorder, TraceEvent};

use crate::metrics::engine_metrics;
use crate::spec::{build, Benchmark, WorkloadKind};

/// Host CPU time modeled per transaction, nanoseconds: the gap a client
/// stream spends between its transactions.
pub const CPU_NS_PER_TX: u64 = 30_000;

/// Simulated per-transaction latency distribution (device time only; add
/// [`CPU_NS_PER_TX`] for end-to-end figures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Samples the distribution was computed from.
    pub count: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// The deep-tail percentile queueing effects live in: a multi-client
    /// run with contended dies shows up here long before it moves p50.
    pub p999_ns: u64,
    pub max_ns: u64,
}

impl LatencyPercentiles {
    /// Compute from raw samples (sorted internally). An empty sample set —
    /// a client stream that never got a transaction in, a zero-length
    /// measurement window — yields all-zero percentiles rather than
    /// panicking.
    pub fn from_samples(mut samples: Vec<u64>) -> LatencyPercentiles {
        if samples.is_empty() {
            return LatencyPercentiles::default();
        }
        samples.sort_unstable();
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
        LatencyPercentiles {
            count: samples.len() as u64,
            p50_ns: at(0.50),
            p95_ns: at(0.95),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
            max_ns: *samples.last().unwrap(),
        }
    }

    /// Compute from a bounded log2 histogram — the long-soak path, where
    /// no exact sample buffer exists. Each percentile is the histogram's
    /// bucket-upper-bound estimate, clamped to the observed min/max, so
    /// it lands in the same log2 bucket as the exact-sample answer.
    pub fn from_histogram(h: &LatencyHistogram) -> LatencyPercentiles {
        if h.is_empty() {
            return LatencyPercentiles::default();
        }
        LatencyPercentiles {
            count: h.count(),
            p50_ns: h.percentile(0.50),
            p95_ns: h.percentile(0.95),
            p99_ns: h.percentile(0.99),
            p999_ns: h.percentile(0.999),
            max_ns: h.max(),
        }
    }
}

/// A controller topology for benchmark runs: how many channels and dies
/// the device spreads over, how many planes each die splits into, and
/// how LBAs stripe onto the dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub channels: u32,
    pub dies_per_channel: u32,
    /// Planes per die (multi-plane program pairing); 1 = classic dies.
    pub planes: u32,
    pub policy: StripePolicy,
}

impl Topology {
    pub fn new(channels: u32, dies_per_channel: u32, policy: StripePolicy) -> Self {
        Topology {
            channels,
            dies_per_channel,
            planes: 1,
            policy,
        }
    }

    /// The 1 × 1 baseline every sweep compares against.
    pub fn single() -> Self {
        Topology::new(1, 1, StripePolicy::RoundRobin)
    }

    /// Split every die into `planes` planes. Channels × dies are
    /// untouched, so a plane sweep varies per-die pairing alone.
    pub fn with_planes(mut self, planes: u32) -> Self {
        assert!(planes >= 1, "a die has at least one plane");
        self.planes = planes;
        self
    }

    #[inline]
    pub fn dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// This topology's controller over dies of `chip`, with an optional
    /// NCQ cap and, when `qos`, latency-QoS scheduling.
    fn controller(
        &self,
        chip: DeviceConfig,
        queue_cap: Option<usize>,
        qos: bool,
    ) -> ControllerConfig {
        let mut controller = ControllerConfig::new(self.channels, self.dies_per_channel, chip);
        if let Some(cap) = queue_cap {
            controller = controller.with_queue_cap(cap);
        }
        if qos {
            controller = controller.with_qos();
        }
        controller
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}ch×{}d/{}",
            self.channels,
            self.dies_per_channel,
            match self.policy {
                StripePolicy::RoundRobin => "rr",
                StripePolicy::Hash => "hash",
            }
        )?;
        if self.planes > 1 {
            write!(f, "×{}p", self.planes)?;
        }
        Ok(())
    }
}

/// Device maintenance policy for a benchmark run: whether low-water GC
/// runs inline with host writes or on the background scheduler, and the
/// controller's NCQ queue cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintMode {
    /// Defer low-water GC to an [`ipa_maint::MaintenanceScheduler`]
    /// dispatching reclaim steps onto idle dies.
    pub background_gc: bool,
    /// Per-die cap on posted host commands (NCQ depth); `None` leaves the
    /// queues unbounded.
    pub queue_cap: Option<usize>,
    /// Latency-QoS scheduling on the controller
    /// ([`ControllerConfig::with_qos`]): short host reads jump queued
    /// programs and suspend in-flight erases. Off = FIFO reference
    /// timing.
    pub qos: bool,
}

impl MaintMode {
    /// The historic behaviour: inline GC, unbounded queues.
    pub fn inline() -> Self {
        MaintMode::default()
    }

    /// Background GC with an optional NCQ cap.
    pub fn background(queue_cap: Option<usize>) -> Self {
        MaintMode {
            background_gc: true,
            queue_cap,
            ..MaintMode::default()
        }
    }

    /// Inline GC, but with an NCQ cap (isolates the cap's effect).
    pub fn capped(queue_cap: usize) -> Self {
        MaintMode {
            queue_cap: Some(queue_cap),
            ..MaintMode::default()
        }
    }

    /// Enable latency-QoS scheduling (read promotion + erase suspend) on
    /// the controller.
    pub fn with_qos(mut self) -> Self {
        self.qos = true;
        self
    }
}

impl std::fmt::Display for MaintMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}",
            if self.background_gc { "bg" } else { "inline" },
            match self.queue_cap {
                Some(cap) => format!("q{cap}"),
                None => "q∞".into(),
            }
        )?;
        if self.qos {
            write!(f, "+qos")?;
        }
        Ok(())
    }
}

/// One client stream's view of a multi-client run.
#[derive(Debug, Clone)]
pub struct StreamLatency {
    /// Stream index (0-based).
    pub stream: u32,
    /// Transactions this stream committed in the measured window.
    pub transactions: u64,
    /// This stream's own latency distribution.
    pub latency: LatencyPercentiles,
}

/// Driver parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Measured transactions.
    pub transactions: u64,
    /// Unmeasured warm-up transactions.
    pub warmup: u64,
    /// Workload RNG seed (same seed ⇒ identical run).
    pub seed: u64,
    /// Buffer-pool frames; `None` uses the paper-like default of a buffer
    /// far smaller than the working set (evictions dominate).
    pub buffer_frames: Option<usize>,
    /// When set, run until this much *simulated* time has elapsed in the
    /// measured window instead of a fixed transaction count — the paper's
    /// Table 1 methodology (fixed two-hour runs), which is what makes the
    /// faster system show *more* absolute I/O.
    pub simulated_duration_ns: Option<u64>,
    /// Concurrent client streams. 1 reproduces the classic single-client
    /// walk; K > 1 interleaves K independently-seeded transaction streams
    /// round-robin, so posted device work from one stream queues under the
    /// next — the condition that surfaces controller queueing in the
    /// latency tail.
    pub streams: u32,
    /// Buffer-pool read-ahead window (pages posted as one vectored read
    /// past a sequential miss); 0 disables read-ahead.
    pub readahead: usize,
    /// Stripe the WAL over its own `(channels, dies_per_channel)` SLC
    /// controller; `None` keeps the historic single-chip log device.
    pub wal_stripe: Option<(u32, u32)>,
    /// Commits per WAL flush; `None` keeps the loaded-multi-client
    /// default (32). Small values make the WAL the bottleneck — the
    /// configuration where striping the log pays.
    pub group_commit: Option<u32>,
    /// Attach a bounded ring recorder of this capacity to the data
    /// controller for the measured window; the retained events land in
    /// [`RunResult::trace`]. `None` runs untraced (zero cost).
    pub trace_capacity: Option<usize>,
    /// Draw benchmark primary keys Zipf(θ)-skewed instead of uniformly
    /// (via [`Benchmark::set_key_skew`]); `None` keeps each benchmark's
    /// native distribution.
    pub zipf_theta: Option<f64>,
    /// Mount the device behind an [`ipa_heat::HeatDevice`] with this
    /// placement policy: hot ranges absorb into the SLC tier and the
    /// maintenance scheduler runs destage/wear-shifting jobs. Implies
    /// background GC.
    pub heat: Option<DefaultPolicy>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            transactions: 10_000,
            warmup: 1_000,
            seed: 0x7C_B5EED,
            buffer_frames: None,
            simulated_duration_ns: None,
            streams: 1,
            readahead: 0,
            wal_stripe: None,
            group_commit: None,
            trace_capacity: None,
            zipf_theta: None,
            heat: None,
        }
    }
}

impl DriverConfig {
    pub fn quick() -> Self {
        DriverConfig {
            transactions: 2_000,
            warmup: 200,
            ..Default::default()
        }
    }

    pub fn with_transactions(mut self, n: u64) -> Self {
        self.transactions = n;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run for a fixed simulated duration (Table 1 style).
    pub fn for_simulated_secs(mut self, secs: f64) -> Self {
        self.simulated_duration_ns = Some((secs * 1e9) as u64);
        self
    }

    /// Issue transactions from `n` interleaved client streams.
    pub fn with_streams(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one client stream");
        self.streams = n;
        self
    }

    /// Enable stripe-aware read-ahead with the given window.
    pub fn with_readahead(mut self, window: usize) -> Self {
        self.readahead = window;
        self
    }

    /// Stripe the WAL over a `channels × dies_per_channel` controller.
    pub fn with_wal_stripe(mut self, channels: u32, dies_per_channel: u32) -> Self {
        self.wal_stripe = Some((channels, dies_per_channel));
        self
    }

    /// Override commits-per-WAL-flush (1 = flush on every commit).
    pub fn with_group_commit(mut self, group: u32) -> Self {
        assert!(group >= 1);
        self.group_commit = Some(group);
        self
    }

    /// Record the measured window's command lifecycle into a ring of at
    /// most `capacity` events ([`RunResult::trace`]).
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Mount the heat-placement device with this policy.
    pub fn with_heat(mut self, policy: DefaultPolicy) -> Self {
        self.heat = Some(policy);
        self
    }
}

/// Everything a bench table needs about one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub transactions: u64,
    /// Simulated wall time of the measured window, nanoseconds.
    pub elapsed_ns: u64,
    /// Committed transactions per simulated second.
    pub tps: f64,
    /// Device counters over the measured window.
    pub device: DeviceStats,
    /// Log-device counters over the measured window; always `Some` (the
    /// engine always logs — the `Option` is a shape frozen by
    /// `benchmark/`). `wal_stripe_writes` lives here.
    pub wal_device: Option<DeviceStats>,
    /// Raw flash counters over the measured window.
    pub flash: FlashStats,
    /// Buffer-pool counters (whole run).
    pub pool: PoolStats,
    /// Peak block wear at the end of the run.
    pub max_erase_count: u32,
    /// Raw erase blocks of the device (for per-silicon wear comparisons).
    pub raw_blocks: u32,
    /// Per-transaction simulated device-time distribution (all streams).
    pub latency: LatencyPercentiles,
    /// Per-*read* device latency over the measured window (submit→done
    /// of host-visible synchronous reads at the controller) — the QoS
    /// SLO metric; `p999_ns` here is the sweep's `p999_read_ns` column.
    /// All-zero when the device has no controller.
    pub read_latency: LatencyPercentiles,
    /// Per-stream distributions; one entry per client stream when the run
    /// used `DriverConfig::streams > 1`, empty for single-client runs.
    pub per_stream: Vec<StreamLatency>,
    /// Scheduler counters (whole run), when the device is a multi-channel
    /// controller.
    pub controller: Option<ControllerStats>,
    /// Background-maintenance counters, when the device runs GC on the
    /// idle-die scheduler ([`MaintMode::background`]).
    pub maint: Option<MaintStats>,
    /// Heat-placement counters, when the run mounted the device behind a
    /// [`HeatDevice`] ([`DriverConfig::with_heat`]).
    pub heat: Option<HeatStats>,
    /// Command lifecycle events retained by the measured window's ring
    /// recorder; empty unless [`DriverConfig::trace_capacity`] was set.
    pub trace: Vec<TraceEvent>,
    /// Events the ring evicted (0 = the trace is complete).
    pub trace_dropped: u64,
    /// The unified metrics tree at end of run (whole-run totals; window
    /// with [`MetricsSnapshot::delta_since`] against another snapshot).
    pub metrics: MetricsSnapshot,
}

impl RunResult {
    /// Table 1's "Page Migrations per Host Write".
    pub fn migrations_per_host_write(&self) -> f64 {
        self.device.migrations_per_host_write()
    }

    /// Table 1's "GC Erases per Host Write".
    pub fn erases_per_host_write(&self) -> f64 {
        self.device.erases_per_host_write()
    }

    /// Page programs (first-time + in-place) per simulated second — the
    /// plane-scaling sweep's program-bandwidth metric.
    pub fn programs_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.flash.total_programs() as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }

    /// Per-stream (per-tenant) deep-tail latencies, stream-indexed. Empty
    /// for single-client runs.
    pub fn per_stream_p999_ns(&self) -> Vec<u64> {
        self.per_stream.iter().map(|s| s.latency.p999_ns).collect()
    }

    /// Cross-stream p99.9 fairness: the max/min ratio of per-stream deep
    /// tails ([`fairness_spread`]). 1.0 = perfectly fair.
    pub fn p999_spread(&self) -> f64 {
        fairness_spread(&self.per_stream_p999_ns())
    }
}

/// Cross-client fairness of a set of per-client p99.9 latencies: the
/// max/min ratio over the clients that *measured anything*. 1.0 is
/// perfect fairness; a starved-but-measuring client drives the ratio up.
///
/// A zero tail means the stream recorded no reads at all (a write-only
/// tenant, or a round too short to sample) — not an infinitely fast one —
/// so zero entries are excluded instead of poisoning the ratio with a
/// zero denominator (the old behaviour returned `inf`, which any
/// `spread < threshold` assertion silently converts into a guaranteed
/// failure, and one sample plus rounding could produce NaN). An empty
/// set, or a set with no measuring streams, reports 1.0.
pub fn fairness_spread(p999s: &[u64]) -> f64 {
    let measured = p999s.iter().copied().filter(|&p| p > 0);
    let Some(max) = measured.clone().max() else {
        return 1.0;
    };
    let min = measured.min().unwrap();
    max as f64 / min as f64
}

/// One sequential-scan measurement (the read-ahead experiment).
#[derive(Debug, Clone, Copy)]
pub struct ScanResult {
    /// Pages fetched by the pool during the scan (pool misses).
    pub pages: u64,
    /// Simulated time of the scan window, nanoseconds.
    pub elapsed_ns: u64,
    /// Fetches served from posted read-ahead completions.
    pub readahead_hits: u64,
    /// Vectored read submissions the pool posted.
    pub vectored_reads: u64,
}

impl ScanResult {
    /// Scanned pages per simulated second.
    pub fn pages_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.pages as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }
}

/// The driver.
pub struct Driver;

impl Driver {
    /// Load the benchmark into the engine and run the measured window.
    pub fn run(
        bench: &mut dyn Benchmark,
        engine: &mut StorageEngine,
        cfg: &DriverConfig,
    ) -> Result<RunResult> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        bench.set_key_skew(cfg.zipf_theta);
        bench.load(engine, &mut rng)?;

        for _ in 0..cfg.warmup {
            bench.run_tx(engine, &mut rng)?;
        }
        engine.flush_all()?;

        // Stream 0 continues the warm-up RNG (identical to the historic
        // single-client behaviour); extra streams get derived seeds.
        let streams = cfg.streams.max(1) as usize;
        let mut stream_rngs: Vec<StdRng> = Vec::with_capacity(streams);
        stream_rngs.push(rng);
        for s in 1..streams {
            stream_rngs.push(StdRng::seed_from_u64(
                cfg.seed ^ (s as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            ));
        }

        let before = engine.stats();
        let ctrl = Self::controller_of(engine);
        // Read-latency samples accumulated before the measured window
        // (load + warm-up) are excluded by remembering the cursor.
        let read_lat_cursor = ctrl.as_ref().map(|c| c.read_latency_count()).unwrap_or(0);
        let recorder = cfg.trace_capacity.and_then(|cap| {
            ctrl.as_ref().map(|c| {
                let rec = std::sync::Arc::new(std::sync::Mutex::new(RingRecorder::new(cap)));
                let sink: ipa_trace::SharedSink = rec.clone();
                c.set_tracer(sink);
                rec
            })
        });
        let mut committed: u64 = 0;
        let mut samples: Vec<u64> = Vec::with_capacity(4096);
        let mut stream_samples: Vec<Vec<u64>> = vec![Vec::new(); streams];
        let mut stream_clock_span: u64 = 0;
        if streams == 1 {
            // The historic single-client walk: one thread, every device
            // wait on the critical path, CPU cost strictly serial.
            loop {
                match cfg.simulated_duration_ns {
                    Some(limit) => {
                        let device_ns = engine.elapsed_ns() - before.elapsed_ns;
                        if device_ns + committed * CPU_NS_PER_TX >= limit {
                            break;
                        }
                    }
                    None => {
                        if committed >= cfg.transactions {
                            break;
                        }
                    }
                }
                let t0 = engine.elapsed_ns();
                bench.run_tx(engine, &mut stream_rngs[0])?;
                samples.push(engine.elapsed_ns() - t0);
                committed += 1;
            }
        } else {
            // Multi-client: every stream keeps its own logical clock (its
            // thread's "now", including per-transaction CPU time). The
            // next transaction always comes from the earliest-clock stream
            // — the client that would reach the device first — and its
            // commands are submitted at that instant, so reads from
            // different streams overlap while contended dies and channels
            // still queue. A stream's latency sample is the device-time
            // advance of its own clock — waits included, queueing behind
            // other streams' posted work included, CPU excluded — the same
            // quantity the single-client path samples.
            let start_ns = engine.pool().device().submission_clock_ns();
            let mut clocks = vec![start_ns; streams];
            loop {
                let virtual_now = *clocks.iter().max().unwrap();
                match cfg.simulated_duration_ns {
                    Some(limit) => {
                        if virtual_now - start_ns >= limit {
                            break;
                        }
                    }
                    None => {
                        if committed >= cfg.transactions {
                            break;
                        }
                    }
                }
                let s = (0..streams)
                    .min_by_key(|&i| clocks[i])
                    .expect("streams >= 1");
                engine
                    .pool_mut()
                    .device_mut()
                    .set_submission_clock_ns(clocks[s]);
                bench.run_tx(engine, &mut stream_rngs[s])?;
                let device_done = engine.pool().device().submission_clock_ns();
                let dt = device_done - clocks[s];
                // CPU advances the stream's clock (it gates when this
                // client can submit again) but is not device latency.
                clocks[s] = device_done + CPU_NS_PER_TX;
                samples.push(dt);
                stream_samples[s].push(dt);
                committed += 1;
            }
            stream_clock_span = clocks.iter().max().unwrap() - start_ns;
        }
        engine.flush_all()?;
        let after = engine.stats();

        // Detach the recorder before results are built so the trace ends
        // with the measured window, then take its retained events.
        let (trace, trace_dropped) = match &recorder {
            Some(rec) => {
                if let Some(c) = &ctrl {
                    c.clear_tracer();
                }
                let rec = rec
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                (rec.to_vec(), rec.dropped())
            }
            None => (Vec::new(), 0),
        };
        let per_stream = if streams > 1 {
            stream_samples
                .into_iter()
                .enumerate()
                .map(|(s, samples)| StreamLatency {
                    stream: s as u32,
                    transactions: samples.len() as u64,
                    latency: LatencyPercentiles::from_samples(samples),
                })
                .collect()
        } else {
            Vec::new()
        };

        let device_ns = after.elapsed_ns - before.elapsed_ns;
        let elapsed_ns = if streams == 1 {
            device_ns + committed * CPU_NS_PER_TX
        } else {
            // Client CPU time is already inside the stream clocks and runs
            // concurrently across streams; the run takes as long as the
            // busier of "last client done" and "device (incl. posted
            // background work and the WAL) done".
            device_ns.max(stream_clock_span)
        };
        let tps = committed as f64 / (elapsed_ns as f64 / 1e9);

        Ok(RunResult {
            transactions: committed,
            elapsed_ns,
            tps,
            device: after.device.delta_since(&before.device),
            wal_device: after
                .wal_device
                .zip(before.wal_device)
                .map(|(now, then)| now.delta_since(&then)),
            flash: after.flash.delta_since(&before.flash),
            pool: after.pool,
            max_erase_count: after.max_erase_count,
            raw_blocks: engine.pool().device().raw_blocks(),
            latency: LatencyPercentiles::from_samples(samples),
            read_latency: match &ctrl {
                Some(c) => {
                    LatencyPercentiles::from_samples(c.read_latencies()[read_lat_cursor..].to_vec())
                }
                None => LatencyPercentiles::default(),
            },
            per_stream,
            controller: engine.pool().device().controller_stats(),
            maint: Self::maint_stats_of(engine),
            heat: engine.device_as::<HeatDevice>().map(HeatDevice::heat_stats),
            trace,
            trace_dropped,
            metrics: engine_metrics(engine),
        })
    }

    /// The maintenance scheduler's counters, when the engine's device
    /// runs one (bare under a `MaintainedFtl`, or inside a `HeatDevice`).
    pub(crate) fn maint_stats_of(engine: &StorageEngine) -> Option<MaintStats> {
        let maintained = engine.device_as::<MaintainedFtl>();
        let heat = || {
            engine
                .device_as::<HeatDevice>()
                .map(HeatDevice::maint_stats)
        };
        maintained.map(MaintainedFtl::maint_stats).or_else(heat)
    }

    /// The controller behind the engine's device, whichever layers wrap
    /// it. `None` for single-chip devices.
    pub fn controller_of(engine: &StorageEngine) -> Option<std::sync::Arc<FlashController>> {
        engine.pool().device().controller().cloned()
    }

    /// One-call experiment: build the benchmark, build `spec`'s engine
    /// sized for it, run. Combine a striped spec with `cfg.streams > 1`
    /// so queueing effects reach the latency tail.
    pub fn run_spec(
        kind: WorkloadKind,
        scale: u32,
        spec: &StackSpec,
        cfg: &DriverConfig,
    ) -> Result<RunResult> {
        let mut bench = build(kind, scale, PAGE_SIZE);
        let mut engine = spec.build(bench.as_mut(), PAGE_SIZE, cfg)?;
        Self::run(bench.as_mut(), &mut engine, cfg)
    }

    /// [`StackSpec::chip`] + [`StackSpec::build`] with only the buffer
    /// size taken from a driver config.
    pub fn make_engine(
        bench: &mut dyn Benchmark,
        strategy: WriteStrategy,
        scheme: NmScheme,
        mode: FlashMode,
        page_size: usize,
        buffer_frames: Option<usize>,
    ) -> Result<StorageEngine> {
        let cfg = DriverConfig {
            buffer_frames,
            ..Default::default()
        };
        StackSpec::chip(strategy, scheme, mode).build(bench, page_size, &cfg)
    }

    /// [`StackSpec::striped`] + [`StackSpec::build`].
    #[allow(clippy::too_many_arguments)]
    pub fn make_maintained_engine(
        bench: &mut dyn Benchmark,
        strategy: WriteStrategy,
        scheme: NmScheme,
        mode: FlashMode,
        page_size: usize,
        topology: Topology,
        maint: MaintMode,
        cfg: &DriverConfig,
    ) -> Result<StorageEngine> {
        let spec = StackSpec::chip(strategy, scheme, mode).striped(topology, maint);
        spec.build(bench, page_size, cfg)
    }

    /// The read-ahead experiment on a freshly built engine: load the
    /// benchmark, then cold-scan its largest populated heap table end to
    /// end, `passes` times, with the cache dropped between passes so
    /// every page is fetched from flash. With read-ahead enabled
    /// (`cfg.readahead` at [`StackSpec::build`] time) the pool posts
    /// neighbour fetches as vectored reads, so a round-robin-striped
    /// table streams off all channels at once; without it every page
    /// pays its sense + transfer serially.
    pub fn sequential_scan(
        bench: &mut dyn Benchmark,
        engine: &mut StorageEngine,
        passes: u32,
        cfg: &DriverConfig,
    ) -> Result<ScanResult> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        bench.load(engine, &mut rng)?;
        engine.flush_all()?;
        // Budgeted-but-empty append targets like TPC-B's history don't
        // make a scan.
        let t = bench
            .tables()
            .into_iter()
            .filter(|t| t.kind == TableKind::Heap)
            .filter_map(|t| engine.table(&t.name).ok())
            .max_by_key(|&id| engine.table_info(id).allocated_pages)
            .expect("benchmark has a heap table");
        let before = engine.stats();
        // Measure the data device's own horizon: a scan writes nothing,
        // so the engine-level max(data, wal) clock would hide it behind
        // log time from the load phase.
        let device_t0 = engine.pool().device().elapsed_ns();
        for _ in 0..passes {
            engine.restart_clean()?;
            engine.scan(t, |_, _| {})?;
        }
        let after = engine.stats();
        let device = after.device.delta_since(&before.device);
        Ok(ScanResult {
            pages: after.pool.misses - before.pool.misses,
            elapsed_ns: engine.pool().device().elapsed_ns() - device_t0,
            readahead_hits: device.readahead_hits,
            vectored_reads: device.vectored_reads,
        })
    }
}

/// DBMS page size of every one-call experiment (the paper's 8 KiB).
const PAGE_SIZE: usize = 8 * 1024;

/// Which device/engine stack a run mounts: the write path, the flash
/// mode, and — for a striped device — the controller topology and its
/// maintenance policy. Host-side tuning (buffer frames, read-ahead, WAL
/// striping, group commit, heat placement) stays in [`DriverConfig`].
#[derive(Debug, Clone, Copy)]
pub struct StackSpec {
    pub strategy: WriteStrategy,
    pub scheme: NmScheme,
    pub mode: FlashMode,
    /// `None` mounts one chip behind a plain FTL — no controller, the
    /// paper's own configuration; `maint` is then unused.
    pub topology: Option<Topology>,
    pub maint: MaintMode,
}

impl StackSpec {
    /// A single chip, no controller.
    pub fn chip(strategy: WriteStrategy, scheme: NmScheme, mode: FlashMode) -> Self {
        StackSpec {
            strategy,
            scheme,
            mode,
            topology: None,
            maint: MaintMode::inline(),
        }
    }

    /// The paper's pairing on a single chip: the `[2×4]` scheme for the
    /// IPA strategies, `[0×0]` (no delta area) for the traditional path.
    pub fn paper(strategy: WriteStrategy, mode: FlashMode) -> Self {
        let scheme = if strategy.needs_layout() {
            NmScheme::new(2, 4)
        } else {
            NmScheme::disabled()
        };
        Self::chip(strategy, scheme, mode)
    }

    /// The same stack die-striped over `topology` under `maint`.
    pub fn striped(mut self, topology: Topology, maint: MaintMode) -> Self {
        self.topology = Some(topology);
        self.maint = maint;
        self
    }

    /// Build an engine whose device is sized for `bench`: its table
    /// budget plus ~40 % headroom (over-provisioning + GC room),
    /// mirroring a mostly-full SSD as in the paper's two-hour runs. A
    /// striped device divides the same raw capacity across its dies (plus
    /// a per-die GC reserve), so a topology sweep varies *parallelism*,
    /// not usable space, and every [`MaintMode`] of one topology compares
    /// like-for-like devices.
    pub fn build(
        &self,
        bench: &mut dyn Benchmark,
        page_size: usize,
        cfg: &DriverConfig,
    ) -> Result<StorageEngine> {
        let tables = bench.tables();
        let pages_needed: u64 = tables.iter().map(|t| t.pages).sum();
        let ppb = 128u32;
        let usable_ppb = self.mode.usable_pages_per_block(ppb) as u64;
        let raw_pages = pages_needed * 14 / 10;

        // Buffer-constrained by default, like the paper's runs: the hot
        // update set does not fit, so dirty pages are evicted with only a
        // handful of accumulated byte changes each — the condition that
        // makes the N×M scheme effective. Group commit of 32 models the
        // loaded multi-client system the paper benchmarks (Shore-MT runs
        // many worker threads; per-commit log flushes amortize across the
        // group).
        let mut config = if self.strategy.needs_layout() {
            EngineConfig::default().with_strategy(self.strategy, self.scheme)
        } else {
            EngineConfig::default()
        }
        .with_buffer_frames(cfg.buffer_frames.unwrap_or(32))
        .with_group_commit(cfg.group_commit.unwrap_or(32));
        if cfg.readahead > 0 {
            config = config.with_readahead(cfg.readahead);
        }
        if let Some((wal_ch, wal_dies)) = cfg.wal_stripe {
            config = config.with_striped_wal(wal_ch, wal_dies);
        }

        let Some(topology) = self.topology else {
            let blocks = (raw_pages / usable_ppb + 8) as u32;
            let chip = DeviceConfig::new(Geometry::new(blocks, ppb, page_size, 128), self.mode);
            return StorageEngine::build(chip, config, &tables);
        };
        let blocks_per_die = (raw_pages.div_ceil(usable_ppb * topology.dies() as u64) as u32 + 8)
            .next_multiple_of(topology.planes);
        let chip = DeviceConfig::new(
            Geometry::new(blocks_per_die, ppb, page_size, 128).with_planes(topology.planes),
            self.mode,
        );
        let controller = topology.controller(chip, self.maint.queue_cap, self.maint.qos);
        // Heat placement needs the scheduler, so `build_stack` always
        // runs it with deferred (background) GC.
        let placement = cfg.heat.clone();
        let (policy, bg_gc) = (topology.policy, self.maint.background_gc);
        StorageEngine::build_with_device(page_size, config, &tables, move |regions, ftl_config| {
            ipa_heat::build_stack(controller, ftl_config, policy, regions, bg_gc, placement)
        })
    }
}

/// Page size of the device a [`Driver::run_threaded`] churn run builds,
/// bytes.
const THREADED_PAGE_SIZE: usize = 2048;

/// Parameters of a [`Driver::run_threaded`] churn run.
///
/// The workload is defined by `streams`, not by `threads`: a fixed set of
/// `streams` logical clients, each owning a disjoint die-affine LBA
/// window on a standalone striped device and executing a deterministic
/// per-stream op sequence. `threads` only decides how many OS threads
/// the streams are distributed over — so any two runs with equal
/// `streams` (and the rest of the config equal) end in the same logical
/// state and the same host-op counters, whatever the thread count or OS
/// scheduling. That is the threaded determinism wall.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedConfig {
    /// OS threads submitting concurrently. 1 = the serial reference.
    pub threads: u32,
    /// Logical client streams (the workload's identity). Must be ≥ 1;
    /// distributed round-robin over the threads.
    pub streams: u32,
    /// Ops per stream (3 writes : 1 read).
    pub ops_per_stream: u64,
    /// Slots (distinct LBAs) in each stream's private window.
    pub window: u64,
    /// Workload and device RNG seed.
    pub seed: u64,
    /// Shared-device topology. Round-robin striping makes the per-stream
    /// windows die-affine (streams ≤ dies ⇒ zero die-lock contention).
    pub topology: Topology,
    /// Latency-QoS scheduling on the shared controller.
    pub qos: bool,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            threads: 1,
            streams: 8,
            ops_per_stream: 1_500,
            window: 48,
            seed: 0x7C_B5EED,
            topology: Topology::new(4, 2, StripePolicy::RoundRobin),
            qos: false,
        }
    }
}

impl ThreadedConfig {
    pub fn with_threads(mut self, threads: u32) -> Self {
        assert!(threads >= 1, "at least one submitting thread");
        self.threads = threads;
        self
    }
}

/// What a [`Driver::run_threaded`] run measured.
#[derive(Debug, Clone)]
pub struct ThreadedRunResult {
    /// OS threads that submitted.
    pub threads: u32,
    /// Logical streams executed.
    pub streams: u32,
    /// Host ops submitted (writes + reads, digest pass excluded).
    pub ops: u64,
    /// Host wall-clock time of the submission phase, nanoseconds.
    pub wall_ns: u64,
    /// Simulated device horizon after the final sync, nanoseconds.
    pub sim_ns: u64,
    /// FNV-1a digest over the final logical contents of every stream
    /// window, read back in canonical (stream, slot) order. Equal digests
    /// ⇒ identical host-visible final state.
    pub logical_digest: u64,
    /// Device counters at the end of the submission phase.
    pub device: DeviceStats,
}

impl ThreadedRunResult {
    /// Simulated host ops retired per second of *host wall-clock* — the
    /// harness-throughput figure the threads-scaling sweep reports.
    pub fn wall_ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

impl Driver {
    /// Multi-threaded churn over one shared [`ShardedFtl`]: `threads` OS
    /// threads drive `streams` deterministic client streams concurrently
    /// through the device's queued face ([`ipa_ftl::IoQueue`] semantics
    /// via the `&self` submit/poll API). Each stream owns a private LBA
    /// window (die-affine under round-robin striping), keeps a model of
    /// what it wrote, and verifies every read against it — so the run is
    /// itself a wall, not just a throughput meter.
    ///
    /// Timing-independent outputs (`logical_digest`, host-op counters in
    /// `device`) depend only on `cfg.streams` and the per-stream
    /// sequences — never on `cfg.threads`; `tests/threaded_parity.rs`
    /// holds that equivalence. Timing-dependent counters (GC, queue
    /// waits, latencies) legitimately vary with interleaving when
    /// several streams share a die.
    pub fn run_threaded(cfg: &ThreadedConfig) -> ThreadedRunResult {
        use rand::Rng as _;
        assert!(cfg.threads >= 1 && cfg.streams >= 1);
        let topo = cfg.topology;
        let dies = topo.dies() as u64;
        let ranks = (cfg.streams as u64).div_ceil(dies);

        // Size the device for every stream's window plus GC headroom.
        let ppb = 32u32;
        let usable_ppb = FlashMode::Slc.usable_pages_per_block(ppb) as u64;
        let subs_per_die = ranks * cfg.window;
        let blocks_per_die = ((subs_per_die * 14 / 10).div_ceil(usable_ppb) as u32 + 8)
            .max(12)
            .next_multiple_of(topo.planes);
        let chip = DeviceConfig::new(
            Geometry::new(blocks_per_die, ppb, THREADED_PAGE_SIZE, 64).with_planes(topo.planes),
            FlashMode::Slc,
        )
        .with_disturb(DisturbRates::none())
        .with_seed(cfg.seed);
        let controller = topo.controller(chip, None, cfg.qos);
        let dev = std::sync::Arc::new(ShardedFtl::new(
            controller,
            FtlConfig::traditional(),
            topo.policy,
        ));
        // Read latencies go to the fixed-memory histogram only.
        dev.controller().set_bounded_read_latencies(true);
        assert!(
            ranks * cfg.window * dies <= dev.capacity_pages(),
            "threaded windows exceed device capacity"
        );

        // Stream s owns slots {(rank·window + slot)·dies + die} with
        // die = s mod dies, rank = s div dies: disjoint by construction,
        // and exactly one round-robin die per stream.
        let lba_of = |s: u64, slot: u64| ((s / dies) * cfg.window + slot) * dies + (s % dies);

        let run_stream = |s: u64| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (s).wrapping_mul(0xA24B_AED4_963E_E407));
            // The fill last written to each slot of the stream's window.
            let mut model: Vec<Option<u8>> = vec![None; cfg.window as usize];
            let mut buf = vec![0u8; THREADED_PAGE_SIZE];
            for i in 0..cfg.ops_per_stream {
                let slot = rng.gen_range(0..cfg.window);
                let lba = lba_of(s, slot);
                if let (3, Some(want)) = (i % 4, model[slot as usize]) {
                    // Point read on the priority lane, checked against
                    // the stream's own model (read-your-writes holds per
                    // LBA whatever the cross-stream interleaving).
                    dev.read_shared(lba, &mut buf)
                        .expect("modelled slot must read back");
                    assert!(
                        buf.iter().all(|&b| b == want),
                        "stream {s}: slot {slot} returned foreign data"
                    );
                } else {
                    let fill = ((s * 131 + slot * 31 + i) % 251) as u8;
                    let token = dev
                        .submit_io(IoRequest::WriteV(vec![(
                            lba,
                            vec![fill; THREADED_PAGE_SIZE],
                        )]))
                        .expect("write submits");
                    dev.poll_io_checked(token).expect("fresh token completes");
                    model[slot as usize] = Some(fill);
                }
            }
        };

        let wall_start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for t in 0..cfg.threads {
                let run_stream = &run_stream;
                scope.spawn(move || {
                    for s in (t..cfg.streams).step_by(cfg.threads as usize) {
                        run_stream(s as u64);
                    }
                });
            }
        });
        let wall_ns = wall_start.elapsed().as_nanos() as u64;
        let sim_ns = dev.sync();
        let device = dev.device_stats();

        // Canonical read-back digest of the final logical state. Runs
        // after the stats snapshot so the digest pass never perturbs the
        // counters the parity wall compares.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |byte: u8| {
            digest ^= byte as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let mut buf = vec![0u8; THREADED_PAGE_SIZE];
        for s in 0..cfg.streams as u64 {
            for slot in 0..cfg.window {
                let lba = lba_of(s, slot);
                if dev.is_mapped(lba) {
                    dev.read_shared(lba, &mut buf).expect("mapped page reads");
                    for &b in &buf {
                        fnv(b);
                    }
                } else {
                    fnv(0xFF);
                }
            }
        }
        dev.check_invariants();

        ThreadedRunResult {
            threads: cfg.threads,
            streams: cfg.streams,
            ops: cfg.streams as u64 * cfg.ops_per_stream,
            wall_ns,
            sim_ns,
            logical_digest: digest,
            device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip_run(kind: WorkloadKind, strategy: WriteStrategy, cfg: &DriverConfig) -> RunResult {
        let spec = StackSpec::paper(strategy, FlashMode::PSlc);
        Driver::run_spec(kind, 1, &spec, cfg).unwrap()
    }

    #[test]
    fn quick_tpcb_run_all_strategies() {
        let cfg = DriverConfig {
            transactions: 300,
            warmup: 50,
            ..Default::default()
        };
        let trad = chip_run(WorkloadKind::TpcB, WriteStrategy::Traditional, &cfg);
        let native = chip_run(WorkloadKind::TpcB, WriteStrategy::IpaNative, &cfg);
        assert_eq!(trad.transactions, 300);
        assert!(trad.tps > 0.0);
        assert!(native.device.in_place_appends > 0);
        assert!(
            native.device.page_invalidations <= trad.device.page_invalidations,
            "IPA should not invalidate more"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = DriverConfig {
            transactions: 150,
            warmup: 20,
            seed: 42,
            ..Default::default()
        };
        let a = chip_run(WorkloadKind::Tatp, WriteStrategy::IpaNative, &cfg);
        let b = chip_run(WorkloadKind::Tatp, WriteStrategy::IpaNative, &cfg);
        assert_eq!(a.device, b.device, "same seed ⇒ identical counters");
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn percentiles_ordered() {
        let p = LatencyPercentiles::from_samples((1..=1000u64).collect());
        assert_eq!(p.count, 1000);
        assert_eq!(p.p50_ns, 500);
        assert_eq!(p.p95_ns, 950);
        assert_eq!(p.p99_ns, 990);
        assert_eq!(p.p999_ns, 999);
        assert_eq!(p.max_ns, 1000);
        assert!(p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns);
        assert!(p.p99_ns <= p.p999_ns && p.p999_ns <= p.max_ns);
    }

    #[test]
    fn empty_samples_yield_zeroes_not_panics() {
        let p = LatencyPercentiles::from_samples(vec![]);
        assert_eq!(p, LatencyPercentiles::default());
        assert_eq!(p.count, 0);
        assert_eq!(p.p999_ns, 0);
        assert_eq!(p.max_ns, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let p = LatencyPercentiles::from_samples(vec![42]);
        assert_eq!(
            (p.p50_ns, p.p95_ns, p.p99_ns, p.p999_ns, p.max_ns),
            (42, 42, 42, 42, 42)
        );
    }

    #[test]
    fn fairness_spread_is_max_over_min() {
        assert_eq!(fairness_spread(&[100, 200, 150]), 2.0);
        assert_eq!(fairness_spread(&[77]), 1.0);
        assert_eq!(fairness_spread(&[]), 1.0, "no clients, nothing unfair");
        assert_eq!(fairness_spread(&[0, 0]), 1.0, "no samples anywhere");
    }

    #[test]
    fn fairness_spread_ignores_streams_with_no_reads() {
        // A zero p99.9 is "this stream never measured a read", not "this
        // stream was infinitely fast": it must drop out of the ratio
        // instead of making the spread inf (or NaN through downstream
        // arithmetic) and poisoning every `spread < bound` assertion.
        assert_eq!(fairness_spread(&[0, 500]), 1.0);
        assert_eq!(fairness_spread(&[0, 300, 600]), 2.0);
        assert!(fairness_spread(&[0, 500]).is_finite());
        assert!(!fairness_spread(&[0, 0, 9]).is_nan());
    }

    #[test]
    fn threaded_run_is_thread_count_invariant() {
        let cfg = ThreadedConfig {
            streams: 4,
            ops_per_stream: 200,
            window: 16,
            topology: Topology::new(2, 2, StripePolicy::RoundRobin),
            ..Default::default()
        };
        let serial = Driver::run_threaded(&cfg);
        let threaded = Driver::run_threaded(&cfg.with_threads(2));
        assert_eq!(serial.logical_digest, threaded.logical_digest);
        assert_eq!(serial.ops, threaded.ops);
        assert_eq!(serial.device.host_writes, threaded.device.host_writes);
        assert_eq!(serial.device.host_reads, threaded.device.host_reads);
        assert!(threaded.wall_ns > 0 && threaded.sim_ns > 0);
        assert!(threaded.wall_ops_per_sec() > 0.0);
    }
}

#[cfg(test)]
mod multi_client_tests {
    use super::*;

    /// `kind` on an IPA-native 2×4 pSLC stripe over `topology`.
    fn ipa_run(
        kind: WorkloadKind,
        topology: Topology,
        maint: MaintMode,
        cfg: &DriverConfig,
    ) -> RunResult {
        let spec = StackSpec::paper(WriteStrategy::IpaNative, FlashMode::PSlc);
        Driver::run_spec(kind, 1, &spec.striped(topology, maint), cfg).unwrap()
    }

    fn two_by_two() -> Topology {
        Topology::new(2, 2, StripePolicy::RoundRobin)
    }

    #[test]
    fn multi_stream_run_reports_per_stream_percentiles() {
        let cfg = DriverConfig {
            transactions: 240,
            warmup: 40,
            ..Default::default()
        }
        .with_streams(4);
        let r = ipa_run(WorkloadKind::TpcB, two_by_two(), MaintMode::inline(), &cfg);
        assert_eq!(r.transactions, 240);
        assert_eq!(r.per_stream.len(), 4);
        let total: u64 = r.per_stream.iter().map(|s| s.transactions).sum();
        assert_eq!(total, 240, "every committed tx belongs to one stream");
        for s in &r.per_stream {
            // Earliest-clock scheduling is approximately fair: no stream
            // starves, none hogs the device.
            assert!(
                (30..=90).contains(&s.transactions),
                "stream {} got {} of 240 transactions",
                s.stream,
                s.transactions
            );
            assert_eq!(s.latency.count, s.transactions);
        }
        assert!(r.tps > 0.0);
    }

    #[test]
    fn single_stream_run_leaves_per_stream_empty() {
        let cfg = DriverConfig {
            transactions: 120,
            warmup: 20,
            ..Default::default()
        };
        let r = Driver::run_spec(
            WorkloadKind::TpcB,
            1,
            &StackSpec::paper(WriteStrategy::Traditional, FlashMode::PSlc)
                .striped(Topology::single(), MaintMode::inline()),
            &cfg,
        )
        .unwrap();
        assert!(r.per_stream.is_empty());
        assert_eq!(r.latency.count, 120);
    }

    #[test]
    fn maintained_run_reports_scheduler_stats() {
        let cfg = DriverConfig {
            transactions: 200,
            warmup: 40,
            ..Default::default()
        }
        .with_streams(4);
        let r = ipa_run(
            WorkloadKind::TpcB,
            two_by_two(),
            MaintMode::background(Some(8)),
            &cfg,
        );
        assert_eq!(r.transactions, 200);
        let m = r.maint.expect("maintained device reports its stats");
        assert!(m.polls > 0, "every host command polls the scheduler");
        let c = r.controller.expect("controller-backed");
        assert!(c.wear_spread() <= c.max_die_erases);
        // Inline mode must NOT report maintenance stats.
        let inline = ipa_run(WorkloadKind::TpcB, two_by_two(), MaintMode::capped(8), &cfg);
        assert!(inline.maint.is_none());
    }

    #[test]
    fn qos_run_reports_read_latency_and_promotions() {
        let cfg = DriverConfig {
            transactions: 200,
            warmup: 40,
            ..Default::default()
        }
        .with_streams(4);
        let run = |mode: MaintMode| ipa_run(WorkloadKind::TpcB, two_by_two(), mode, &cfg);
        let fifo = run(MaintMode::background(Some(8)));
        let qos = run(MaintMode::background(Some(8)).with_qos());
        // Both runs sample the measured window's reads. The counts need
        // not match exactly: timing feeds back into idle-die GC dispatch,
        // which perturbs the few maintenance-adjacent reads.
        assert!(fifo.read_latency.count > 0, "reads were sampled");
        assert!(qos.read_latency.count > 0, "reads were sampled under QoS");
        let c = qos.controller.expect("controller-backed");
        assert!(c.reads_promoted > 0, "QoS must promote some reads: {c}");
        assert_eq!(
            fifo.controller.unwrap().reads_promoted,
            0,
            "FIFO never promotes"
        );
        // Same committed work either way (stream interleaving is
        // clock-driven, so per-counter equality is not expected).
        assert_eq!(fifo.transactions, 200);
        assert_eq!(qos.transactions, 200);
    }

    #[test]
    fn maintained_runs_are_deterministic() {
        let cfg = DriverConfig {
            transactions: 150,
            warmup: 20,
            seed: 99,
            ..Default::default()
        }
        .with_streams(3);
        let run = || {
            ipa_run(
                WorkloadKind::Tatp,
                two_by_two(),
                MaintMode::background(Some(8)),
                &cfg,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.device, b.device);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.maint, b.maint);
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let cfg = DriverConfig {
            transactions: 150,
            warmup: 20,
            seed: 77,
            ..Default::default()
        }
        .with_streams(3);
        let run = || {
            ipa_run(
                WorkloadKind::Tatp,
                Topology::new(2, 2, StripePolicy::Hash),
                MaintMode::inline(),
                &cfg,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.device, b.device);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn more_dies_run_the_same_workload_faster() {
        let cfg = DriverConfig {
            transactions: 400,
            warmup: 50,
            ..Default::default()
        }
        .with_streams(4);
        let run =
            |topology: Topology| ipa_run(WorkloadKind::TpcB, topology, MaintMode::inline(), &cfg);
        let single = run(Topology::single());
        let wide = run(Topology::new(4, 2, StripePolicy::RoundRobin));
        assert!(
            wide.elapsed_ns < single.elapsed_ns,
            "8 dies must beat 1 die: {} vs {} ns",
            wide.elapsed_ns,
            single.elapsed_ns
        );
    }
}
