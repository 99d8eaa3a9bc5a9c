//! The workloads→storage boundary, instrumented from outside: a
//! [`Benchmark`] adapter that splits a [`Driver::run`] into load, warm-up
//! and measured window by counting the calls the driver makes.
//!
//! The measured window is cut into [`SEGMENTS`] equal runs of calls. Host
//! wall time on a shared box is bursty (other tenants slow whole seconds
//! of a run by a third), so a run repeats the identical pass several
//! times and keeps, per segment, the fastest pass — which needs the
//! segment boundaries, not just the window's ends.
//!
//! Untraced, it reads the host clock at the end of `load`, at the start
//! of each segment's first call (the first of them is the warm-up end, so
//! the driver's post-warm-up flush is charged to set-up) and at the end
//! of the last call: `SEGMENTS + 2` reads per pass, nothing per
//! transaction. Traced, it records one span per `load` and per `run_tx`.
//!
//! [`Driver::run`]: ipa_workloads::Driver::run

use std::time::Instant;

use ipa_controller::ControllerStats;
use ipa_maint::{MaintStats, MaintainedFtl};
use ipa_storage::{EngineStats, Result, StorageEngine, TableSpec};
use ipa_workloads::Benchmark;
use rand::rngs::StdRng;

/// Whole-run counters as they stood when the measured window opened;
/// subtracting them windows the layers `RunResult` reports whole-run.
#[derive(Debug, Clone)]
pub struct WindowStart {
    pub engine: EngineStats,
    pub controller: Option<ControllerStats>,
    pub maint: Option<MaintStats>,
}

impl WindowStart {
    pub fn capture(engine: &StorageEngine) -> Self {
        WindowStart {
            engine: engine.stats(),
            controller: engine.pool().device().controller_stats(),
            maint: engine
                .device_as::<MaintainedFtl>()
                .map(MaintainedFtl::maint_stats),
        }
    }
}

/// Segments the measured window is cut into.
pub const SEGMENTS: u64 = 15;

/// One recorded call: start (ns since the adapter was built) and duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Timed {
    inner: Box<dyn Benchmark>,
    warmup: u64,
    measured: u64,
    calls: u64,
    traced: bool,
    origin: Instant,
    pub load_end: Option<Instant>,
    /// Start of each segment's first call, then the end of the last call:
    /// `SEGMENTS + 1` instants once the window has closed.
    pub boundaries: Vec<Instant>,
    pub at_window_start: Option<WindowStart>,
    /// Traced runs only: the `load` span.
    pub load_span: Option<Span>,
    /// Traced runs only: one span per `run_tx`, warm-up calls first.
    pub tx_spans: Vec<Span>,
}

impl Timed {
    pub fn new(inner: Box<dyn Benchmark>, warmup: u64, measured: u64, traced: bool) -> Self {
        assert!(
            measured >= SEGMENTS && measured.is_multiple_of(SEGMENTS),
            "the window splits into {SEGMENTS} equal segments"
        );
        Timed {
            inner,
            warmup,
            measured,
            calls: 0,
            traced,
            origin: Instant::now(),
            load_end: None,
            boundaries: Vec::with_capacity(SEGMENTS as usize + 1),
            at_window_start: None,
            load_span: None,
            tx_spans: Vec::with_capacity(if traced {
                (warmup + measured) as usize
            } else {
                0
            }),
        }
    }

    #[cfg(test)]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Spans of the warm-up calls (traced runs).
    pub fn warmup_spans(&self) -> &[Span] {
        &self.tx_spans[..(self.warmup as usize).min(self.tx_spans.len())]
    }

    /// Spans of the measured calls (traced runs).
    pub fn measured_spans(&self) -> &[Span] {
        &self.tx_spans[(self.warmup as usize).min(self.tx_spans.len())..]
    }

    /// Host seconds of each segment; `None` until the window has closed.
    pub fn segment_walls(&self) -> Option<Vec<f64>> {
        (self.boundaries.len() == SEGMENTS as usize + 1).then(|| {
            self.boundaries
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect()
        })
    }

    fn span(&self, start: Instant, end: Instant) -> Span {
        Span {
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
        }
    }
}

impl Benchmark for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<TableSpec> {
        self.inner.tables()
    }

    fn load(&mut self, engine: &mut StorageEngine, rng: &mut StdRng) -> Result<()> {
        let start = self.traced.then(Instant::now);
        let r = self.inner.load(engine, rng);
        let end = Instant::now();
        self.load_end = Some(end);
        if let Some(start) = start {
            self.load_span = Some(self.span(start, end));
        }
        r
    }

    fn run_tx(&mut self, engine: &mut StorageEngine, rng: &mut StdRng) -> Result<()> {
        let measured_before = self.calls.checked_sub(self.warmup);
        self.calls += 1;
        let opens_segment =
            measured_before.is_some_and(|n| n.is_multiple_of(self.measured / SEGMENTS));
        let last_measured = self.calls == self.warmup + self.measured;
        if measured_before == Some(0) {
            self.at_window_start = Some(WindowStart::capture(engine));
        }
        if self.traced {
            let start = Instant::now();
            let r = self.inner.run_tx(engine, rng);
            let end = Instant::now();
            self.tx_spans.push(self.span(start, end));
            if opens_segment {
                self.boundaries.push(start);
            }
            if last_measured {
                self.boundaries.push(end);
            }
            r
        } else {
            if opens_segment {
                self.boundaries.push(Instant::now());
            }
            let r = self.inner.run_tx(engine, rng);
            if last_measured {
                self.boundaries.push(Instant::now());
            }
            r
        }
    }

    fn set_key_skew(&mut self, theta: Option<f64>) {
        self.inner.set_key_skew(theta);
    }

    fn read_fraction(&self) -> f64 {
        self.inner.read_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::{DeviceConfig, FlashMode, Geometry};
    use ipa_storage::EngineConfig;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records the order the driver-side calls arrive in.
    struct Script(Rc<RefCell<Vec<&'static str>>>);

    impl Benchmark for Script {
        fn name(&self) -> &'static str {
            "script"
        }
        fn tables(&self) -> Vec<TableSpec> {
            vec![TableSpec::heap("t", 16, 4)]
        }
        fn load(&mut self, _: &mut StorageEngine, _: &mut StdRng) -> Result<()> {
            self.0.borrow_mut().push("load");
            Ok(())
        }
        fn run_tx(&mut self, _: &mut StorageEngine, _: &mut StdRng) -> Result<()> {
            self.0.borrow_mut().push("tx");
            Ok(())
        }
        fn read_fraction(&self) -> f64 {
            0.25
        }
    }

    fn drive(traced: bool, warmup: u64, measured: u64) -> Timed {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut timed = Timed::new(Box::new(Script(log.clone())), warmup, measured, traced);
        let device = DeviceConfig::new(Geometry::new(16, 16, 2048, 64), FlashMode::Slc);
        let mut engine =
            StorageEngine::build(device, EngineConfig::default(), &timed.tables()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        timed.load(&mut engine, &mut rng).unwrap();
        for _ in 0..warmup + measured {
            assert!(
                timed.segment_walls().is_none(),
                "window closes on the last call"
            );
            timed.run_tx(&mut engine, &mut rng).unwrap();
        }
        assert_eq!(log.borrow().len() as u64, 1 + warmup + measured);
        assert_eq!(timed.read_fraction(), 0.25);
        timed
    }

    #[test]
    fn untraced_marks_segment_boundaries_and_records_no_spans() {
        let t = drive(false, 3, 2 * SEGMENTS);
        assert_eq!(t.boundaries.len() as u64, SEGMENTS + 1);
        assert!(t.load_end.unwrap() <= t.boundaries[0]);
        assert!(t.boundaries.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.segment_walls().unwrap().len() as u64, SEGMENTS);
        assert!(t.load_span.is_none() && t.tx_spans.is_empty());
        assert!(t.at_window_start.is_some());
    }

    #[test]
    fn traced_splits_load_warmup_and_measured() {
        let t = drive(true, 3, 2 * SEGMENTS);
        assert!(t.load_span.is_some());
        assert_eq!(t.warmup_spans().len(), 3);
        assert_eq!(t.measured_spans().len() as u64, 2 * SEGMENTS);
        let first = t.measured_spans()[0];
        let last = *t.measured_spans().last().unwrap();
        let since_origin = |i: Instant| (i - t.origin()).as_nanos() as u64;
        assert_eq!(since_origin(t.boundaries[0]), first.start_ns);
        // Each segment opens where its first call starts.
        assert_eq!(
            since_origin(t.boundaries[1]),
            t.measured_spans()[2].start_ns
        );
        assert_eq!(
            since_origin(*t.boundaries.last().unwrap()),
            last.start_ns + last.dur_ns
        );
        // Warm-up ends where the window starts: nothing measured before.
        assert!(t.warmup_spans().iter().all(|s| s.start_ns < first.start_ns));
    }

    #[test]
    fn zero_warmup_opens_the_window_on_the_first_call() {
        let t = drive(true, 0, SEGMENTS);
        assert!(t.warmup_spans().is_empty());
        assert_eq!(t.measured_spans().len() as u64, SEGMENTS);
        assert_eq!(t.boundaries.len() as u64, SEGMENTS + 1);
    }
}
