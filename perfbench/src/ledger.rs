//! Timing decorators and the per-layer ledger of a traced pass.
//!
//! The benchmark never instruments the program: it wraps the sources and
//! sinks it hands to `FleetRunBuilder` in decorators that forward every call
//! unchanged and time it from outside.  Each [`TimedSource`] keeps its tally
//! locally (no lock on the tick path) and folds it into the shared [`Ledger`]
//! when the runtime drops it.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use adasense::prelude::*;

const CONFIGS: usize = SensorConfig::COUNT;

/// Everything the decorators of one traced pass observed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Windows captured, per configuration index.
    pub windows: [u64; CONFIGS],
    /// Nanoseconds inside `capture_window`, per configuration index.
    pub capture_ns: [u64; CONFIGS],
    /// Configuration changes between consecutive windows of one device.
    pub switches: u64,
    /// Nanoseconds inside `status()` of reactor-fed sources (worker blocked
    /// on the reactor).
    pub wait_ns: u64,
    /// Per-call `status()` time of reactor-fed sources, in µs.
    pub wait_us: QuantileSketch,
    /// Time from subscription to the first consumed window, in ms.
    pub admit_ms: QuantileSketch,
    /// Rows pushed through a [`TimedSink`].
    pub sink_rows: u64,
    /// Nanoseconds inside the wrapped sink's `push`.
    pub sink_ns: u64,
}

impl Ledger {
    /// A fresh ledger shared by the decorators of one pass.
    pub fn shared() -> Arc<Mutex<Ledger>> {
        Arc::new(Mutex::new(Ledger::default()))
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for i in 0..CONFIGS {
            self.windows[i] += other.windows[i];
            self.capture_ns[i] += other.capture_ns[i];
        }
        self.switches += other.switches;
        self.wait_ns += other.wait_ns;
        self.wait_us.merge(&other.wait_us);
        self.admit_ms.merge(&other.admit_ms);
        self.sink_rows += other.sink_rows;
        self.sink_ns += other.sink_ns;
    }

    /// Total windows captured.
    pub fn total_windows(&self) -> u64 {
        self.windows.iter().sum()
    }

    /// Total seconds inside `capture_window`.
    pub fn capture_s(&self) -> f64 {
        self.capture_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`SampleSource`] decorator: forwards every call to `inner` and times
/// `capture_window` (per configuration) and `status` (the call a live source
/// blocks in).
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    tally: Ledger,
    last_config: Option<usize>,
    reactor_fed: bool,
    admit_from: Option<Instant>,
    shared: Arc<Mutex<Ledger>>,
}

impl<S> TimedSource<S> {
    /// Wraps a synthetic or replayed source.
    pub fn new(inner: S, shared: &Arc<Mutex<Ledger>>) -> Self {
        Self {
            inner,
            tally: Ledger::default(),
            last_config: None,
            reactor_fed: false,
            admit_from: None,
            shared: Arc::clone(shared),
        }
    }

    /// Wraps a reactor-fed source subscribed at `subscribed`: its `status()`
    /// time counts as reactor wait, and the first consumed window closes its
    /// admit latency.
    pub fn reactor_fed(inner: S, shared: &Arc<Mutex<Ledger>>, subscribed: Instant) -> Self {
        let mut source = Self::new(inner, shared);
        source.reactor_fed = true;
        source.admit_from = Some(subscribed);
        source
    }
}

impl<S: SampleSource> SampleSource for TimedSource<S> {
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        let start = Instant::now();
        self.inner.capture_window(config, t_end, window_s, out);
        let index = config.index();
        self.tally.capture_ns[index] += elapsed_ns(start);
        self.tally.windows[index] += 1;
        if self.last_config.is_some_and(|last| last != index) {
            self.tally.switches += 1;
        }
        self.last_config = Some(index);
        if let Some(subscribed) = self.admit_from.take() {
            self.tally.admit_ms.insert(subscribed.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        self.inner.ground_truth(t_s)
    }

    fn status(&mut self) -> SourceStatus {
        let start = Instant::now();
        let status = self.inner.status();
        if self.reactor_fed {
            let ns = elapsed_ns(start);
            self.tally.wait_ns += ns;
            self.tally.wait_us.insert(ns as f64 * 1e-3);
        }
        status
    }
}

impl<S> Drop for TimedSource<S> {
    fn drop(&mut self) {
        // A poisoned ledger only loses this source's tally; never panic in drop.
        if let Ok(mut shared) = self.shared.lock() {
            shared.merge(&self.tally);
        }
    }
}

/// A [`SampleSource`] decorator that only marks when the first window of a
/// cohort was consumed (the first source to get one sets `first`).  Traced
/// `live-drain` passes use it to split off the reactor's dial time.
#[derive(Debug)]
pub struct FirstWindow<S> {
    inner: S,
    first: Arc<OnceLock<Instant>>,
}

impl<S> FirstWindow<S> {
    /// Wraps `inner`, marking `first`.
    pub fn new(inner: S, first: &Arc<OnceLock<Instant>>) -> Self {
        Self { inner, first: Arc::clone(first) }
    }
}

impl<S: SampleSource> SampleSource for FirstWindow<S> {
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        self.inner.capture_window(config, t_end, window_s, out);
        if self.first.get().is_none() {
            let _ = self.first.set(Instant::now());
        }
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        self.inner.ground_truth(t_s)
    }

    fn status(&mut self) -> SourceStatus {
        self.inner.status()
    }
}

/// A [`SummarySink`] decorator timing the wrapped sink's `push`.
#[derive(Debug)]
pub struct TimedSink<W> {
    inner: W,
    rows: u64,
    ns: u64,
}

impl<W> TimedSink<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Self { inner, rows: 0, ns: 0 }
    }

    /// Adds the push count and time to `ledger` and returns the inner sink.
    pub fn finish(self, ledger: &mut Ledger) -> W {
        ledger.sink_rows += self.rows;
        ledger.sink_ns += self.ns;
        self.inner
    }
}

impl<W: SummarySink> SummarySink for TimedSink<W> {
    fn push(&mut self, row: &DeviceSummary) -> Result<(), AdaSenseError> {
        let start = Instant::now();
        let result = self.inner.push(row);
        self.ns += elapsed_ns(start);
        self.rows += 1;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(config: SensorConfig, t_end: f64, label: u8) -> TelemetryBatch {
        let n = (config.frequency.hz() * 2.0).round() as usize;
        let samples =
            (0..n).map(|i| Sample3::new(t_end - 2.0 + i as f64 * 0.01, 0.1, -0.5, 1.0)).collect();
        TelemetryBatch::new(config, t_end, 2.0, label, samples)
    }

    fn trace() -> TelemetryTrace {
        let front = SensorConfig::paper_pareto_front();
        TelemetryTrace {
            batches: (0..6).map(|i| batch(front[i % 4], 2.0 + i as f64, (i % 3) as u8)).collect(),
        }
    }

    fn prefilled(trace: &TelemetryTrace) -> ChannelSource {
        let (mut tx, source) = telemetry_channel(trace.len() + 1);
        tx.send_trace(trace).unwrap();
        source
    }

    /// Drains a source the way a runtime does, recording everything it saw.
    fn drain(source: &mut dyn SampleSource) -> Vec<(Vec<Sample3>, Option<Activity>)> {
        let mut seen = Vec::new();
        let mut window = Vec::new();
        for batch in trace().batches {
            assert_eq!(source.status(), SourceStatus::Ready);
            source.capture_window(batch.config, batch.t_end, batch.window_s, &mut window);
            seen.push((window.clone(), source.ground_truth(batch.t_end - 0.5)));
        }
        assert_eq!(source.status(), SourceStatus::Exhausted);
        seen
    }

    #[test]
    fn timed_source_passes_windows_ground_truth_and_status_through() {
        let shared = Ledger::shared();
        let plain = drain(&mut prefilled(&trace()));
        let timed =
            drain(&mut TimedSource::reactor_fed(prefilled(&trace()), &shared, Instant::now()));
        assert_eq!(plain, timed);
        assert!(plain.iter().all(|(window, truth)| !window.is_empty() && truth.is_some()));

        let ledger = shared.lock().unwrap();
        assert_eq!(ledger.total_windows(), 6);
        assert_eq!(ledger.switches, 5, "every window changes configuration");
        assert_eq!(ledger.wait_us.len(), 7, "six ready polls and the final exhausted one");
        assert_eq!(ledger.admit_ms.len(), 1, "admit closes on the first window only");
    }

    #[test]
    fn first_window_passes_everything_through_and_marks_once() {
        let first = Arc::new(OnceLock::new());
        let plain = drain(&mut prefilled(&trace()));
        let before = Instant::now();
        let marked = drain(&mut FirstWindow::new(prefilled(&trace()), &first));
        assert_eq!(plain, marked);
        let mark = *first.get().expect("the first window set the mark");
        assert!(mark >= before);
        drain(&mut FirstWindow::new(prefilled(&trace()), &first));
        assert_eq!(first.get(), Some(&mark), "later windows never move the mark");
    }

    #[test]
    fn timed_source_forwards_endless_status_and_keeps_synthetic_waits_out() {
        let spec = ExperimentSpec::quick();
        let scenario = RoutinePreset::OfficeDay.script().scenario(10.0, 1.0, 7);
        let shared = Ledger::shared();
        let mut plain = ScenarioSource::new(&spec, &scenario);
        let mut timed = TimedSource::new(ScenarioSource::new(&spec, &scenario), &shared);
        assert_eq!(timed.status(), SourceStatus::Endless);
        let config = SensorConfig::paper_pareto_front()[0];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.capture_window(config, 4.0, 2.0, &mut a);
        timed.capture_window(config, 4.0, 2.0, &mut b);
        assert_eq!(a, b);
        assert_eq!(plain.ground_truth(3.5), timed.ground_truth(3.5));
        drop(timed);
        let ledger = shared.lock().unwrap();
        assert_eq!(ledger.windows[config.index()], 1);
        assert!(ledger.wait_us.is_empty(), "only reactor-fed sources count as waiting");
    }

    #[test]
    fn timed_sink_passes_rows_through_unchanged() {
        let spec = ExperimentSpec::quick();
        let system = TrainedSystem::train(&spec).unwrap();
        let fleet = FleetSpec::new(4, 6.0, 11);
        let scheduler = FleetScheduler::new(&spec, &system);
        let mut plain = Vec::new();
        let report = scheduler.builder().spec(&fleet).sink(&mut plain).run().unwrap().report;

        let mut timed = TimedSink::new(SpoolWriter::new(Vec::new()).unwrap());
        let traced = scheduler.builder().spec(&fleet).sink(&mut timed).run().unwrap().report;
        let mut ledger = Ledger::default();
        let bytes = timed.finish(&mut ledger).finish().unwrap();
        let mut spooled: Vec<DeviceSummary> =
            SpoolReader::new(bytes.as_slice()).unwrap().collect::<Result<_, _>>().unwrap();

        assert_eq!(traced.encode(), report.encode());
        assert_eq!(ledger.sink_rows, 4);
        plain.sort_by_key(|row| row.device_id);
        spooled.sort_by_key(|row| row.device_id);
        assert_eq!(spooled, plain);
    }
}
