//! The three workloads: set-up, reference report and one measured pass each.
//!
//! * `fleet-cascade` — the perf-track cohort (256 legacy Medium devices,
//!   120 s, cascade backend), scenario-driven as one batch job.
//! * `live-drain` — 512 static `office_day` feeds served over loopback TCP by
//!   the generator, read by one `IngestReactor` thread, ticked as a feed
//!   cohort.
//! * `live-churn` — 512 devices on `churn_plan` over a Unix socket, joining
//!   through `ReactorHandle::subscribe` and the scheduler intake; devices
//!   below id 64 have their first stream torn to force RESUME.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use adasense::prelude::*;
use adasense_bench::{churn_plan, ChurnEntry};

use crate::generator::{encode_feeds, Generator, Served};
use crate::ledger::{FirstWindow, Ledger, TimedSource};

/// Devices of the `live-*` cohorts.
const LIVE_DEVICES: u64 = 512;
/// Requested seconds of a `live-drain` device (routines run at least this).
const DRAIN_DURATION_S: f64 = 60.0;
/// Full lifetime of a `live-churn` device; long enough that the join-wave
/// pauses stay a small share of a pass.
const CHURN_DURATION_S: f64 = 60.0;
/// Redial policy of the live passes (as `reactor_fleet` uses).
const POLICY: ReconnectPolicy = ReconnectPolicy { attempts: 20, delay: Duration::from_millis(25) };
/// Pause between join waves, so late joiners meet a cohort already ticking.
const JOIN_WAVE_PAUSE: Duration = Duration::from_millis(10);

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scenario-driven perf-track cohort.
    FleetCascade,
    /// Static reactor-fed feed cohort over TCP.
    LiveDrain,
    /// Churning reactor-fed intake over a Unix socket.
    LiveChurn,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "fleet-cascade" => Some(Self::FleetCascade),
            "live-drain" => Some(Self::LiveDrain),
            "live-churn" => Some(Self::LiveChurn),
            _ => None,
        }
    }

    /// The fleet the workload runs, derived from the workload seed.
    pub fn fleet(self, seed: u64) -> FleetSpec {
        match self {
            Self::FleetCascade => {
                let mut fleet = FleetSpec::new(256, 120.0, seed);
                fleet.population.backend = BackendSpec::Uniform(BackendKind::Cascade);
                fleet
            }
            Self::LiveDrain | Self::LiveChurn => {
                let duration_s =
                    if self == Self::LiveDrain { DRAIN_DURATION_S } else { CHURN_DURATION_S };
                let mut fleet = FleetSpec::new(LIVE_DEVICES, duration_s, seed);
                fleet.population =
                    PopulationSpec::single(RoutinePreset::OfficeDay, FaultLevel::None);
                fleet
            }
        }
    }
}

/// Everything a workload builds before it is measured.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The training specification.
    pub spec: ExperimentSpec,
    /// The trained system under test.
    pub system: TrainedSystem,
    /// The fleet (for `live-*`, the cohort the traces were recorded from).
    pub fleet: FleetSpec,
    /// The fleet with no scenario devices, for feed-only runs.
    feed_only: FleetSpec,
    /// Recorded traces served by the generator (`live-*` only, and only
    /// after [`Setup::build`]).
    pub served: Vec<Served>,
    /// The feed file the generator serves (`live-*` only).
    feeds: PathBuf,
    /// The churn schedule (`live-churn` only).
    pub plan: Vec<ChurnEntry>,
}

impl Setup {
    /// Trains the system and, for `live-*`, records the served traces on
    /// `threads` threads and writes them to the feed file `feeds`.  This is
    /// the work `setup_s` times.
    pub fn build(
        workload: Workload,
        seed: u64,
        threads: usize,
        feeds: &Path,
    ) -> Result<Self, String> {
        let mut setup = Self::trained(workload, seed, feeds)?;
        let (spec, system, fleet, plan) = (&setup.spec, &setup.system, &setup.fleet, &setup.plan);
        let lifetimes: Vec<(u64, Option<f64>)> = match workload {
            Workload::FleetCascade => Vec::new(),
            Workload::LiveDrain => (0..fleet.devices).map(|id| (id, None)).collect(),
            Workload::LiveChurn => plan.iter().map(|e| (e.device_id, Some(e.lifetime_s))).collect(),
        };
        if lifetimes.is_empty() {
            return Ok(setup);
        }
        setup.served = record(spec, system, fleet, &lifetimes, threads)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|(id, trace)| {
                let start_epoch = plan.get(id as usize).map_or(0, |entry| entry.start_epoch);
                (id, start_epoch, trace)
            })
            .collect();
        std::fs::write(feeds, encode_feeds(&setup.served))
            .map_err(|e| format!("writing {}: {e}", feeds.display()))?;
        Ok(setup)
    }

    /// Trains the system only, for passes over a feed file that
    /// [`Setup::build`] wrote (in another process): what a pass needs.
    pub fn trained(workload: Workload, seed: u64, feeds: &Path) -> Result<Self, String> {
        let spec = ExperimentSpec::quick();
        let system = TrainedSystem::train(&spec).map_err(|e| e.to_string())?;
        let fleet = workload.fleet(seed);
        let plan = match workload {
            Workload::LiveChurn => churn_plan(fleet.devices, fleet.duration_s),
            _ => Vec::new(),
        };
        let feed_only = FleetSpec { devices: 0, ..fleet.clone() };
        let (served, feeds) = (Vec::new(), feeds.to_path_buf());
        Ok(Self { workload, spec, system, fleet, feed_only, served, feeds, plan })
    }

    /// A scheduler over the trained system with `threads` workers.
    pub fn scheduler(&self, threads: usize) -> FleetScheduler<'_> {
        FleetScheduler::new(&self.spec, &self.system).with_threads(threads)
    }

    /// The external device for fleet device `device_id` over `source`.
    fn feed(&self, device_id: u64, source: impl SampleSource + Send + 'static) -> ExternalDevice {
        let plan = self.fleet.device_plan(device_id);
        let feed = ExternalDevice::new(device_id, source)
            .with_metadata(plan.seed, plan.routine)
            .with_backend(plan.backend);
        match self.plan.get(device_id as usize) {
            Some(entry) => feed.with_start_epoch(entry.start_epoch).with_departed(entry.departed),
            None => feed,
        }
    }

    /// The reference run every pass must reproduce byte for byte, with its
    /// rows.
    ///
    /// * `fleet-cascade`: the scenario report on **one** worker, so it is
    ///   also the 1-vs-N-worker oracle.
    /// * `live-drain`: the scenario report the traces were recorded from.
    /// * `live-churn`: the static per-lifetime run of the recorded traces.
    pub fn reference(&self, workers: usize) -> Result<FleetRun, AdaSenseError> {
        Ok(match self.workload {
            Workload::FleetCascade => {
                self.scheduler(1).builder().spec(&self.fleet).collect().run()?
            }
            Workload::LiveDrain => {
                self.scheduler(workers).builder().spec(&self.fleet).collect().run()?
            }
            Workload::LiveChurn => {
                let feeds = self
                    .served
                    .iter()
                    .map(|(id, _, trace)| Ok(self.feed(*id, prefilled(trace)?)))
                    .collect::<Result<Vec<_>, AdaSenseError>>()?;
                self.scheduler(workers)
                    .builder()
                    .spec(&self.feed_only)
                    .feeds(feeds)
                    .collect()
                    .run()?
            }
        })
    }
}

/// Records one trace per `(device_id, lifetime)` of `fleet`, exactly as
/// `adasense_bench::record_fleet_traces` (lifetime `None`: the device's whole
/// scenario) and `record_churn_traces` do, but spread over `threads` threads.
pub fn record(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    fleet: &FleetSpec,
    lifetimes: &[(u64, Option<f64>)],
    threads: usize,
) -> Result<Vec<(u64, TelemetryTrace)>, AdaSenseError> {
    let scheduler = FleetScheduler::new(spec, system);
    let record_one = |&(device_id, lifetime): &(u64, Option<f64>)| {
        let plan = fleet.device_plan(device_id);
        let recorder = TraceRecorder::new(scheduler.device_source(fleet, &plan));
        let lifetime = lifetime.unwrap_or_else(|| plan.scenario.duration_s());
        let mut runtime =
            DeviceRuntime::for_source(spec, system, fleet.controller, recorder, lifetime)?
                .with_classifier(system.backend(plan.backend));
        runtime.run_to_completion();
        Ok((device_id, runtime.source().trace().clone()))
    };
    let per_thread = lifetimes.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = lifetimes
            .chunks(per_thread)
            .map(|part| scope.spawn(move || part.iter().map(record_one).collect::<Vec<_>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|part| part.join().expect("a recording thread panicked"))
            .collect()
    })
}

/// A channel source already holding every batch of `trace`, its sender
/// dropped: an in-memory replay with no socket.
pub fn prefilled(trace: &TelemetryTrace) -> Result<ChannelSource, AdaSenseError> {
    let (mut sender, source) = telemetry_channel(trace.len() + 1);
    sender.send_trace(trace)?;
    Ok(source)
}

/// The outcome of one measured pass.
pub struct Pass {
    /// Host seconds from the first job (or subscription) to the last row.
    pub wall_s: f64,
    /// Traced `live-drain` passes only: host seconds from the start of the
    /// pass until the first window was consumed.  The reactor dials every
    /// static feed before it reads any, so this is its connection set-up,
    /// a part of `wall_s`.
    pub dial_s: f64,
    /// The fleet report.
    pub report: FleetReport,
    /// Telemetry batches the reactor delivered (`live-*`), else windows
    /// sensed in-process (one per classified epoch).
    pub batches: u64,
    /// The reactor's counters (`live-*`).
    pub reactor: Option<ReactorStats>,
    /// The generator's counters (`live-*`).
    pub serve: Option<ServeStats>,
}

/// Runs one pass of the workload on `threads` workers.  With `ledger`, every
/// source is wrapped in a [`TimedSource`]; with `sink`, rows stream to it.
pub fn run_pass<'s>(
    setup: &'s Setup,
    threads: usize,
    ledger: Option<&Arc<Mutex<Ledger>>>,
    sink: Option<&'s mut dyn SummarySink>,
) -> Result<Pass, String> {
    let scheduler = setup.scheduler(threads);
    let builder = match sink {
        Some(sink) => scheduler.builder().sink(sink),
        None => scheduler.builder(),
    };
    match setup.workload {
        Workload::FleetCascade => fleet_pass(setup, scheduler, builder, ledger),
        Workload::LiveDrain => drain_pass(setup, builder, ledger),
        Workload::LiveChurn => {
            let socket = churn_socket_path()?;
            let pass = churn_pass(setup, builder, ledger, &socket);
            let _ = std::fs::remove_file(&socket);
            pass
        }
    }
}

fn fleet_pass<'s>(
    setup: &'s Setup,
    scheduler: FleetScheduler<'_>,
    builder: FleetRunBuilder<'_, 's>,
    ledger: Option<&Arc<Mutex<Ledger>>>,
) -> Result<Pass, String> {
    let fleet = &setup.fleet;
    let start = Instant::now();
    let run = match ledger {
        None => builder.spec(fleet).run(),
        Some(ledger) => {
            // Every device rebuilt from its plan, so the traced run
            // reproduces the spec-driven one.
            let feeds = (0..fleet.devices)
                .map(|id| {
                    let plan = fleet.device_plan(id);
                    let source = scheduler.device_source(fleet, &plan);
                    ExternalDevice::new(id, TimedSource::new(source, ledger))
                        .with_metadata(plan.seed, plan.routine.clone())
                        .with_backend(plan.backend)
                        .with_duration(plan.scenario.duration_s())
                })
                .collect();
            builder.spec(&setup.feed_only).feeds(feeds).run()
        }
    }
    .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let batches = run.report.total_epochs();
    Ok(Pass { wall_s, dial_s: 0.0, report: run.report, batches, reactor: None, serve: None })
}

fn drain_pass<'s>(
    setup: &'s Setup,
    builder: FleetRunBuilder<'_, 's>,
    ledger: Option<&Arc<Mutex<Ledger>>>,
) -> Result<Pass, String> {
    let generator = Generator::spawn(&setup.feeds, "tcp", false)?;
    let mut reactor = IngestReactor::new().with_policy(POLICY);
    let first = Arc::new(OnceLock::new());
    let start = Instant::now();
    let feeds = (0..setup.fleet.devices)
        .map(|id| {
            let subscribed = Instant::now();
            let source = reactor.subscribe(&generator.addr, id);
            match ledger {
                Some(ledger) => setup.feed(
                    id,
                    TimedSource::reactor_fed(FirstWindow::new(source, &first), ledger, subscribed),
                ),
                None => setup.feed(id, source),
            }
        })
        .collect();
    let runner = std::thread::spawn(move || reactor.run());
    let run = builder.spec(&setup.feed_only).feeds(feeds).run();
    let stats = runner.join().map_err(|_| "the reactor thread panicked".to_string())?;
    let end = Instant::now();
    let run = run.map_err(|e| e.to_string())?;
    let stats = stats.map_err(|e| e.to_string())?;
    let serve = generator.finish()?;
    let dial_s = match (ledger, first.get()) {
        (None, _) => 0.0,
        (Some(_), Some(streaming)) => streaming.saturating_duration_since(start).as_secs_f64(),
        (Some(_), None) => return Err("no window was ever delivered".into()),
    };
    Ok(Pass {
        wall_s: end.saturating_duration_since(start).as_secs_f64(),
        dial_s,
        report: run.report,
        batches: stats.batches,
        reactor: Some(stats),
        serve: Some(serve),
    })
}

fn churn_pass<'s>(
    setup: &'s Setup,
    builder: FleetRunBuilder<'_, 's>,
    ledger: Option<&Arc<Mutex<Ledger>>>,
    socket: &str,
) -> Result<Pass, String> {
    let listen = format!("{UNIX_ADDR_SCHEME}{socket}");
    let generator = Generator::spawn(&setup.feeds, &listen, true)?;
    let mut reactor = IngestReactor::new().with_policy(POLICY);
    let handle = reactor.handle();
    let mut join_order = setup.plan.clone();
    join_order.sort_by_key(|entry| (entry.start_epoch, entry.device_id));
    let (intake, arrivals) = mpsc::channel();
    let start = Instant::now();
    let runner = std::thread::spawn(move || reactor.run());
    let (run, stats) = std::thread::scope(|scope| {
        let addr = &generator.addr;
        scope.spawn(move || {
            let mut wave = 0;
            for entry in &join_order {
                if entry.start_epoch > wave {
                    std::thread::sleep(JOIN_WAVE_PAUSE);
                    wave = entry.start_epoch;
                }
                let id = entry.device_id;
                let subscribed = Instant::now();
                let source = handle.subscribe(addr, id);
                let feed = match ledger {
                    Some(ledger) => {
                        setup.feed(id, TimedSource::reactor_fed(source, ledger, subscribed))
                    }
                    None => setup.feed(id, source),
                };
                if intake.send(feed).is_err() {
                    return; // the scheduler failed; stop joining
                }
            }
            // Dropping the handle and the intake closes both.
        });
        let run = builder.spec(&setup.feed_only).intake(arrivals).run();
        (run, runner.join())
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = stats.map_err(|_| "the reactor thread panicked".to_string())?;
    let run = run.map_err(|e| e.to_string())?;
    let stats = stats.map_err(|e| e.to_string())?;
    let serve = generator.finish()?;
    Ok(Pass {
        wall_s,
        dial_s: 0.0,
        report: run.report,
        batches: stats.batches,
        reactor: Some(stats),
        serve: Some(serve),
    })
}

/// Directory (relative to the checkout root) for the run's feed and
/// reference files and the churn Unix socket.
pub const RUN_DIR: &str = ".perfbench-run";

/// A fresh socket path inside [`RUN_DIR`]; relative, so it stays short.
fn churn_socket_path() -> Result<String, String> {
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("creating {RUN_DIR}: {e}"))?;
    Ok(format!("{RUN_DIR}/churn-{}.sock", std::process::id()))
}
