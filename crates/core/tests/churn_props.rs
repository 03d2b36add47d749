//! Chaos tests for dynamic fleet churn: devices join the live cohort at
//! arbitrary times through a [`ReactorHandle`], depart early because their
//! streams end at arbitrary lifetimes, and get their first connection torn at
//! an arbitrary byte offset (kill-and-RESUME) — and the merged `FleetReport`
//! must still be bit-identical to a static run over each device's actual
//! lifetime window.  Also pins the churn edge cases: Unix-socket/TCP parity,
//! the reactor's `PARK_THRESHOLD` park→drain→unpark round trip, and
//! `ReconnectPolicy` redial pacing.

#![cfg(unix)]

use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

use adasense::ingest::{TelemetryTrace, TraceRecorder};
use adasense::prelude::*;
use adasense::runtime::SourceStatus;
use proptest::prelude::*;

/// Trains the quick system once for every case.
fn shared_system() -> &'static (ExperimentSpec, TrainedSystem) {
    static SYSTEM: OnceLock<(ExperimentSpec, TrainedSystem)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let spec = ExperimentSpec::quick();
        let system = TrainedSystem::train(&spec).expect("quick training succeeds");
        (spec, system)
    })
}

/// The fleet every churn case replays.
fn test_fleet(seed: u64) -> FleetSpec {
    let mut fleet = FleetSpec::new(3, 6.0, seed);
    // Fault exposure is a capture-side property a replayed feed cannot
    // observe; bit-identity requires rows with `faulted_epochs == 0`.
    fleet.population = PopulationSpec::single(RoutinePreset::OfficeDay, FaultLevel::None);
    fleet
}

/// One device's lifetime inside a churn case: when it joins the fleet clock
/// and how much of the full duration it actually streams.
#[derive(Debug, Clone, Copy)]
struct ChurnCase {
    start_epoch: u64,
    lifetime_s: f64,
    departed: bool,
}

/// Maps proptest draws to per-device lifetimes: a fraction above 0.5 keeps
/// the full duration, anything below truncates into `[2, 6)` seconds.
fn churn_cases(fleet: &FleetSpec, fracs: &[f64], epochs: &[u64]) -> Vec<ChurnCase> {
    (0..fleet.devices as usize)
        .map(|d| {
            let full = fracs[d] > 0.5;
            let lifetime_s =
                if full { fleet.duration_s } else { 2.0 + fracs[d] * (fleet.duration_s - 2.1) };
            ChurnCase { start_epoch: epochs[d], lifetime_s, departed: !full }
        })
        .collect()
}

/// Records each device's trace over *its* lifetime window, exactly as the
/// scheduler would have produced it.
fn record_lifetime_traces(fleet: &FleetSpec, cases: &[ChurnCase]) -> Vec<(u64, TelemetryTrace)> {
    let (spec, system) = shared_system();
    let scheduler = FleetScheduler::new(spec, system);
    (0..fleet.devices)
        .map(|device_id| {
            let plan = fleet.device_plan(device_id);
            let recorder = TraceRecorder::new(scheduler.device_source(fleet, &plan));
            let mut runtime = DeviceRuntime::for_source(
                spec,
                system,
                fleet.controller,
                recorder,
                cases[device_id as usize].lifetime_s,
            )
            .expect("runtime construction succeeds")
            .with_classifier(system.backend(plan.backend));
            runtime.run_to_completion();
            (device_id, runtime.source().trace().clone())
        })
        .collect()
}

/// The per-lifetime feed for one device, with the churn metadata stamped on.
fn churn_feed(
    fleet: &FleetSpec,
    device_id: u64,
    source: impl SampleSource + Send + 'static,
    case: ChurnCase,
) -> ExternalDevice {
    let plan = fleet.device_plan(device_id);
    ExternalDevice::new(plan.device_id, source)
        .with_metadata(plan.seed, plan.routine.clone())
        .with_backend(plan.backend)
        .with_start_epoch(case.start_epoch)
        .with_departed(case.departed)
}

/// The static reference: every device replayed over its lifetime window as a
/// plain pre-registered feed, no sockets, no churn.
fn static_reference(
    fleet: &FleetSpec,
    traces: &[(u64, TelemetryTrace)],
    cases: &[ChurnCase],
) -> FleetRun {
    let (spec, system) = shared_system();
    let scheduler = FleetScheduler::new(spec, system);
    let feeds = traces
        .iter()
        .map(|(device_id, trace)| {
            // A ring holding the whole trace, its sender dropped: an
            // in-memory replay with no socket.
            let (mut sender, source) = telemetry_channel(trace.len() + 1);
            sender.send_trace(trace).expect("the ring holds the whole trace");
            churn_feed(fleet, *device_id, source, cases[*device_id as usize])
        })
        .collect();
    let feed_only = FleetSpec { devices: 0, ..fleet.clone() };
    scheduler
        .builder()
        .spec(&feed_only)
        .feeds(feeds)
        .collect()
        .run()
        .expect("reference run succeeds")
}

/// The live churned run: every device joins mid-run through a
/// [`ReactorHandle`] (in `rotate`d order, staggered in time) and flows into
/// the scheduler through the intake channel; the server optionally tears
/// each first stream at `kill_at`.
fn live_churn(
    fleet: &FleetSpec,
    traces: Vec<(u64, TelemetryTrace)>,
    cases: &[ChurnCase],
    kill_at: Option<usize>,
    rotate: usize,
) -> (FleetRun, ReactorStats, ServeStats) {
    let (spec, system) = shared_system();
    let scheduler = FleetScheduler::new(spec, system);
    let mut serve = TelemetryServe::bind("127.0.0.1:0", traces).expect("loopback bind succeeds");
    for (device_id, case) in cases.iter().enumerate() {
        serve.set_start_epoch(device_id as u64, case.start_epoch);
    }
    if let Some(bytes) = kill_at {
        serve = serve.with_kill_at(bytes);
    }
    let addr = serve.local_addr().to_string();
    let devices = fleet.devices;
    let server =
        std::thread::spawn(move || serve.serve_streams(devices, 50).map(|()| serve.stats()));

    let mut reactor = IngestReactor::new()
        .with_policy(ReconnectPolicy { attempts: 10, delay: Duration::from_millis(1) });
    let handle = reactor.handle();
    let runner = std::thread::spawn(move || reactor.run());

    let (feed_tx, feed_rx) = mpsc::channel();
    let driver = {
        let fleet = fleet.clone();
        let cases = cases.to_vec();
        std::thread::spawn(move || {
            for k in 0..fleet.devices as usize {
                let d = (k + rotate) % fleet.devices as usize;
                let source = handle.subscribe(&addr, d as u64);
                let feed = churn_feed(&fleet, d as u64, source, cases[d]);
                feed_tx.send(feed).expect("the scheduler holds the intake open");
                // Stagger so later devices genuinely join a running cohort.
                std::thread::sleep(Duration::from_millis(2));
            }
            // Dropping the handle and the sender closes both intakes: the
            // reactor and the scheduler wind down once the feeds drain.
        })
    };

    let feed_only = FleetSpec { devices: 0, ..fleet.clone() };
    let live = scheduler
        .builder()
        .spec(&feed_only)
        .intake(feed_rx)
        .collect()
        .run()
        .expect("live churn run succeeds");

    driver.join().expect("driver thread");
    let stats = runner.join().expect("reactor thread").expect("no reactor-global failure");
    let serve_stats = server.join().expect("server thread").expect("server completes");
    (live, stats, serve_stats)
}

/// Field-by-field bit comparison of two summary rows.
fn rows_bit_identical(a: &DeviceSummary, b: &DeviceSummary) -> bool {
    a.device_id == b.device_id
        && a.seed == b.seed
        && a.routine == b.routine
        && a.backend == b.backend
        && a.faulted_epochs == b.faulted_epochs
        && a.epochs == b.epochs
        && a.correct_epochs == b.correct_epochs
        && a.accuracy.to_bits() == b.accuracy.to_bits()
        && a.average_current_ua.to_bits() == b.average_current_ua.to_bits()
        && a.total_charge_uc.to_bits() == b.total_charge_uc.to_bits()
        && a.duration_s.to_bits() == b.duration_s.to_bits()
        && a.residency_s.len() == b.residency_s.len()
        && a.residency_s.iter().zip(&b.residency_s).all(|(x, y)| x.to_bits() == y.to_bits())
        && a.tx_epochs == b.tx_epochs
        && a.tx_bytes == b.tx_bytes
        && a.tx_charge_uc.len() == b.tx_charge_uc.len()
        && a.tx_charge_uc.iter().zip(&b.tx_charge_uc).all(|(x, y)| x.to_bits() == y.to_bits())
        && a.start_epoch == b.start_epoch
        && a.departed == b.departed
}

proptest! {
    // Each case trains nothing (shared system) but runs the fleet twice and
    // churns real sockets, so the budget is small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Join at arbitrary ticks, depart at arbitrary lifetimes, tear every
    /// first stream at an arbitrary byte offset — the merged report must be
    /// bit-identical to the static per-lifetime reference.
    #[test]
    fn churned_fleet_matches_static_per_lifetime_reference(
        seed in 0u64..1000,
        fracs in prop::collection::vec(0f64..1.0, 3),
        epochs in prop::collection::vec(0u64..40, 3),
        kill_fraction in 0f64..1.0,
        rotate in 0usize..3,
    ) {
        let fleet = test_fleet(seed);
        let cases = churn_cases(&fleet, &fracs, &epochs);
        let traces = record_lifetime_traces(&fleet, &cases);
        let reference = static_reference(&fleet, &traces, &cases);

        let stream_len =
            traces.iter().map(|(_, t)| t.encode().len()).max().expect("fleet is non-empty");
        let kill_at = ((stream_len as f64 * kill_fraction) as usize).max(1);
        let (live, stats, serve_stats) =
            live_churn(&fleet, traces, &cases, Some(kill_at), rotate);

        prop_assert_eq!(stats.failed, 0, "errors: {:?}", stats.errors);
        prop_assert_eq!(stats.joined, fleet.devices, "every device joined mid-run");
        prop_assert_eq!(stats.completed, fleet.devices);
        prop_assert!(
            stats.reconnects >= fleet.devices,
            "kill at byte {} produced only {} reconnects",
            kill_at,
            stats.reconnects
        );
        prop_assert_eq!(serve_stats.killed_streams, fleet.devices);

        prop_assert_eq!(
            live.report.encode(),
            reference.report.encode(),
            "churned report differs from the per-lifetime reference (kill at byte {})",
            kill_at
        );
        let expected_joined = cases.iter().filter(|c| c.start_epoch > 0).count() as u64;
        let expected_departed = cases.iter().filter(|c| c.departed).count() as u64;
        prop_assert_eq!(live.report.joined_devices(), expected_joined);
        prop_assert_eq!(live.report.departed_devices(), expected_departed);
        prop_assert_eq!(live.report.active_peak(), reference.report.active_peak());

        // Intake rows fold in completion order; compare as a multiset.
        let mut live_rows = live.summaries.clone();
        live_rows.sort_by_key(|row| row.device_id);
        prop_assert_eq!(live_rows.len(), reference.summaries.len());
        for (a, b) in reference.summaries.iter().zip(&live_rows) {
            prop_assert!(
                rows_bit_identical(a, b),
                "device {} differs (kill at byte {}):\n  reference: {:?}\n  live:      {:?}",
                a.device_id,
                kill_at,
                a,
                b
            );
        }
    }
}

/// The same cohort served over a Unix-domain socket and over loopback TCP
/// must produce byte-identical fleet reports — the transport is invisible to
/// the rows.
#[test]
fn unix_and_tcp_transports_produce_byte_identical_reports() {
    let (spec, system) = shared_system();
    let scheduler = FleetScheduler::new(spec, system);
    let fleet = test_fleet(71);
    let full: Vec<ChurnCase> = (0..fleet.devices)
        .map(|_| ChurnCase { start_epoch: 0, lifetime_s: fleet.duration_s, departed: false })
        .collect();
    let traces = record_lifetime_traces(&fleet, &full);

    let run_cohort = |addr: String, serve: TelemetryServe| {
        let mut serve = serve;
        let devices = fleet.devices;
        let server =
            std::thread::spawn(move || serve.serve_streams(devices, 50).map(|()| serve.stats()));
        let mut reactor = IngestReactor::new()
            .with_policy(ReconnectPolicy { attempts: 10, delay: Duration::from_millis(1) });
        let feeds: Vec<_> = (0..fleet.devices)
            .map(|device_id| {
                let plan = fleet.device_plan(device_id);
                ExternalDevice::new(plan.device_id, reactor.subscribe(&addr, device_id))
                    .with_metadata(plan.seed, plan.routine.clone())
                    .with_backend(plan.backend)
            })
            .collect();
        let reactor = std::thread::spawn(move || reactor.run());
        let feed_only = FleetSpec { devices: 0, ..fleet.clone() };
        let live = scheduler
            .builder()
            .spec(&feed_only)
            .feeds(feeds)
            .collect()
            .run()
            .expect("cohort run succeeds");
        let stats = reactor.join().expect("reactor thread").expect("no feed fails");
        assert_eq!(stats.failed, 0, "errors: {:?}", stats.errors);
        server.join().expect("server thread").expect("server completes");
        live
    };

    let tcp_serve = TelemetryServe::bind("127.0.0.1:0", traces.clone()).unwrap();
    let tcp = run_cohort(tcp_serve.local_addr().to_string(), tcp_serve);

    let dir = std::env::temp_dir().join(format!("adasense-churn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("parity.sock");
    let path_str = path.to_str().unwrap().to_string();
    let uds_serve = TelemetryServe::bind_unix(&path_str, traces).unwrap();
    let uds = run_cohort(format!("unix:{path_str}"), uds_serve);
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        uds.report.encode(),
        tcp.report.encode(),
        "the transport leaked into the fleet report"
    );
    assert_eq!(uds.summaries.len(), tcp.summaries.len());
    for (a, b) in tcp.summaries.iter().zip(&uds.summaries) {
        assert!(rows_bit_identical(a, b), "device {} differs across transports", a.device_id);
    }
}

/// A consumer that stalls long enough for the reactor-side overflow to cross
/// `PARK_THRESHOLD` (32 batches atop a 1-batch channel ring) forces the feed
/// through park → drain → unpark — and every batch must still arrive exactly
/// once, in order.
#[test]
fn overflow_past_the_park_threshold_round_trips_without_loss() {
    let config = SensorConfig::paper_pareto_front()[0];
    // Large enough (~150 KB encoded) that one bounded read burst cannot
    // swallow the whole stream: the reactor must park the fd while the
    // overflow queue is full and resume reading after the drain.
    let batches = 2_500usize;
    let mut trace = TelemetryTrace::new();
    for i in 0..batches {
        trace.batches.push(TelemetryBatch::new(
            config,
            2.0 * (i + 1) as f64,
            2.0,
            0,
            vec![Sample3::new(i as f64, 0.125, -0.125, 1.0)],
        ));
    }
    let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(1, trace)]).unwrap();
    let addr = serve.local_addr().to_string();
    let server = std::thread::spawn(move || serve.serve_streams(1, 50).unwrap());

    let mut reactor = IngestReactor::new()
        .with_channel_capacity(1)
        .with_policy(ReconnectPolicy { attempts: 10, delay: Duration::from_millis(1) });
    let mut source = reactor.subscribe(&addr, 1);
    let consumer = std::thread::spawn(move || {
        // Stall first: the ring (1) fills, then the overflow (32), then the
        // connection parks while the server still has frames to send.
        std::thread::sleep(Duration::from_millis(150));
        let mut delivered = 0usize;
        let mut window = Vec::new();
        while source.status() == SourceStatus::Ready {
            let t_end = 2.0 * (delivered + 1) as f64;
            window.clear();
            source.capture_window(config, t_end, 2.0, &mut window);
            assert_eq!(window.len(), 1, "batch {delivered} arrived out of order");
            assert_eq!(window[0].t.to_bits(), (delivered as f64).to_bits());
            delivered += 1;
        }
        assert_eq!(source.status(), SourceStatus::Exhausted);
        delivered
    });
    let stats = reactor.run().unwrap();
    assert_eq!(consumer.join().unwrap(), batches, "every batch exactly once, in order");
    assert_eq!((stats.completed, stats.failed, stats.batches), (1, 0, batches as u64), "{stats:?}");
    server.join().unwrap();
}

/// Redials are paced by the policy delay: with `attempts` tries `delay`
/// apart, a dead address cannot fail faster than `(attempts - 1) × delay`,
/// and the terminal error names the attempt budget.
#[test]
fn redial_backoff_paces_attempts_by_the_policy_delay() {
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let delay = Duration::from_millis(40);
    let mut reactor = IngestReactor::new().with_policy(ReconnectPolicy { attempts: 3, delay });
    let source = reactor.subscribe(&dead, 8);
    let started = Instant::now();
    let stats = reactor.run().unwrap();
    let elapsed = started.elapsed();
    assert!(elapsed >= delay * 2, "3 attempts 40 ms apart cannot finish in {elapsed:?}");
    assert_eq!((stats.completed, stats.failed), (0, 1), "{stats:?}");
    assert!(
        stats.errors[0].1.to_string().contains("3 attempts"),
        "the error names the attempt budget: {}",
        stats.errors[0].1
    );
    drop(source);

    // `ReconnectPolicy::once` gives exactly one attempt: no pacing sleeps.
    let mut reactor = IngestReactor::new().with_policy(ReconnectPolicy::once());
    let source = reactor.subscribe(&dead, 9);
    let stats = reactor.run().unwrap();
    assert_eq!((stats.completed, stats.failed), (0, 1), "{stats:?}");
    assert!(
        stats.errors[0].1.to_string().contains("1 attempts"),
        "the once-policy error names its single attempt: {}",
        stats.errors[0].1
    );
    drop(source);
}
