//! Telemetry record/replay gate: scenario → wire-format trace file → loopback
//! socket → fleet runtime, verified bit-identical to the direct run.
//!
//! The pipeline (see `docs/WIRE_FORMAT.md` and ARCHITECTURE.md):
//!
//! 1. Run a scenario-driven fleet through the scheduler (the reference).
//! 2. Re-run every device standalone under a `TraceRecorder` and write its
//!    stream as a wire-format `.trace` file.
//! 3. Decode every trace file, serve them all from one loopback
//!    `TelemetryServe`, and replay the whole cohort through one
//!    `IngestReactor` whose channels are the run's feeds.
//! 4. Fail unless every replayed `DeviceSummary` row is bit-identical to the
//!    reference row.
//! 5. Additionally run a *mixed* fleet — the scenario cohort plus a
//!    channel-fed replay cohort in one run — and verify
//!    both halves.
//!
//! Run with `cargo run --release -p adasense-bench --bin telemetry_replay`
//! (add `--quick` for the reduced training set; `--devices N`, `--duration S`,
//! `--routine <preset>`, `--fault <none|light|heavy>` and `--trace-dir PATH`
//! to change the workload).  Exits non-zero on any mismatch or failed feed.
//! The reactor needs `poll(2)`, so the binary is built for Unix only.

#[cfg(unix)]
use std::path::{Path, PathBuf};

#[cfg(unix)]
use adasense::prelude::*;
#[cfg(unix)]
use adasense_bench::{int_arg, string_arg, train_system, RunScale};

#[cfg(not(unix))]
fn main() {
    eprintln!("telemetry_replay needs poll(2) and is only built on Unix platforms");
    std::process::exit(2);
}

#[cfg(unix)]
fn trace_path(dir: &Path, device_id: u64) -> PathBuf {
    dir.join(format!("device_{device_id:04}.trace"))
}

/// Compares two summary rows field by field, returning the names of the
/// fields that differ.  `ignore_faults` masks `faulted_epochs`: fault
/// exposure is a capture-side property a replayed feed cannot observe.
#[cfg(unix)]
fn row_mismatches(a: &DeviceSummary, b: &DeviceSummary, ignore_faults: bool) -> Vec<&'static str> {
    let mut bad = Vec::new();
    let mut check = |name, equal: bool| {
        if !equal {
            bad.push(name);
        }
    };
    check("device_id", a.device_id == b.device_id);
    check("seed", a.seed == b.seed);
    check("routine", a.routine == b.routine);
    check("backend", a.backend == b.backend);
    check("faulted_epochs", ignore_faults || a.faulted_epochs == b.faulted_epochs);
    check("epochs", a.epochs == b.epochs);
    check("correct_epochs", a.correct_epochs == b.correct_epochs);
    check("accuracy", a.accuracy.to_bits() == b.accuracy.to_bits());
    check("average_current_ua", a.average_current_ua.to_bits() == b.average_current_ua.to_bits());
    check("total_charge_uc", a.total_charge_uc.to_bits() == b.total_charge_uc.to_bits());
    check("duration_s", a.duration_s.to_bits() == b.duration_s.to_bits());
    check(
        "residency_s",
        a.residency_s.len() == b.residency_s.len()
            && a.residency_s.iter().zip(&b.residency_s).all(|(x, y)| x.to_bits() == y.to_bits()),
    );
    bad
}

#[cfg(unix)]
fn compare_cohorts(
    what: &str,
    reference: &[DeviceSummary],
    replayed: &[DeviceSummary],
    ignore_faults: bool,
) -> Result<(), String> {
    if reference.len() != replayed.len() {
        return Err(format!(
            "{what}: row count mismatch ({} reference vs {} replayed)",
            reference.len(),
            replayed.len()
        ));
    }
    for (a, b) in reference.iter().zip(replayed) {
        let bad = row_mismatches(a, b, ignore_faults);
        if !bad.is_empty() {
            return Err(format!(
                "{what}: device {} differs in [{}]\n  reference: {a:?}\n  replayed:  {b:?}",
                a.device_id,
                bad.join(", ")
            ));
        }
    }
    println!("{what}: {} rows bit-identical", reference.len());
    Ok(())
}

#[cfg(unix)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = RunScale::from_args();
    let devices = int_arg("--devices")?.unwrap_or(6);
    let duration_s = int_arg("--duration")?.unwrap_or(60) as f64;
    let routine = string_arg("--routine")?.unwrap_or_else(|| "office_day".to_string());
    let fault = string_arg("--fault")?.unwrap_or_else(|| "none".to_string());
    let trace_dir = PathBuf::from(
        string_arg("--trace-dir")?.unwrap_or_else(|| "target/telemetry_replay".into()),
    );

    let preset =
        RoutinePreset::from_name(&routine).ok_or_else(|| format!("unknown routine `{routine}`"))?;
    let fault = FaultLevel::from_name(&fault)
        .ok_or_else(|| format!("unknown fault level `{fault}` (none, light or heavy)"))?;
    let ignore_faults = fault != FaultLevel::None;

    let (spec, system) = train_system(scale)?;
    let mut fleet = FleetSpec::new(devices, duration_s, 42);
    fleet.population = PopulationSpec::single(preset, fault);

    // Always compare a genuinely multi-threaded replay against the reference,
    // even on 1-core CI.
    let scheduler = FleetScheduler::new(&spec, &system);
    let scheduler = scheduler.with_threads(scheduler.worker_threads().max(4));

    // 1) Reference: the scenario-driven fleet.
    eprintln!(
        "[telemetry_replay] reference run: {devices} devices × {duration_s} s of {} (fault {})…",
        preset.label(),
        fault.label()
    );
    let reference = scheduler.builder().spec(&fleet).collect().run()?;
    println!("{}", reference.report.to_table_string());

    // 2) Record every device's stream and export it as a wire-format file.
    std::fs::create_dir_all(&trace_dir)?;
    let mut plans = Vec::with_capacity(devices as usize);
    let mut total_bytes = 0u64;
    for device_id in 0..devices {
        let plan = fleet.device_plan(device_id);
        let recorder = TraceRecorder::new(scheduler.device_source(&fleet, &plan));
        let mut runtime = DeviceRuntime::for_source(
            &spec,
            &system,
            fleet.controller,
            recorder,
            plan.scenario.duration_s(),
        )?
        .with_classifier(system.backend(plan.backend));
        runtime.run_to_completion();
        let trace = runtime.source().trace().clone();
        let mut file = std::fs::File::create(trace_path(&trace_dir, device_id))?;
        trace.encode_to(&mut file)?;
        total_bytes += file.metadata()?.len();
        plans.push(plan);
    }
    eprintln!(
        "[telemetry_replay] recorded {devices} traces ({:.1} KiB) to {}",
        total_bytes as f64 / 1024.0,
        trace_dir.display()
    );

    // 3) Decode every trace file, serve them all from one loopback server and
    //    replay the cohort through one ingestion reactor
    //    (file → server → reactor → runtime).
    let mut traces = Vec::with_capacity(plans.len());
    for plan in &plans {
        let bytes = std::fs::read(trace_path(&trace_dir, plan.device_id))?;
        traces.push((plan.device_id, TelemetryTrace::decode(&bytes)?));
    }
    let mut serve = TelemetryServe::bind("127.0.0.1:0", traces.clone())?;
    let addr = serve.local_addr().to_string();
    let server = std::thread::spawn(move || serve.serve_streams(devices, 50));
    let mut reactor = IngestReactor::new();
    let feeds = plans
        .iter()
        .map(|plan| {
            ExternalDevice::new(plan.device_id, reactor.subscribe(&addr, plan.device_id))
                .with_metadata(plan.seed, plan.routine.clone())
                .with_backend(plan.backend)
        })
        .collect();
    let runner = std::thread::spawn(move || reactor.run());
    let feed_only = FleetSpec { devices: 0, ..fleet.clone() };
    let replayed = scheduler.builder().spec(&feed_only).feeds(feeds).collect().run()?;
    let stats = runner.join().expect("reactor thread")?;
    server.join().expect("replay server thread")?;
    for (device_id, error) in &stats.errors {
        eprintln!("[telemetry_replay] device {device_id} failed: {error}");
    }
    if stats.failed > 0 {
        return Err(format!("{} reactor feeds failed", stats.failed).into());
    }
    compare_cohorts("reactor replay", &reference.summaries, &replayed.summaries, ignore_faults)?;

    // 4) Mixed fleet: the scenario cohort and a channel-fed replay cohort in
    //    one scheduler run.
    let mut channel_feeds = Vec::with_capacity(plans.len());
    let mut feeders = Vec::with_capacity(plans.len());
    for (plan, (_, trace)) in plans.iter().zip(traces) {
        let (mut tx, source) = telemetry_channel(8);
        feeders.push(std::thread::spawn(move || tx.send_trace(&trace)));
        channel_feeds.push(
            ExternalDevice::new(devices + plan.device_id, source)
                .with_metadata(plan.seed, plan.routine.clone())
                .with_backend(plan.backend),
        );
    }
    let mixed = scheduler.builder().spec(&fleet).feeds(channel_feeds).collect().run()?;
    for feeder in feeders {
        feeder.join().expect("channel feeder thread")?;
    }
    let (scenario_half, feed_half) = mixed.summaries.split_at(devices as usize);
    compare_cohorts("mixed fleet, scenario half", &reference.summaries, scenario_half, false)?;
    let mut expected_feed_half = reference.summaries.clone();
    for row in &mut expected_feed_half {
        row.device_id += devices;
        if ignore_faults {
            row.faulted_epochs = 0;
        }
    }
    compare_cohorts("mixed fleet, channel half", &expected_feed_half, feed_half, ignore_faults)?;

    println!(
        "determinism: reactor and channel replays reproduce the scenario run bit for bit \
         ({} devices, {:.0} s, {}, fault {})",
        devices,
        duration_s,
        preset.label(),
        fault.label()
    );
    Ok(())
}
