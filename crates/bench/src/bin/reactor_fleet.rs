//! `reactor_fleet`: drives a whole fleet from live sockets through one
//! ingestion reactor and gates the result on byte-identity.
//!
//! The other half of the `telemetry_serve` soak test.  This binary:
//!
//! 1. Trains the HAR system and runs the deterministic reference
//!    `FleetReport` — scenario-driven by default, or (with `--churn`) a
//!    static per-lifetime feed run over the same churn schedule the server
//!    derives.
//! 2. Subscribes every device of the fleet to a `telemetry_serve` address
//!    (TCP `host:port` or `unix:<path>`) through a single `IngestReactor`
//!    (one thread, one `poll(2)` set for the entire cohort).  With
//!    `--churn`, devices are subscribed *while the reactor runs* through a
//!    `ReactorHandle` — in join-epoch order, staggered in time — and enter
//!    the scheduler through its intake channel, growing the lockstep cohort
//!    between ticks.
//! 3. Runs the same fleet again, scheduler-side, fed *only* by the reactor's
//!    per-device channels.
//! 4. Fails unless the live report is byte-identical to the reference
//!    (`FleetReport::encode`) and every feed completed cleanly.
//!
//! When the server was started with `--kill-at`, the affected connections are
//! torn mid-stream once and the reactor must reconnect with a RESUME frame —
//! the byte-identity gate then also proves the kill-and-resume path loses
//! and duplicates nothing, even while the cohort is churning.
//!
//! Flags: `--quick`, `--devices N` (default 64), `--duration S` (default 20),
//! `--routine NAME` (default office_day), `--seed N` (default 42), `--churn`
//! — all of which must match the serving process — plus `--connect ADDR` or
//! `--connect-file PATH` (poll for the address file `telemetry_serve
//! --addr-file` writes, up to 60 s) and `--expect-resumes` (fail unless at
//! least one reconnect actually happened, used by CI's chaos legs).

#[cfg(not(unix))]
fn main() {
    eprintln!("reactor_fleet needs poll(2) and is only built on Unix platforms");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use std::time::{Duration, Instant};

    use adasense::prelude::*;
    use adasense_bench::{
        churn_plan, int_arg, record_churn_traces, string_arg, train_system, RunScale,
    };

    let scale = RunScale::from_args();
    let devices = int_arg("--devices")?.unwrap_or(64);
    let duration_s = int_arg("--duration")?.unwrap_or(20) as f64;
    let routine = string_arg("--routine")?.unwrap_or_else(|| "office_day".to_string());
    let seed = int_arg("--seed")?.unwrap_or(42);
    let expect_resumes = std::env::args().any(|a| a == "--expect-resumes");
    let churn = std::env::args().any(|a| a == "--churn");
    let preset =
        RoutinePreset::from_name(&routine).ok_or_else(|| format!("unknown routine `{routine}`"))?;

    let addr = match string_arg("--connect")? {
        Some(addr) => addr,
        None => {
            let path = string_arg("--connect-file")?
                .ok_or("pass --connect ADDR or --connect-file PATH")?;
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                match std::fs::read_to_string(&path) {
                    Ok(text) if !text.trim().is_empty() => break text.trim().to_string(),
                    _ if Instant::now() >= deadline => {
                        return Err(
                            format!("no server address appeared at {path} within 60 s").into()
                        )
                    }
                    _ => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        }
    };

    let (spec, system) = train_system(scale)?;
    let mut fleet = FleetSpec::new(devices, duration_s, seed);
    fleet.population = PopulationSpec::single(preset, FaultLevel::None);
    let scheduler = FleetScheduler::new(&spec, &system);
    let feed_only = FleetSpec { devices: 0, ..fleet.clone() };

    let policy = ReconnectPolicy { attempts: 20, delay: Duration::from_millis(25) };

    let (reference, live, stats) = if churn {
        let plan = churn_plan(devices, duration_s);
        eprintln!("[reactor_fleet] churn reference: {devices} per-lifetime feeds…");
        let traces = record_churn_traces(&spec, &system, &fleet, &plan)?;
        let reference_feeds: Vec<_> = traces
            .iter()
            .zip(&plan)
            .map(|((_, trace), entry)| {
                // The whole trace prefilled into a ring whose sender is
                // dropped: an in-memory replay with no socket.
                let (mut sender, source) = telemetry_channel(trace.len() + 1);
                sender.send_trace(trace)?;
                let device = fleet.device_plan(entry.device_id);
                Ok(ExternalDevice::new(device.device_id, source)
                    .with_metadata(device.seed, device.routine.clone())
                    .with_backend(device.backend)
                    .with_start_epoch(entry.start_epoch)
                    .with_departed(entry.departed))
            })
            .collect::<Result<_, AdaSenseError>>()?;
        let reference = scheduler.builder().spec(&feed_only).feeds(reference_feeds).run()?;

        // Live run: devices join the running reactor in start-epoch order,
        // staggered so late joiners genuinely grow a mid-run cohort.
        let mut reactor = IngestReactor::new().with_policy(policy);
        let handle = reactor.handle();
        let runner = std::thread::spawn(move || reactor.run());
        let (feed_tx, feed_rx) = std::sync::mpsc::channel();
        let mut join_order = plan.clone();
        join_order.sort_by_key(|entry| (entry.start_epoch, entry.device_id));
        eprintln!(
            "[reactor_fleet] churning {devices} live feeds into {addr} \
             ({} late joiners, {} early departures)…",
            join_order.iter().filter(|e| e.start_epoch > 0).count(),
            join_order.iter().filter(|e| e.departed).count(),
        );
        let driver = {
            let addr = addr.clone();
            let fleet = fleet.clone();
            std::thread::spawn(move || {
                let mut last_epoch = 0;
                for entry in &join_order {
                    if entry.start_epoch > last_epoch {
                        // A new join wave: let the current cohort tick first.
                        std::thread::sleep(Duration::from_millis(10));
                        last_epoch = entry.start_epoch;
                    }
                    let source = handle.subscribe(&addr, entry.device_id);
                    let device = fleet.device_plan(entry.device_id);
                    let feed = ExternalDevice::new(device.device_id, source)
                        .with_metadata(device.seed, device.routine.clone())
                        .with_backend(device.backend)
                        .with_start_epoch(entry.start_epoch)
                        .with_departed(entry.departed);
                    if feed_tx.send(feed).is_err() {
                        return; // scheduler already failed; stop subscribing
                    }
                }
                // Dropping the handle and sender closes both intakes.
            })
        };
        let live = scheduler.builder().spec(&feed_only).intake(feed_rx).run()?;
        driver.join().expect("churn driver thread");
        let stats = runner.join().expect("reactor thread")?;
        (reference, live, stats)
    } else {
        eprintln!("[reactor_fleet] reference run: {devices} devices × {duration_s} s…");
        let reference = scheduler.builder().spec(&fleet).run()?;

        // One reactor, one socket per device, multiplexed on a single thread.
        let mut reactor = IngestReactor::new().with_policy(policy);
        let mut feeds = Vec::with_capacity(devices as usize);
        for device_id in 0..devices {
            let device = fleet.device_plan(device_id);
            let source = reactor.subscribe(&addr, device_id);
            feeds.push(
                ExternalDevice::new(device.device_id, source)
                    .with_metadata(device.seed, device.routine.clone())
                    .with_backend(device.backend),
            );
        }
        eprintln!("[reactor_fleet] connecting {} live feeds to {addr}…", reactor.feed_count());
        let runner = std::thread::spawn(move || reactor.run());
        let live = scheduler.builder().spec(&feed_only).feeds(feeds).run()?;
        let stats = runner.join().expect("reactor thread")?;
        (reference, live, stats)
    };

    println!(
        "reactor: {} feeds, {} completed, {} failed, {} joined, {} departed, {} batches, \
         {} reconnects, peak {} concurrent connections",
        stats.feeds,
        stats.completed,
        stats.failed,
        stats.joined,
        stats.departed,
        stats.batches,
        stats.reconnects,
        stats.peak_open
    );
    for (device_id, error) in &stats.errors {
        eprintln!("[reactor_fleet] device {device_id} failed: {error}");
    }
    if stats.failed > 0 {
        return Err(format!("{} feeds failed", stats.failed).into());
    }
    if expect_resumes && stats.reconnects == 0 {
        return Err("--expect-resumes: server never tore a connection, resume path untested".into());
    }

    println!("{}", live.report.to_table_string());
    if churn {
        println!(
            "churn: {} joined late, {} departed early, active peak {} devices",
            live.report.joined_devices(),
            live.report.departed_devices(),
            live.report.active_peak()
        );
    }
    if live.report.encode() != reference.report.encode() {
        eprintln!("reference report:\n{}", reference.report.to_table_string());
        return Err(if churn {
            "live churned report differs from the static per-lifetime reference".into()
        } else {
            "live reactor-fed report differs from the scenario-driven reference".into()
        });
    }
    println!(
        "determinism: reactor-fed fleet report is byte-identical to the {} reference \
         ({devices} devices, {} reconnects)",
        if churn { "per-lifetime churn" } else { "scenario" },
        stats.reconnects
    );
    Ok(())
}
