//! Fleet smoke run: simulates a population of wearables through the parallel
//! fleet scheduler and verifies that the multi-threaded result is bit-identical
//! to the single-threaded one with the same base seed.
//!
//! Run with `cargo run --release -p adasense-bench --bin fleet_sim`
//! (add `--quick` for a reduced training set; `--devices N` and `--duration S`
//! to change the population; `--backend <f64|int8|cascade|mixed|mixed-cascade>`
//! selects the inference backend assignment; `--bench-json` additionally
//! writes the throughput measurement to `BENCH_fleet.json` — `--bench-out
//! PATH` to move it; `--bench-baseline PATH` turns the run into the
//! `perf-track` ratchet, exiting non-zero when measured device-ticks/s fall
//! more than 20% below the committed baseline).  Exits non-zero if the
//! determinism check fails.

use adasense::prelude::*;
use adasense_bench::{int_arg, peak_rss_bytes, string_arg, train_system, FleetBench, RunScale};

/// Largest tolerated throughput drop vs the committed baseline before the
/// ratchet fails the run.  20% is far above shared-runner noise on the
/// interleaved cohort sizes CI uses, yet small enough that a hot-path
/// regression cannot hide behind variance for more than one PR.
const RATCHET_REGRESSION_BUDGET: f64 = 0.20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = RunScale::from_args();
    let (spec, system) = train_system(scale)?;

    let mut fleet = FleetSpec::smoke();
    if let Some(devices) = int_arg("--devices")? {
        fleet.devices = devices;
    }
    if let Some(duration) = int_arg("--duration")? {
        fleet.duration_s = duration as f64;
    }
    let mut backend_label = "f64".to_string();
    if let Some(backend) = string_arg("--backend")? {
        fleet.population.backend = match backend.as_str() {
            "mixed" => BackendSpec::half_int8(),
            "mixed-cascade" => BackendSpec::half_cascade(),
            name => BackendSpec::Uniform(BackendKind::from_name(name).ok_or_else(|| {
                format!("unknown backend `{name}` (f64, int8, cascade, mixed or mixed-cascade)")
            })?),
        };
        backend_label = backend;
    }
    let (devices, duration_s) = (fleet.devices, fleet.duration_s);

    // One worker per available core: more would only oversubscribe the host
    // and understate its throughput.
    let scheduler = FleetScheduler::new(&spec, &system);
    let threads = scheduler.worker_threads();
    eprintln!("[fleet_sim] running {devices} devices × {duration_s} s on {threads} workers…");
    let start = std::time::Instant::now();
    let parallel = scheduler.builder().spec(&fleet).run()?.report;
    let wall = start.elapsed();

    println!("Fleet simulation — {devices} devices × {duration_s} s\n");
    println!("{}", parallel.to_table_string());
    let simulated_s = parallel.total_duration_s();
    println!(
        "wall clock: {:.2} s on {threads} workers ({:.0}x realtime)",
        wall.as_secs_f64(),
        simulated_s / wall.as_secs_f64().max(1e-9)
    );

    let bench = FleetBench {
        devices,
        duration_s,
        backend: backend_label,
        device_ticks: parallel.total_epochs(),
        wall_s: wall.as_secs_f64(),
        threads,
        peak_rss_bytes: peak_rss_bytes(),
    };
    if std::env::args().any(|a| a == "--bench-json") {
        let path = string_arg("--bench-out")?.unwrap_or_else(|| "BENCH_fleet.json".to_string());
        std::fs::write(&path, bench.to_json())?;
        println!(
            "bench: {:.0} device-ticks/s, peak RSS {} → {path}",
            bench.device_ticks_per_sec(),
            bench
                .peak_rss_bytes
                .map_or("n/a".to_string(), |b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)))
        );
    }

    // Throughput ratchet: compare against a committed baseline measurement
    // and fail loudly on a regression beyond the budget.  Comparing
    // device-ticks/s (not wall seconds) keeps the ratchet meaningful even if
    // the cohort shape on the command line drifts from the baseline's, but we
    // still flag a shape mismatch so a misconfigured CI job cannot pass by
    // accident on an easier cohort.
    if let Some(baseline_path) = string_arg("--bench-baseline")? {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
        let baseline = FleetBench::from_json(&text)
            .map_err(|e| format!("malformed baseline `{baseline_path}`: {e}"))?;
        if (baseline.devices, baseline.duration_s) != (devices, duration_s) {
            return Err(format!(
                "ratchet cohort mismatch: baseline is {} devices × {} s, this run is \
                 {devices} × {duration_s} s",
                baseline.devices, baseline.duration_s
            )
            .into());
        }
        let (measured, reference) = (bench.device_ticks_per_sec(), baseline.device_ticks_per_sec());
        let floor = reference * (1.0 - RATCHET_REGRESSION_BUDGET);
        println!(
            "ratchet: measured {measured:.0} ticks/s vs baseline {reference:.0} \
             (backend {}, floor {floor:.0})",
            baseline.backend
        );
        if measured < floor {
            return Err(format!(
                "throughput ratchet failed: {measured:.0} device-ticks/s is more than \
                 {:.0}% below the committed baseline of {reference:.0} \
                 (floor {floor:.0}; if the regression is intended, regenerate \
                 BENCH_fleet.json with --bench-json and commit it)",
                100.0 * RATCHET_REGRESSION_BUDGET
            )
            .into());
        }
    }

    // The check always pits a multi-threaded run against a serial one: on a
    // single-core host the timed run was the serial one, so run 2 workers.
    let check_threads = if threads == 1 { 2 } else { 1 };
    eprintln!("[fleet_sim] verifying bit-identity against a {check_threads}-worker run…");
    let check = scheduler.with_threads(check_threads).builder().spec(&fleet).run()?.report;
    if check != parallel {
        return Err(format!(
            "{threads}-worker fleet run differs from the {check_threads}-worker run"
        )
        .into());
    }
    println!(
        "determinism: {threads}-worker report is bit-identical to the {check_threads}-worker report"
    );
    Ok(())
}
