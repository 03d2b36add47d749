//! `perfbench`: the measuring process of the repository benchmark.
//!
//! ```text
//! perfbench --workload <fleet-cascade|live-drain|live-churn> --seed N --seconds S --trace 0|1
//! perfbench prepare --workload W --seed N --feeds FILE --expected FILE
//! perfbench serve --listen <tcp|unix:PATH> --feeds FILE [--chaos]
//! ```
//!
//! The first form measures a workload for `S` seconds on `nproc` scheduler
//! workers.  `--trace 0` passes are untraced and give the end-to-end
//! metrics: the second form sets the workload up in a child process, at
//! least three times (reporting the median as `setup_s`), and writes its
//! reference report; this process then only trains the system, resets its
//! memory high-water mark and measures, so `peak_rss_mib` covers the passes,
//! not set-up.  `--trace 1` sets up once in process, alternates untraced and
//! traced passes and adds the direct layer timings, giving the per-layer
//! metrics and `trace.overhead_pct`.  Every pass's ADSR report must be
//! byte-identical to the reference (and a traced pass's spooled rows to the
//! reference rows); each mismatch counts its devices as failed operations.
//! The last stdout line is the result object; the exit code is 0 only when
//! nothing failed.
//!
//! The third form is the load generator, started by the first in a process
//! of its own for every live pass (see `generator.rs`).

#![forbid(unsafe_code)]

mod generator;
mod layers;
mod ledger;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adasense::prelude::*;

use crate::ledger::{Ledger, TimedSink};
use crate::workloads::{run_pass, Pass, Setup, Workload, RUN_DIR};

/// Set-ups per run: at least `MIN_SETUPS`, more while under `SETUP_BUDGET_S`
/// (short set-ups are noisy), at most `MAX_SETUPS`; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// Reconnects a `live-churn` pass must show (one per torn device).
const CHURN_MIN_RECONNECTS: u64 = generator::KILL_BELOW;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let helper = match args.first().map(String::as_str) {
        Some("serve") => Some(("serve", serve(&args[1..]))),
        Some("prepare") => Some(("prepare", prepare_main(&args[1..]))),
        _ => None,
    };
    let code = if let Some((mode, outcome)) = helper {
        outcome.map_or_else(
            |e| {
                eprintln!("[perfbench {mode}] {e}");
                1
            },
            |()| 0,
        )
    } else {
        let outcome = run(&args);
        let _ = std::fs::remove_file(run_file("feeds"));
        let _ = std::fs::remove_file(run_file("expected"));
        let _ = std::fs::remove_dir(RUN_DIR); // only succeeds when empty
        match outcome {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("[perfbench] {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            args.get(i + 1).map(|v| Some(v.as_str())).ok_or_else(|| format!("{name} needs a value"))
        }
    }
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let value = flag(args, name)?.ok_or_else(|| format!("missing {name}"))?;
    value.parse().map_err(|_| format!("{name}: cannot parse `{value}`"))
}

fn serve(args: &[String]) -> Result<(), String> {
    let listen = flag(args, "--listen")?.ok_or("missing --listen")?;
    let feeds = flag(args, "--feeds")?.ok_or("missing --feeds")?;
    let chaos = args.iter().any(|a| a == "--chaos");
    generator::serve_main(listen, Path::new(feeds), chaos)
}

/// Resets this process's `VmHWM` to its current resident size.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the memory high-water mark: {e}"))
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// A sketch percentile, or 0 when nothing was observed.
fn percentile(sketch: &QuantileSketch, p: f64) -> f64 {
    if sketch.is_empty() {
        0.0
    } else {
        sketch.percentile(p)
    }
}

/// Work and host time pooled over passes.  Pooling, not a median of
/// per-pass rates, because `live-drain` pass times are two-valued (see the
/// dial stall in the README).
#[derive(Default)]
struct Pooled {
    passes: usize,
    epochs: u64,
    batches: u64,
    wall_s: f64,
}

impl Pooled {
    fn add(&mut self, pass: &Pass) {
        self.passes += 1;
        self.epochs += pass.report.total_epochs();
        self.batches += pass.batches;
        self.wall_s += pass.wall_s;
    }

    fn ticks_per_s(&self) -> f64 {
        self.epochs as f64 / self.wall_s
    }

    fn batches_per_s(&self) -> f64 {
        self.batches as f64 / self.wall_s
    }
}

/// Failed operations and the run's metrics, printed at the end.
struct Results {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Results {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one pass: every device is an attempted operation; a pass that
    /// errored, whose report differs from the reference or that missed its
    /// reconnect quota fails all of them, otherwise failed feeds fail alone.
    fn check(
        &mut self,
        label: &str,
        workload: Workload,
        pass: Result<Pass, String>,
        reference: &[u8],
        devices: u64,
    ) -> Option<Pass> {
        self.attempted += devices;
        let pass = match pass {
            Ok(pass) => pass,
            Err(e) => {
                eprintln!("[perfbench] {label} pass failed: {e}");
                self.failed += devices;
                return None;
            }
        };
        let reconnects = pass.reactor.as_ref().map_or(0, |r| r.reconnects);
        if pass.report.encode() != reference {
            eprintln!("[perfbench] {label} pass: report differs from the reference");
            self.failed += devices;
        } else if workload == Workload::LiveChurn && reconnects < CHURN_MIN_RECONNECTS {
            eprintln!("[perfbench] {label} pass: {reconnects} reconnects, expected ≥{CHURN_MIN_RECONNECTS}");
            self.failed += devices;
        } else if let Some(reactor) = &pass.reactor {
            self.failed += reactor.failed;
        }
        Some(pass)
    }

    fn print(&self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        println!("  {:<34} {frac:>16.4} (of {} operations)", "ops_failed_frac", self.attempted);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn workload_arg(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// A file of this run inside [`RUN_DIR`].
fn run_file(kind: &str) -> PathBuf {
    PathBuf::from(format!("{RUN_DIR}/{kind}-{}.bin", std::process::id()))
}

/// The `perfbench prepare` entry point: sets the workload up at least
/// `MIN_SETUPS` times (the last set-up writes the feed file), writes the
/// reference report and prints every set-up's seconds.
fn prepare_main(args: &[String]) -> Result<(), String> {
    let workload = workload_arg(&required::<String>(args, "--workload")?)?;
    let seed: u64 = required(args, "--seed")?;
    let feeds: PathBuf = required(args, "--feeds")?;
    let expected: PathBuf = required(args, "--expected")?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut built = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(built.take());
        let start = Instant::now();
        built = Some(Setup::build(workload, seed, workers, &feeds)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup = built.expect("at least one set-up ran");
    let reference = setup.reference(workers).map_err(|e| e.to_string())?;
    std::fs::write(&expected, reference.report.encode())
        .map_err(|e| format!("writing {}: {e}", expected.display()))?;
    let times: Vec<String> = setup_s.iter().map(|s| format!("{s:?}")).collect();
    println!("setup {}", times.join(" "));
    Ok(())
}

/// Runs `perfbench prepare` in a child process, waits for it and returns
/// its set-up seconds.
fn prepare(name: &str, seed: u64, feeds: &Path, expected: &Path) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let output = Command::new(exe)
        .args(["prepare", "--workload", name, "--seed", &seed.to_string()])
        .arg("--feeds")
        .arg(feeds)
        .arg("--expected")
        .arg(expected)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the set-up process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the set-up process exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let times = stdout
        .lines()
        .last()
        .and_then(|line| line.strip_prefix("setup "))
        .ok_or("the set-up process printed no set-up times")?;
    times.split(' ').map(|t| t.parse().map_err(|_| format!("bad set-up time `{t}`"))).collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    let name: String = required(args, "--workload")?;
    let workload = workload_arg(&name)?;
    let seed: u64 = required(args, "--seed")?;
    let seconds: f64 = required(args, "--seconds")?;
    let traced = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!("[perfbench] {name}: seed {seed}, {seconds} s, {workers} workers, trace {traced}");

    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("creating {RUN_DIR}: {e}"))?;
    let feeds = run_file("feeds");
    let mut results = Results { attempted: 0, failed: 0, metrics: Vec::new() };
    let mut untraced = Pooled::default();
    if !traced {
        // Set-up and the reference run in a child process, so this process
        // holds only what a pass needs and `peak_rss_mib` covers the passes.
        let expected_path = run_file("expected");
        let setup_s = prepare(&name, seed, &feeds, &expected_path)?;
        let expected = std::fs::read(&expected_path)
            .map_err(|e| format!("reading {}: {e}", expected_path.display()))?;
        let report = FleetReport::decode(&expected).map_err(|e| e.to_string())?;
        let devices = report.len();
        eprintln!(
            "[perfbench] set-up {:.2} s (median of {}); reference {devices} devices, {} epochs",
            median(&setup_s),
            setup_s.len(),
            report.total_epochs()
        );
        let setup = Setup::trained(workload, seed, &feeds)?;
        reset_peak_rss()?;
        let start = Instant::now();
        while untraced.passes == 0 || start.elapsed().as_secs_f64() < seconds {
            let pass = guarded_pass(&setup, workers, None, None);
            let Some(pass) = results.check("untraced", workload, pass, &expected, devices) else {
                break;
            };
            untraced.add(&pass);
            eprintln!("[perfbench] pass {}: {:.3} s", untraced.passes, pass.wall_s);
        }
        results.add("device_ticks_per_s", untraced.ticks_per_s(), "1/s");
        results.add("batches_per_s", untraced.batches_per_s(), "1/s");
        results.add("accuracy_pct", 100.0 * report.mean_accuracy(), "%");
        results.add("sensor_current_ua", report.mean_current_ua(), "uA");
        let rss = adasense_bench::peak_rss_bytes().unwrap_or(0) as f64;
        results.add("peak_rss_mib", rss / (1024.0 * 1024.0), "MiB");
        results.add("setup_s", median(&setup_s), "s");
        eprintln!("[perfbench] {} untraced passes", untraced.passes);
    } else {
        let setup = Setup::build(workload, seed, workers, &feeds)?;
        let reference = setup.reference(workers).map_err(|e| e.to_string())?;
        let expected = reference.report.encode();
        let devices = reference.report.len();
        let start = Instant::now();
        // Alternate untraced and traced passes so both see the same host.
        let mut ledger = Ledger::default();
        let mut traced = Pooled::default();
        let mut traced_passes: Vec<Pass> = Vec::new();
        let mut expected_rows = reference.summaries.clone();
        expected_rows.sort_by_key(|row| row.device_id);
        while traced.passes == 0 || start.elapsed().as_secs_f64() < seconds {
            let pass = guarded_pass(&setup, workers, None, None);
            let Some(pass) = results.check("untraced", workload, pass, &expected, devices) else {
                break;
            };
            untraced.add(&pass);

            let shared = Ledger::shared();
            let spool = SpoolWriter::new(Vec::new()).map_err(|e| e.to_string())?;
            let mut sink = TimedSink::new(spool);
            let pass = guarded_pass(&setup, workers, Some(&shared), Some(&mut sink));
            let mut pass_ledger = std::mem::take(&mut *shared.lock().map_err(|e| e.to_string())?);
            let spooled = sink.finish(&mut pass_ledger).finish().map_err(|e| e.to_string())?;
            let failed_before = results.failed;
            let Some(pass) = results.check("traced", workload, pass, &expected, devices) else {
                break;
            };
            let mut rows: Vec<DeviceSummary> = SpoolReader::new(spooled.as_slice())
                .map_err(|e| e.to_string())?
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            rows.sort_by_key(|row| row.device_id);
            // A pass already failed whole is not counted twice.
            if results.failed == failed_before && rows != expected_rows {
                eprintln!("[perfbench] traced pass: spooled rows differ from the reference rows");
                results.failed += devices;
            }
            ledger.merge(&pass_ledger);
            traced.add(&pass);
            traced_passes.push(pass);
        }
        // The 1-worker baseline: one untraced pass, after the others so it
        // runs warm.
        let single = guarded_pass(&setup, 1, None, None);
        let single_tps = results
            .check("1-worker", workload, single, &expected, devices)
            .map_or(0.0, |p| p.report.total_epochs() as f64 / p.wall_s);
        let figures = layers::measure(&setup, seed, &reference).map_err(|e| e.to_string())?;
        let k = traced_passes.len().max(1) as f64;
        per_layer(&mut results, &ledger, &traced_passes, k, workers, traced.wall_s);
        results.add("fleet.workers", workers as f64, "count");
        results.add("fleet.scaling", untraced.ticks_per_s() / single_tps, "x");
        for (name, value, unit) in figures {
            results.add(name, value, unit);
        }
        let (plain, timed) = (untraced.ticks_per_s(), traced.ticks_per_s());
        results.add("trace.overhead_pct", 100.0 * (plain - timed) / plain, "%");
        eprintln!("[perfbench] {} untraced + {k} traced passes", untraced.passes);
    }
    results.print();
    Ok(results.failed == 0 && results.attempted > 0)
}

/// [`run_pass`], with a panic inside the system under test (a failed
/// internal check) reported as a failed pass instead of ending the run.
fn guarded_pass<'s>(
    setup: &'s Setup,
    threads: usize,
    ledger: Option<&Arc<Mutex<Ledger>>>,
    sink: Option<&'s mut dyn SummarySink>,
) -> Result<Pass, String> {
    catch_unwind(AssertUnwindSafe(|| run_pass(setup, threads, ledger, sink)))
        .unwrap_or_else(|_| Err("the system under test panicked".into()))
}

/// The decorator- and stats-derived per-layer metrics, per traced pass.
fn per_layer(
    results: &mut Results,
    ledger: &Ledger,
    passes: &[Pass],
    k: f64,
    workers: usize,
    traced_wall_s: f64,
) {
    let windows = ledger.total_windows();
    results.add("capture.windows", windows as f64 / k, "count");
    results.add("capture.busy_s", ledger.capture_s() / k, "s");
    results.add(
        "capture.share_pct",
        100.0 * ledger.capture_s() / (workers as f64 * traced_wall_s),
        "%",
    );
    for config in SensorConfig::paper_pareto_front() {
        let i = config.index();
        let us = if ledger.windows[i] == 0 {
            0.0
        } else {
            ledger.capture_ns[i] as f64 / ledger.windows[i] as f64 * 1e-3
        };
        results.add(format!("capture.us_per_window.{}", config.label()), us, "us");
    }
    for config in SensorConfig::paper_pareto_front() {
        let share = ledger.windows[config.index()] as f64 / windows.max(1) as f64;
        results.add(format!("controller.residency_pct.{}", config.label()), 100.0 * share, "%");
    }
    results.add("controller.switches", ledger.switches as f64 / k, "count");

    let reactor = |f: fn(&ReactorStats) -> u64| -> Vec<u64> {
        passes.iter().filter_map(|p| p.reactor.as_ref()).map(f).collect()
    };
    let serve = |f: fn(&ServeStats) -> u64| -> Vec<u64> {
        passes.iter().filter_map(|p| p.serve.as_ref()).map(f).collect()
    };
    let mean = |v: Vec<u64>| v.iter().sum::<u64>() as f64 / k;
    let max = |v: Vec<u64>| v.into_iter().max().unwrap_or(0) as f64;
    results.add("reactor.batches", mean(reactor(|r| r.batches)), "count");
    results.add("reactor.reconnects", mean(reactor(|r| r.reconnects)), "count");
    results.add("reactor.peak_open", max(reactor(|r| r.peak_open)), "count");
    results.add("reactor.failed", mean(reactor(|r| r.failed)), "count");
    results.add("reactor.dial_s", passes.iter().map(|p| p.dial_s).sum::<f64>() / k, "s");
    results.add("reactor.wait_s", ledger.wait_ns as f64 * 1e-9 / k, "s");
    results.add("reactor.wait_p50_us", percentile(&ledger.wait_us, 50.0), "us");
    results.add("reactor.wait_p99_us", percentile(&ledger.wait_us, 99.0), "us");
    results.add("reactor.admit_p50_ms", percentile(&ledger.admit_ms, 50.0), "ms");
    results.add("reactor.admit_p98_ms", percentile(&ledger.admit_ms, 98.0), "ms");
    results.add("serve.parked", mean(serve(|s| s.parked)), "count");
    results.add("serve.dropped", mean(serve(|s| s.dropped)), "count");
    results.add("serve.resumes", mean(serve(|s| s.resume_requests)), "count");
    results.add("serve.peak_open", max(serve(|s| s.peak_open)), "count");
    let sink_us = ledger.sink_ns as f64 * 1e-3 / ledger.sink_rows.max(1) as f64;
    results.add("shard.sink_us_per_row", sink_us, "us");
}
