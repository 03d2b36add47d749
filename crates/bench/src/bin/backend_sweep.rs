//! Backend sweep: quantized int8 and the early-exit cascade vs full-precision
//! f64 inference across the three daily-routine presets.
//!
//! For every routine the sweep runs the same cohort three times — once per
//! built-in backend (`f64`, `int8`, `cascade`) — and reports accuracy, mean
//! current and the accuracy delta vs the f64 reference; cascade cohorts also
//! report their stage-1 exit rate.  It then runs mixed (half f64, half int8)
//! and mixed-cascade (half f64, half cascade) cohorts per routine at 1 *and*
//! 4 worker threads and exits non-zero unless the two `FleetReport`s are
//! bit-identical (the determinism gate for heterogeneous-backend fleets).
//! Finally it measures batched inference wall-clock for all three backends on
//! feature rows drawn from the training distribution, in strict interleaved
//! alternation, and reports the int8 and cascade speedups over f64.
//!
//! The binary exits non-zero if any routine's int8 *or* cascade accuracy
//! degradation exceeds 1 accuracy point, if a cascade cohort never exits
//! early (a dead stage 1 means the cascade is pure overhead), if a mixed
//! cohort is not worker-count deterministic, if the int8 batch path clearly
//! regresses below the f64 path (< 0.9x; near-parity on unknown hardware
//! only warns, since the ~1.06x reference-container margin is
//! machine-dependent), or if the cascade batch path fails its > 1.5x
//! speedup gate over f64 at the default 256-row batch.
//!
//! Run with `cargo run --release -p adasense-bench --bin backend_sweep -- --quick`.
//! Flags: `--devices N` and `--duration S` resize the cohorts, `--batch N`
//! sets the microbenchmark batch size.

use adasense::prelude::*;
use adasense_bench::{int_arg, train_system, RunScale};
use adasense_data::WindowDataset;
use adasense_dsp::FeatureExtractor;

/// Cascade must beat full-precision batched inference by this factor at the
/// default batch size; the early exit exists to *skip* work, so near-parity
/// means the calibrated threshold has collapsed to always-escalate.
const CASCADE_SPEEDUP_GATE: f64 = 1.5;

/// Median wall-clock seconds per `predict_batch_into` call for each backend.
///
/// The backends are timed in strict round-robin alternation so ambient noise
/// (CPU frequency shifts, scheduler preemption) hits every distribution
/// equally, and the median discards the outliers it still causes.
fn time_batches(backends: &[&dyn Classifier], rows: &[Vec<f64>], reps: usize) -> Vec<f64> {
    let mut out = Vec::new();
    // Warm-up: grows every retained buffer and spins the core up.
    for _ in 0..10 {
        for backend in backends {
            backend.predict_batch_into(rows, &mut out);
        }
    }
    let mut samples = vec![Vec::with_capacity(reps); backends.len()];
    for _ in 0..reps {
        for (backend, lane) in backends.iter().zip(&mut samples) {
            let start = std::time::Instant::now();
            backend.predict_batch_into(rows, &mut out);
            lane.push(start.elapsed().as_secs_f64());
        }
    }
    samples
        .into_iter()
        .map(|mut lane| {
            lane.sort_by(f64::total_cmp);
            lane[reps / 2]
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = RunScale::from_args();
    let devices = int_arg("--devices")?.unwrap_or(if scale == RunScale::Quick { 8 } else { 48 });
    let duration_s =
        int_arg("--duration")?.unwrap_or(if scale == RunScale::Quick { 120 } else { 360 }) as f64;
    let batch = int_arg("--batch")?.unwrap_or(256) as usize;

    let (spec, system) = train_system(scale)?;

    println!("Backend sweep — {devices} devices × {duration_s} s per cohort\n");
    println!("routine          backend  acc(%)  current(uA)   delta(pts)  exit(%)");
    let mut worst_int8_delta = 0.0f64;
    let mut worst_cascade_delta = 0.0f64;
    for routine in RoutinePreset::ALL {
        let mut accuracy = [0.0f64; BackendKind::ALL.len()];
        for (slot, kind) in BackendKind::ALL.into_iter().enumerate() {
            let fleet = FleetSpec {
                population: PopulationSpec::single(routine, FaultLevel::None)
                    .with_backend(BackendSpec::Uniform(kind)),
                lockstep_devices: 4,
                ..FleetSpec::new(devices, duration_s, 131)
            };
            let report = FleetScheduler::new(&spec, &system).builder().spec(&fleet).run()?.report;
            accuracy[slot] = report.mean_accuracy();
            let delta = if kind == BackendKind::F64 {
                "-".to_string()
            } else {
                format!("{:+.2}", 100.0 * (accuracy[slot] - accuracy[0]))
            };
            let exit_rate = if kind == BackendKind::Cascade {
                let staged = report.total_early_exit_epochs() + report.total_escalated_epochs();
                if staged == 0 {
                    return Err(
                        format!("cascade cohort recorded no staged epochs ({routine})").into()
                    );
                }
                if report.total_early_exit_epochs() == 0 {
                    return Err(format!(
                        "cascade stage 1 never exited early ({routine}): the margin \
                         threshold has collapsed to always-escalate"
                    )
                    .into());
                }
                format!("{:.1}", 100.0 * report.cascade_exit_rate())
            } else {
                "-".to_string()
            };
            println!(
                "{:<16} {:<7} {:>7.2} {:>12.1} {:>12} {:>8}",
                routine.label(),
                kind.label(),
                100.0 * report.mean_accuracy(),
                report.mean_current_ua(),
                delta,
                exit_rate
            );
        }
        worst_int8_delta = worst_int8_delta.max(100.0 * (accuracy[0] - accuracy[1]));
        worst_cascade_delta = worst_cascade_delta.max(100.0 * (accuracy[0] - accuracy[2]));

        // Heterogeneous cohorts must stay worker-count deterministic.
        for mixed_backend in [BackendSpec::half_int8(), BackendSpec::half_cascade()] {
            let mixed = FleetSpec {
                population: PopulationSpec::single(routine, FaultLevel::None)
                    .with_backend(mixed_backend),
                lockstep_devices: 4,
                ..FleetSpec::new(devices, duration_s, 131)
            };
            let scheduler = FleetScheduler::new(&spec, &system);
            let parallel = scheduler.with_threads(4).builder().spec(&mixed).run()?.report;
            let serial = scheduler.with_threads(1).builder().spec(&mixed).run()?.report;
            if serial != parallel {
                return Err(format!(
                    "mixed-backend 4-worker report differs from the 1-worker report ({routine})"
                )
                .into());
            }
        }
    }
    println!("\nworst int8 accuracy degradation:    {worst_int8_delta:.2} pts");
    println!("worst cascade accuracy degradation: {worst_cascade_delta:.2} pts");
    if worst_int8_delta > 1.0 {
        return Err(
            format!("int8 degraded accuracy by {worst_int8_delta:.2} pts (budget: 1.00)").into()
        );
    }
    if worst_cascade_delta > 1.0 {
        return Err(format!(
            "cascade degraded accuracy by {worst_cascade_delta:.2} pts (budget: 1.00)"
        )
        .into());
    }
    println!("determinism: all mixed-backend cohorts are bit-identical at 1 vs 4 workers");

    // Batched-inference microbenchmark on training-distribution features.
    let dataset = WindowDataset::generate(&spec.dataset, spec.seed.wrapping_add(77));
    let extractor = FeatureExtractor::paper();
    let rows: Vec<Vec<f64>> = dataset
        .iter()
        .take(batch)
        .map(|w| extractor.extract(&w.samples, w.config.frequency.hz()).into_inner())
        .collect();
    let reps = 301;
    let medians = time_batches(
        &[
            system.backend(BackendKind::F64),
            system.backend(BackendKind::Int8),
            system.backend(BackendKind::Cascade),
        ],
        &rows,
        reps,
    );
    let (f64_s, int8_s, cascade_s) = (medians[0], medians[1], medians[2]);
    let int8_speedup = f64_s / int8_s;
    let cascade_speedup = f64_s / cascade_s;
    println!(
        "\nbatch inference ({} rows, median of {reps}): f64 {:.1} µs, int8 {:.1} µs \
         ({int8_speedup:.2}x), cascade {:.1} µs ({cascade_speedup:.2}x)",
        rows.len(),
        1e6 * f64_s,
        1e6 * int8_s,
        1e6 * cascade_s
    );
    // Int8: hard-fail only on a clear regression — the measured margin is real
    // but modest (~1.06x on the reference container), and shared CI runners
    // span CPU generations whose autovectorization profiles can erase it.  A
    // below-parity-but-close result is reported loudly instead of turning
    // every unrelated PR red.
    if int8_speedup < 0.90 {
        return Err(
            format!("int8 batch inference regressed well below f64 ({int8_speedup:.2}x)").into()
        );
    }
    if int8_speedup <= 1.0 {
        eprintln!(
            "[backend_sweep] warning: int8 batch speedup is {int8_speedup:.2}x on this machine \
             (expected > 1.0x on hardware matching the reference container)"
        );
    }
    // Cascade: hard gate.  The early exit skips the full GEMM on most rows,
    // so its margin is structural (fewer multiply-accumulates), not a
    // microarchitectural accident — if it drops under 1.5x the calibrated
    // threshold or the stage-1 network has regressed.
    if cascade_speedup <= CASCADE_SPEEDUP_GATE {
        return Err(format!(
            "cascade batch inference is only {cascade_speedup:.2}x vs f64 at {} rows \
             (gate: > {CASCADE_SPEEDUP_GATE:.1}x)",
            rows.len()
        )
        .into());
    }
    Ok(())
}
