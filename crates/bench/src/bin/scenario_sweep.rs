//! Scenario sweep: SPOT vs static-hold across daily-routine presets and sensor
//! fault levels, run through the parallel fleet scheduler.
//!
//! For every `(routine, fault level)` combination the sweep runs a single-routine
//! cohort twice — once under the paper's best adaptive controller (SPOT with
//! confidence) and once under the static high-power hold — and reports mean
//! accuracy, mean current and fault exposure.  Every fleet is executed at 4
//! worker threads *and* at 1, and the binary exits non-zero unless the two
//! `FleetReport`s are bit-identical, which is the determinism gate the CI
//! scenario matrix relies on.
//!
//! Run with `cargo run --release -p adasense-bench --bin scenario_sweep -- --quick`.
//! Flags: `--routine <office_day|active_commute|sedentary_night>` and
//! `--fault <none|light|heavy>` restrict the sweep to one combination;
//! `--devices N` and `--duration S` resize the cohorts.

use adasense::prelude::*;
use adasense_bench::{int_arg, string_arg, train_system, RunScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = RunScale::from_args();

    let routines: Vec<RoutinePreset> = match string_arg("--routine")? {
        Some(name) => vec![RoutinePreset::from_name(&name)
            .ok_or_else(|| format!("unknown routine `{name}` (try office_day)"))?],
        None => RoutinePreset::ALL.to_vec(),
    };
    let faults: Vec<FaultLevel> = match string_arg("--fault")? {
        Some(name) => vec![FaultLevel::from_name(&name)
            .ok_or_else(|| format!("unknown fault level `{name}` (none, light or heavy)"))?],
        None => FaultLevel::ALL.to_vec(),
    };
    let devices = int_arg("--devices")?.unwrap_or(if scale == RunScale::Quick { 8 } else { 48 });
    // Quick cohorts still need to outlive the longest routine blocks
    // (sedentary_night opens with a 72–108 s lying segment): 120 s guarantees
    // every preset crosses at least one activity transition, so the CI matrix
    // gates real routine dynamics rather than degenerate single-segment runs.
    let duration_s =
        int_arg("--duration")?.unwrap_or(if scale == RunScale::Quick { 120 } else { 360 }) as f64;

    let (spec, system) = train_system(scale)?;
    let controllers = [
        (
            "SPOT+conf",
            ControllerKind::SpotWithConfidence {
                stability_threshold: 10,
                confidence_threshold: 0.85,
            },
        ),
        ("static-hold", ControllerKind::StaticHigh),
    ];

    println!(
        "Scenario sweep — {devices} devices × {duration_s} s per cohort \
         ({} routines × {} fault levels)\n",
        routines.len(),
        faults.len()
    );
    println!("routine          fault   controller    acc(%)  current(uA)  faulted(%)");
    let mut combinations = 0usize;
    for &routine in &routines {
        for &fault in &faults {
            for (tag, controller) in controllers {
                let fleet = FleetSpec {
                    controller,
                    population: PopulationSpec::single(routine, fault),
                    lockstep_devices: 4,
                    ..FleetSpec::new(devices, duration_s, 97)
                };
                let scheduler = FleetScheduler::new(&spec, &system);
                let parallel = scheduler.with_threads(4).builder().spec(&fleet).run()?.report;
                let serial = scheduler.with_threads(1).builder().spec(&fleet).run()?.report;
                if serial != parallel {
                    return Err(format!(
                        "4-worker report differs from the 1-worker report \
                         (routine {routine}, fault {fault}, {tag})"
                    )
                    .into());
                }
                println!(
                    "{:<16} {:<7} {:<12} {:>6.2} {:>12.1} {:>11.1}",
                    routine.label(),
                    fault.label(),
                    tag,
                    100.0 * parallel.mean_accuracy(),
                    parallel.mean_current_ua(),
                    100.0 * parallel.mean_faulted_fraction()
                );
            }
            combinations += 1;
        }
    }
    println!(
        "\ndeterminism: all {combinations} routine x fault cohorts are bit-identical \
         at 1 vs 4 workers"
    );
    Ok(())
}
