//! Equivalence of the closed-form box averages with grid sampling.
//!
//! The BMI160's under-sampling average is computed analytically for activity
//! signals and traces (`SignalSource::box_average_run` overrides).  These
//! properties pin it to the reference grid average
//! (`box_average_by_sampling`) far below one quantization step (4 g / 2¹⁶ ≈
//! 6.1e-5 g), and check that a whole fleet's quantized capture is unchanged.

use adasense_data::{
    Activity, ActivityChangeSetting, ActivitySchedule, ActivitySignalModel, ActivityTrace,
    SubjectParams,
};
use adasense_sensor::box_average_by_sampling;
use adasense_sensor::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest tolerated |closed form − grid| per axis, in g.
const TOLERANCE_G: f64 = 1e-12;
/// Output samples per averaged run: one 2-second window.
const WINDOW_S: f64 = 2.0;

fn internal_period() -> f64 {
    1.0 / EnergyModel::bmi160().internal_rate_hz
}

/// Runs both averaging paths over one window and returns the largest axis
/// difference.
fn max_deviation<S: SignalSource>(source: &S, config: SensorConfig, t0: f64) -> f64 {
    let count = config.samples_in(WINDOW_S);
    let period = config.frequency.period_s();
    let n = config.averaging.samples() as usize;
    let mut closed = vec![[0.0; 3]; count];
    let mut grid = vec![[0.0; 3]; count];
    source.box_average_run(t0, period, n, internal_period(), &mut closed);
    box_average_by_sampling(source, t0, period, n, internal_period(), &mut grid);
    closed
        .iter()
        .zip(&grid)
        .flat_map(|(a, b)| (0..3).map(move |axis| (a[axis] - b[axis]).abs()))
        .fold(0.0, f64::max)
}

fn medium_trace(seed: u64) -> ActivityTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ActivitySchedule::random(ActivityChangeSetting::Medium, 130.0, &mut rng);
    ActivityTrace::from_schedule(schedule, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every configuration × activity, random subject and window start.
    #[test]
    fn activity_signal_closed_form_matches_grid(seed in 0u64..u64::MAX, t0 in -5.0f64..125.0) {
        let subject = SubjectParams::sample(&mut StdRng::seed_from_u64(seed));
        for activity in Activity::ALL {
            let signal = ActivitySignalModel::canonical(activity).realize(&subject);
            for config in SensorConfig::all_combinations() {
                let deviation = max_deviation(&signal, config, t0);
                prop_assert!(
                    deviation <= TOLERANCE_G,
                    "{activity} {config} t0={t0}: deviation {deviation:e} g"
                );
            }
        }
    }

    /// Random Medium schedules, with windows anywhere (including before
    /// t = 0) and windows forced across each cross-fade.
    #[test]
    fn activity_trace_closed_form_matches_grid(
        seed in 0u64..u64::MAX,
        t0 in -3.0f64..125.0,
        offset in 0.0f64..2.5,
    ) {
        let trace = medium_trace(seed);
        let mut starts = vec![t0];
        starts.extend(trace.schedule().change_times().iter().map(|c| c - offset));
        for config in SensorConfig::all_combinations() {
            for &start in &starts {
                let deviation = max_deviation(&trace, config, start);
                prop_assert!(
                    deviation <= TOLERANCE_G,
                    "{config} start={start}: deviation {deviation:e} g"
                );
            }
        }
    }
}

/// A 256-device fleet captured through the closed form and through the grid
/// (the same trace wrapped in a plain closure, which keeps the default
/// `box_average_run`) produces identical quantized samples.
#[test]
fn fleet_capture_has_no_quantized_sample_flips() {
    let configs = SensorConfig::all_combinations();
    let mut flips = 0usize;
    let mut samples = 0usize;
    for device in 0..256u64 {
        let trace = medium_trace(device);
        let sampled = |t: f64| trace.value(t);
        let mut closed_rng = StdRng::seed_from_u64(device);
        let mut grid_rng = StdRng::seed_from_u64(device);
        for (i, &config) in configs.iter().enumerate() {
            let accel = Accelerometer::new(config);
            let start = WINDOW_S * i as f64 - 1.0;
            let closed = accel.capture(&trace, start, WINDOW_S, &mut closed_rng);
            let grid = accel.capture(&sampled, start, WINDOW_S, &mut grid_rng);
            samples += closed.len();
            flips += closed.iter().zip(&grid).filter(|(a, b)| a != b).count();
        }
    }
    println!("closed form vs grid: {flips} quantized-sample flips in {samples} samples");
    assert_eq!(flips, 0);
}
