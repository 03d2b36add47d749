//! Benchmarks of the sensor substrate backing Table I and Fig. 2: the duty-cycle
//! energy model, the simulated accelerometer capture path and its noise stage.

use adasense_sensor::noise::scaled_gaussian;
use adasense_sensor::prelude::*;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn walk_like(t: f64) -> [f64; 3] {
    let tau = std::f64::consts::TAU;
    [
        0.1 + 0.05 * (tau * 0.95 * t).sin(),
        0.08 + 0.16 * (tau * 1.9 * t).sin(),
        0.985 + 0.27 * (tau * 1.9 * t).sin() + 0.12 * (tau * 3.8 * t).sin(),
    ]
}

fn bench_energy_model(c: &mut Criterion) {
    let model = EnergyModel::bmi160();
    let table = SensorConfig::table_i();
    c.bench_function("energy_model/current_ua_table_i", |b| {
        b.iter(|| {
            let total: f64 = table.iter().map(|&cfg| model.current_ua(black_box(cfg))).sum();
            black_box(total)
        })
    });
    c.bench_function("energy_model/charge_accounting_1h", |b| {
        b.iter(|| {
            let mut charge = Charge::ZERO;
            for second in 0..3600 {
                let config = table[second % table.len()];
                charge += model.charge_over(black_box(config), 1.0);
            }
            black_box(charge)
        })
    });
}

fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("accelerometer_capture_2s");
    for config in SensorConfig::paper_pareto_front() {
        let accel = Accelerometer::new(config);
        group.bench_function(config.label(), |b| {
            b.iter_batched(
                || StdRng::seed_from_u64(7),
                |mut rng| black_box(accel.capture(&walk_like, 0.0, 2.0, &mut rng)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The noise stage alone: one F100_A128 window's worth of draws (200 samples
/// × 3 axes) at that configuration's output noise std.
fn bench_noise(c: &mut Criterion) {
    let config = SensorConfig::new(SamplingFrequency::F100, AveragingWindow::A128);
    let std = NoiseModel::bmi160().output_noise_std_g(config);
    let mut rng = StdRng::seed_from_u64(7);
    let mut window = vec![0.0; 600];
    c.bench_function("noise/scaled_gaussian_600", |b| {
        b.iter(|| {
            for value in &mut window {
                *value = scaled_gaussian(black_box(std), &mut rng);
            }
            black_box(&window);
        })
    });
}

criterion_group!(benches, bench_energy_model, bench_capture, bench_noise);
criterion_main!(benches);
