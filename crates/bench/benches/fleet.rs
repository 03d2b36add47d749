//! Benchmarks of the fleet scheduler: devices simulated per wall-clock second,
//! single- vs multi-threaded, and the lockstep-batched classification path.

use adasense::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

fn shared_system() -> &'static (ExperimentSpec, TrainedSystem) {
    static SYSTEM: OnceLock<(ExperimentSpec, TrainedSystem)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let spec = ExperimentSpec {
            dataset: DatasetSpec { windows_per_class_per_config: 12, ..DatasetSpec::quick() },
            ..ExperimentSpec::quick()
        };
        let system = TrainedSystem::train(&spec).expect("training succeeds");
        (spec, system)
    })
}

fn bench_fleet_scheduler(c: &mut Criterion) {
    let (spec, system) = shared_system();
    let mut group = c.benchmark_group("fleet_16_devices_30s");
    group.sample_size(10);
    let fleet = FleetSpec::new(16, 30.0, 64);
    group.bench_function("one_worker", |b| {
        b.iter(|| {
            let report = FleetScheduler::new(spec, system)
                .with_threads(1)
                .builder()
                .spec(&fleet)
                .run()
                .expect("fleet runs")
                .report;
            black_box(report.mean_current_ua())
        })
    });
    group.bench_function("all_workers", |b| {
        b.iter(|| {
            let report = FleetScheduler::new(spec, system)
                .builder()
                .spec(&fleet)
                .run()
                .expect("fleet runs")
                .report;
            black_box(report.mean_current_ua())
        })
    });
    group.finish();
}

fn bench_lockstep_chunking(c: &mut Criterion) {
    let (spec, system) = shared_system();
    let mut group = c.benchmark_group("fleet_lockstep_batching");
    group.sample_size(10);
    for (name, lockstep_devices) in [("per_device", 1), ("lockstep_16", 16)] {
        let fleet = FleetSpec { lockstep_devices, ..FleetSpec::new(16, 20.0, 64) };
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = FleetScheduler::new(spec, system)
                    .with_threads(1)
                    .builder()
                    .spec(&fleet)
                    .run()
                    .expect("fleet runs")
                    .report;
                black_box(report.mean_accuracy())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_scheduler, bench_lockstep_chunking);
criterion_main!(benches);
