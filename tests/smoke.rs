//! Cheap full-closed-loop smoke test.
//!
//! This is the one test CI relies on to prove the whole stack is alive — spec →
//! training → closed-loop SPOT simulation → report — without the heavier
//! statistical assertions of `end_to_end.rs`. It must stay fast (one quick
//! training run, one short scenario).

use adasense_repro::adasense::prelude::*;

#[test]
fn quick_spec_trains_and_simulates_the_full_closed_loop() {
    let spec = ExperimentSpec::quick();
    let trained = TrainedSystem::train(&spec).expect("quick spec trains");

    let report = Simulator::new(&spec, &trained)
        .with_controller(ControllerKind::Spot { stability_threshold: 5 })
        .run(ScenarioSpec::sit_then_walk(20.0, 20.0))
        .expect("closed-loop simulation runs");

    assert!(report.accuracy() > 0.0, "the closed loop must classify something correctly");
    assert!(
        report.average_current_ua() > 0.0,
        "the energy model must account a positive average current"
    );
    assert!(!report.records().is_empty(), "the simulator must emit per-epoch records");

    // The same trained system drives a small fleet through the parallel
    // scheduler, deterministically in the worker count.  The small lockstep
    // chunk splits 6 devices into 3 jobs so two workers genuinely run
    // concurrently (one chunk would clamp both runs to a single worker).
    let fleet = FleetSpec { lockstep_devices: 2, ..FleetSpec::new(6, 20.0, 42) };
    let scheduler = FleetScheduler::new(&spec, &trained);
    let parallel =
        scheduler.with_threads(2).builder().spec(&fleet).run().expect("fleet runs").report;
    assert_eq!(parallel.len(), 6, "one summary per device");
    assert!(parallel.mean_current_ua() > 0.0);
    let serial = scheduler.with_threads(1).builder().spec(&fleet).run().expect("fleet runs").report;
    assert_eq!(serial, parallel, "fleet reports must not depend on the worker count");

    // The scenario library drives a heterogeneous faulted cohort through the
    // same scheduler, still bit-identical in the worker count.
    let cohort = FleetSpec {
        lockstep_devices: 2,
        population: PopulationSpec::mixed(FaultLevel::Heavy),
        ..FleetSpec::new(6, 20.0, 42)
    };
    let parallel =
        scheduler.with_threads(2).builder().spec(&cohort).run().expect("cohort runs").report;
    let serial =
        scheduler.with_threads(1).builder().spec(&cohort).run().expect("cohort runs").report;
    assert_eq!(serial, parallel, "scenario cohorts must not depend on the worker count");
    assert!(!parallel.routine_breakdown().is_empty(), "the cohort reports per-routine stats");
}
