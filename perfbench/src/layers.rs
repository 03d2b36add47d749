//! Direct timings of single layers through their public APIs: feature
//! extraction, classification per backend and cascade stage, one runtime
//! tick, one 16-device lockstep tick, the ADSN codec and the mergeable
//! report.  Inputs come from the workload seed and, where the workload has
//! them, its own sources and traces.

use std::hint::black_box;
use std::time::Instant;

use adasense::prelude::*;

use crate::workloads::{prefilled, record, Setup, Workload};

/// How long each timing loop runs at least, in seconds.
const MIN_LOOP_S: f64 = 0.15;
/// Windows captured per configuration for the extract/classify corpus.
const CORPUS_WINDOWS: usize = 32;
/// Devices in the lockstep chunk (the scheduler's default).
const LOCKSTEP: usize = 16;
/// Reactor read size, so the decoder sees the same fragmentation.
const READ_BLOCK: usize = 8192;

/// One measured layer figure: name, value, unit.
pub type Figure = (String, f64, &'static str);

/// Seconds per call of `f`, which performs `calls` calls per invocation;
/// loops until [`MIN_LOOP_S`] has passed.
fn seconds_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        f();
        done += calls;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_LOOP_S {
            return elapsed / done as f64;
        }
    }
}

/// Runs every direct layer timing for `setup`.  The reference run's rows
/// and report are the report layer's input.
pub fn measure(
    setup: &Setup,
    seed: u64,
    reference: &FleetRun,
) -> Result<Vec<Figure>, AdaSenseError> {
    let mut out = Vec::new();
    dsp_and_ml(setup, seed, &mut out);
    // `fleet-cascade` serves no traces; record its first lockstep chunk.
    let recorded = match setup.workload {
        Workload::FleetCascade => {
            let ids: Vec<(u64, Option<f64>)> = (0..LOCKSTEP as u64).map(|id| (id, None)).collect();
            record(&setup.spec, &setup.system, &setup.fleet, &ids, 1)?
        }
        _ => Vec::new(),
    };
    let traces: Vec<&TelemetryTrace> = match setup.workload {
        Workload::FleetCascade => recorded.iter().map(|(_, t)| t).collect(),
        _ => setup.served.iter().map(|(_, _, t)| t).collect(),
    };
    runtime(setup, &traces, &mut out)?;
    codec(&traces, &mut out)?;
    report(reference, &mut out);
    Ok(out)
}

/// Feature extraction per configuration and classification per backend and
/// cascade stage, over real windows of every Pareto configuration.
fn dsp_and_ml(setup: &Setup, seed: u64, out: &mut Vec<Figure>) {
    let scenario = RoutinePreset::OfficeDay.script().scenario(120.0, 1.0, seed);
    let mut source = ScenarioSource::new(&setup.spec, &scenario);
    let extractor = setup.system.extractor();
    let mut features = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for config in SensorConfig::paper_pareto_front() {
        let windows: Vec<Vec<Sample3>> = (0..CORPUS_WINDOWS)
            .map(|k| {
                let mut window = Vec::new();
                source.capture_window(config, 2.0 + 3.0 * k as f64, 2.0, &mut window);
                window
            })
            .collect();
        let hz = config.frequency.hz();
        let s = seconds_per_call(windows.len(), || {
            for window in &windows {
                extractor.extract_into(black_box(window), hz, &mut features);
                black_box(&features);
            }
        });
        out.push((format!("dsp.extract_us.{}", config.label()), s * 1e6, "us"));
        for window in &windows {
            extractor.extract_into(window, hz, &mut features);
            rows.push(features.clone());
        }
    }

    let mut predictions = Vec::new();
    for kind in BackendKind::ALL {
        let classifier = setup.system.backend(kind);
        let s = seconds_per_call(rows.len(), || {
            for row in &rows {
                black_box(classifier.predict(black_box(row)));
            }
        });
        out.push((format!("ml.classify_row_us.{}", kind.label()), s * 1e6, "us"));
        let s = seconds_per_call(rows.len(), || {
            for chunk in rows.chunks(LOCKSTEP) {
                classifier.predict_batch_into(black_box(chunk), &mut predictions);
                black_box(&predictions);
            }
        });
        out.push((format!("ml.classify_batch16_row_us.{}", kind.label()), s * 1e6, "us"));
    }

    // Split by the stage `predict_staged` reports; an escalated call includes
    // its stage-1 attempt.
    let cascade = setup.system.cascade_classifier();
    let (exits, escalations): (Vec<&Vec<f64>>, Vec<&Vec<f64>>) =
        rows.iter().partition(|row| cascade.predict_staged(row).1 == CascadeStage::EarlyExit);
    out.push(("ml.cascade.exit_pct".into(), 100.0 * exits.len() as f64 / rows.len() as f64, "%"));
    for (name, group) in [("ml.cascade.stage1_us", &exits), ("ml.cascade.stage2_us", &escalations)]
    {
        let us = if group.is_empty() {
            0.0
        } else {
            1e6 * seconds_per_call(group.len(), || {
                for row in group {
                    black_box(cascade.predict_staged(black_box(row)));
                }
            })
        };
        out.push((name.into(), us, "us"));
    }
}

/// `DeviceRuntime::step` and one lockstep tick of 16 devices, over the
/// workload's own kind of source: synthesized scenarios on `fleet-cascade`,
/// replayed traces on `live-*`.
fn runtime(
    setup: &Setup,
    traces: &[&TelemetryTrace],
    out: &mut Vec<Figure>,
) -> Result<(), AdaSenseError> {
    let (spec, system, fleet) = (&setup.spec, &setup.system, &setup.fleet);
    let classifier = system.backend(fleet.device_plan(0).backend);
    let runtimes = || -> Result<Vec<_>, AdaSenseError> {
        (0..LOCKSTEP as u64)
            .map(|id| {
                let plan = fleet.device_plan(id);
                let source: Box<dyn SampleSource + Send> = match setup.workload {
                    Workload::FleetCascade => {
                        Box::new(setup.scheduler(1).device_source(fleet, &plan))
                    }
                    _ => Box::new(prefilled(traces[id as usize])?),
                };
                let duration = plan.scenario.duration_s();
                Ok(DeviceRuntime::for_source(spec, system, fleet.controller, source, duration)?
                    .with_recording(false)
                    .with_classifier(classifier))
            })
            .collect()
    };

    let singles = runtimes()?;
    let mut ticks = 0usize;
    let start = Instant::now();
    for mut runtime in singles {
        while runtime.step().is_some() && !runtime.is_complete() {}
        ticks += runtime.ticks();
    }
    out.push(("runtime.tick_us".into(), start.elapsed().as_secs_f64() * 1e6 / ticks as f64, "us"));

    let mut cohort = runtimes()?;
    let mut batch: Vec<Vec<f64>> = vec![Vec::new(); LOCKSTEP];
    let mut members = Vec::with_capacity(LOCKSTEP);
    let mut predictions = Vec::new();
    let mut lockstep_ticks = 0usize;
    let start = Instant::now();
    loop {
        members.clear();
        let mut live = false;
        for (i, runtime) in cohort.iter_mut().enumerate() {
            if runtime.is_complete() {
                continue;
            }
            match runtime.begin_tick() {
                TickPhase::Exhausted => {}
                TickPhase::Idle(_) => live = true,
                TickPhase::Classify => {
                    live = true;
                    let row = &mut batch[members.len()];
                    row.clear();
                    row.extend_from_slice(runtime.pending_features());
                    members.push(i);
                }
            }
        }
        if !live {
            break;
        }
        classifier.predict_batch_into(&batch[..members.len()], &mut predictions);
        for (&i, prediction) in members.iter().zip(predictions.drain(..)) {
            cohort[i].complete_tick(prediction);
        }
        lockstep_ticks += 1;
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / lockstep_ticks.max(1) as f64;
    out.push(("runtime.lockstep16_us".into(), us, "us"));
    Ok(())
}

/// The ADSN codec over the workload's traces: the generator's frame encoder
/// and the reactor's incremental parser fed in reactor-sized reads.
fn codec(traces: &[&TelemetryTrace], out: &mut Vec<Figure>) -> Result<(), AdaSenseError> {
    let mut encoder = FrameEncoder::new();
    let mut streams: Vec<Vec<u8>> = Vec::new();
    let encode_s = seconds_per_call(1, || {
        streams.clear();
        for trace in traces {
            let mut stream = encoder.header().to_vec();
            for batch in &trace.batches {
                stream.extend_from_slice(encoder.batch(batch));
            }
            stream.extend_from_slice(encoder.end(trace.len() as u64));
            streams.push(stream);
        }
    });
    let bytes: usize = streams.iter().map(Vec::len).sum();
    let mut decoded = TelemetryBatch::placeholder();
    let mut failure = None;
    let decode_s = seconds_per_call(1, || {
        for stream in &streams {
            let mut parser = StreamParser::telemetry();
            for block in stream.chunks(READ_BLOCK) {
                parser.feed(block);
                loop {
                    match parser.next_frame(&mut decoded) {
                        Ok(Some(kind)) => {
                            black_box(kind);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    out.push(("ingest.encode_mb_s".into(), bytes as f64 / encode_s * 1e-6, "MB/s"));
    out.push(("ingest.decode_mb_s".into(), bytes as f64 / decode_s * 1e-6, "MB/s"));
    out.push(("ingest.bytes".into(), bytes as f64, "bytes"));
    Ok(())
}

/// `FleetStats` observe and merge and `FleetReport` encode over the
/// reference run's rows and report.
fn report(reference: &FleetRun, out: &mut Vec<Figure>) {
    let rows = &reference.summaries;
    let stats_of = |part: &[DeviceSummary]| {
        let mut stats = FleetStats::new();
        for row in part {
            stats.observe(black_box(row));
        }
        stats
    };
    let observe_s = seconds_per_call(rows.len(), || {
        black_box(stats_of(rows));
    });
    let (left, right) = rows.split_at(rows.len() / 2);
    let (mut merged, right) = (stats_of(left), stats_of(right));
    let merge_s = seconds_per_call(1, || merged.merge(black_box(&right)));
    let mut encoded = Vec::new();
    let encode_s = seconds_per_call(1, || encoded = black_box(&reference.report).encode());
    out.push(("shard.observe_us".into(), observe_s * 1e6, "us"));
    out.push(("shard.merge_us".into(), merge_s * 1e6, "us"));
    out.push(("shard.encode_us".into(), encode_s * 1e6, "us"));
    out.push(("shard.report_bytes".into(), encoded.len() as f64, "bytes"));
}
