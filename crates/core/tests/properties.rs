//! Property-based tests for the core framework: Pareto dominance, controller
//! construction and report invariants that must hold for arbitrary inputs.

use adasense::dse::ConfigEvaluation;
use adasense::pareto::{dominated_points, dominates, pareto_front};
use adasense::prelude::*;
use proptest::prelude::*;

fn any_config() -> impl Strategy<Value = SensorConfig> {
    prop::sample::select(SensorConfig::table_i())
}

fn any_evaluation() -> impl Strategy<Value = ConfigEvaluation> {
    (any_config(), 0.5f64..1.0, 5.0f64..250.0).prop_map(|(config, accuracy, current_ua)| {
        ConfigEvaluation { config, accuracy, current_ua }
    })
}

proptest! {
    /// No member of the Pareto front is dominated by any evaluated point, and every
    /// non-member is dominated by at least one point.
    #[test]
    fn pareto_front_is_exactly_the_non_dominated_set(
        evaluations in prop::collection::vec(any_evaluation(), 1..24)
    ) {
        let front = pareto_front(&evaluations);
        prop_assert!(!front.is_empty());
        for member in &front {
            for other in &evaluations {
                prop_assert!(!dominates(other, member));
            }
        }
        let dominated = dominated_points(&evaluations);
        // Every evaluation is either on the front or listed as dominated (points
        // that tie exactly with a front member on both axes count as non-dominated).
        for e in &evaluations {
            let on_front = front.iter().any(|f| f.config == e.config
                && f.accuracy == e.accuracy
                && f.current_ua == e.current_ua);
            let is_dominated = dominated.iter().any(|d| d.dominated.config == e.config
                && d.dominated.accuracy == e.accuracy
                && d.dominated.current_ua == e.current_ua);
            prop_assert!(on_front || !dominates(&front[0], e) || is_dominated);
        }
    }

    /// Dominance is irreflexive and asymmetric.
    #[test]
    fn dominance_is_a_strict_partial_order(a in any_evaluation(), b in any_evaluation()) {
        prop_assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
    }

    /// The front is sorted from the high-power end to the low-power end, which is
    /// the order SPOT expects its states in.
    #[test]
    fn pareto_front_is_sorted_by_decreasing_current(
        evaluations in prop::collection::vec(any_evaluation(), 1..24)
    ) {
        let front = pareto_front(&evaluations);
        for pair in front.windows(2) {
            prop_assert!(pair[0].current_ua >= pair[1].current_ua);
        }
    }

    /// A SPOT controller built over any non-empty suffix of the Table I list starts
    /// at its first state and never reports a configuration outside its state list.
    #[test]
    fn spot_only_reports_configured_states(
        start in 0usize..15,
        len in 1usize..6,
        threshold in 0u32..10,
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let table = SensorConfig::table_i();
        let states: Vec<SensorConfig> =
            table.iter().cycle().skip(start).take(len).copied().collect();
        let mut spot = SpotController::new(states.clone(), threshold);
        prop_assert_eq!(spot.config(), states[0]);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let activity = Activity::ALL[rng.random_range(0..Activity::COUNT)];
            let config = spot.observe(&ControllerInput {
                predicted: activity,
                confidence: rng.random_range(0.3..1.0),
                intensity_g_per_s: rng.random_range(0.0..15.0),
                escalated: false,
            });
            prop_assert!(states.contains(&config));
        }
    }

    /// Scenario construction: a random scenario of any setting and duration covers
    /// at least the requested duration and reports a ground-truth activity at every
    /// probed instant.
    #[test]
    fn scenarios_cover_their_duration(
        duration in 10.0f64..400.0,
        seed in 0u64..500,
        setting_index in 0usize..3,
    ) {
        let setting = ActivityChangeSetting::ALL[setting_index];
        let scenario = ScenarioSpec::random(setting, duration, seed);
        prop_assert!(scenario.duration_s() >= duration);
        for k in 0..10 {
            let t = duration * k as f64 / 10.0;
            prop_assert!(scenario.schedule.activity_at(t).is_some());
        }
    }

    /// Every fault plan honours its per-kind time budgets: summed dropout,
    /// stuck-axis and noise-burst window lengths never exceed the configured
    /// fraction of the run, and the windows stay inside the run.
    #[test]
    fn fault_plans_never_exceed_their_budgets(
        level_index in 1usize..3,
        duration in 20.0f64..2000.0,
        seed in 0u64..10_000,
    ) {
        let level = FaultLevel::ALL[level_index];
        let profile = level.profile();
        let plan = FaultPlan::generate(profile, duration, seed);
        prop_assert!(plan.dropout_seconds() <= profile.dropout_fraction * duration + 1e-9);
        prop_assert!(plan.stuck_seconds() <= profile.stuck_fraction * duration + 1e-9);
        prop_assert!(plan.burst_seconds() <= profile.burst_fraction * duration + 1e-9);
        for window in plan.windows() {
            prop_assert!(window.start_s >= 0.0);
            prop_assert!(window.end_s <= duration + 1e-9);
            prop_assert!(window.duration_s() > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Determinism of the composed scenario stack: any routine script realized
    /// for a device, wrapped in a fault injector, yields an identical tick
    /// stream (samples, ground truth and fault exposure) from two independently
    /// constructed sources driven through the same configuration sequence.
    #[test]
    fn composed_routine_and_faults_replay_identically(
        preset_index in 0usize..3,
        level_index in 0usize..3,
        dwell_scale in 0.6f64..1.6,
        duration in 20.0f64..45.0,
        seed in 0u64..10_000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let spec = ExperimentSpec::quick();
        let preset = RoutinePreset::ALL[preset_index];
        let level = FaultLevel::ALL[level_index];
        let scenario = preset.script().scenario(duration, dwell_scale, seed);
        prop_assert!(scenario.duration_s() >= duration);

        let build = || {
            FaultInjector::for_device(
                ScenarioSource::new(&spec, &scenario),
                level,
                scenario.duration_s(),
                seed,
            )
        };
        let (mut first, mut second) = (build(), build());
        prop_assert_eq!(first.plan(), second.plan(), "plans must be pure functions of the seed");

        let states = SensorConfig::paper_pareto_front();
        let mut config_rng = StdRng::seed_from_u64(seed ^ 0xC0F1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for tick in 2..(duration as usize) {
            let config = states[config_rng.random_range(0..states.len())];
            let t_end = tick as f64;
            first.capture_window(config, t_end, 2.0, &mut a);
            second.capture_window(config, t_end, 2.0, &mut b);
            prop_assert_eq!(&a, &b, "tick {} must replay bit-identically", tick);
            prop_assert_eq!(
                first.ground_truth(t_end - 1e-6),
                second.ground_truth(t_end - 1e-6)
            );
        }
        prop_assert_eq!(first.faulted_captures(), second.faulted_captures());
        prop_assert_eq!(first.captures(), second.captures());
    }
}

// ---------------------------------------------------------------------------
// Compressed-sensing payloads on the wire
// ---------------------------------------------------------------------------

/// Decodes a stream holding exactly one frame and returns the batch.
fn decode_single_frame(stream: &[u8]) -> TelemetryBatch {
    let mut reader = stream;
    let mut decoder = FrameDecoder::new();
    decoder.read_header(&mut reader).expect("header decodes");
    let mut batch = TelemetryBatch::placeholder();
    let kind = decoder.read_frame(&mut reader, &mut batch).expect("frame decodes");
    assert_eq!(kind, FrameKind::Batch, "compressed frames decode as ordinary batches");
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A compressed frame is bit-deterministic end to end for a fixed seed:
    /// encoding the same window twice yields identical bytes, the frame size
    /// matches the [`compressed_tx_bytes`] pricing helper, and the decoded
    /// window is exactly — bit for bit — the host-side sparse-projection
    /// reconstruction of the original axes.
    #[test]
    fn compressed_frames_round_trip_bit_deterministically(
        config in any_config(),
        raw in prop::collection::vec((-8.0f64..8.0, -8.0f64..8.0, -8.0f64..8.0), 8usize..64),
        ratio_lane in 0u8..2,
        seed in 0u64..u64::MAX,
        label_lane in 0usize..64,
    ) {
        use adasense::ingest::compressed_tx_bytes;

        let ratio = if ratio_lane == 0 { 2 } else { 4 };
        let label = (label_lane % Activity::COUNT) as u8;
        let (t_end, window_s) = (4.0, 2.0);
        let n = raw.len();
        let step = window_s / n as f64;
        let samples: Vec<Sample3> = raw
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| {
                Sample3::new(t_end - window_s + (i + 1) as f64 * step, x, y, z)
            })
            .collect();
        let batch = TelemetryBatch::new(config, t_end, window_s, label, samples);

        let mut encoder = FrameEncoder::new();
        let header_len = encoder.header().len();
        let mut stream = encoder.header().to_vec();
        stream.extend_from_slice(encoder.compressed(&batch, ratio, seed));
        prop_assert_eq!(stream.len() - header_len, compressed_tx_bytes(n, ratio));

        // Encoding the same window through a fresh encoder is bit-identical.
        let mut other = FrameEncoder::new();
        let mut replay = other.header().to_vec();
        replay.extend_from_slice(other.compressed(&batch, ratio, seed));
        prop_assert_eq!(&stream, &replay);

        let decoded = decode_single_frame(&stream);
        prop_assert_eq!(decoded.config, config);
        prop_assert_eq!(decoded.label, label);
        prop_assert_eq!(decoded.t_end.to_bits(), t_end.to_bits());
        prop_assert_eq!(decoded.window_s.to_bits(), window_s.to_bits());
        prop_assert_eq!(decoded.samples.len(), n);

        // The wire reconstruction equals the host-side one, bit for bit.
        let projection = SparseProjection::new(seed, n, ratio);
        let mut axis = vec![0.0; n];
        let mut measurements = vec![0.0; projection.output_len()];
        let mut reconstructed = vec![0.0; n];
        let mut scratch = ProjectionScratch::default();
        for axis_index in 0..3 {
            for (slot, sample) in axis.iter_mut().zip(&batch.samples) {
                *slot = match axis_index {
                    0 => sample.x,
                    1 => sample.y,
                    _ => sample.z,
                };
            }
            projection.project_into(&axis, &mut measurements);
            projection.reconstruct_into(&measurements, window_s, &mut reconstructed, &mut scratch);
            for (sample, &expected) in decoded.samples.iter().zip(&reconstructed) {
                let got = match axis_index {
                    0 => sample.x,
                    1 => sample.y,
                    _ => sample.z,
                };
                prop_assert_eq!(got.to_bits(), expected.to_bits());
            }
        }

        // Decoding the same bytes again is equally stable.
        let again = decode_single_frame(&stream);
        for (a, b) in decoded.samples.iter().zip(&again.samples) {
            prop_assert_eq!(a.t.to_bits(), b.t.to_bits());
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }
}
