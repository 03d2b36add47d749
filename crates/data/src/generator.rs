//! Turning an activity schedule into a continuous 3-axis acceleration trace.
//!
//! [`ActivityTrace`] realizes one [`ActivitySignal`]
//! per schedule segment (each with its own subject variation) and exposes the whole
//! timeline as a single [`SignalSource`].  Segment boundaries are cross-faded over a
//! short transition window so the trace has no unphysical discontinuities.
//!
//! Box averages over the trace use each segment's closed form wherever an
//! averaging span lies inside one segment and clear of its cross-fade; spans
//! touching a boundary or a cross-fade are sampled on the internal grid.

use adasense_sensor::{box_average_by_sampling, SignalSource};
use rand::Rng;

use crate::activity::Activity;
use crate::schedule::ActivitySchedule;
use crate::signal::{ActivitySignal, ActivitySignalModel, SubjectParams};

/// Duration of the cross-fade between consecutive segments, in seconds.
const TRANSITION_S: f64 = 0.4;
/// Margin, in seconds, by which an averaging span must clear a segment
/// boundary or cross-fade edge to use the segment's closed form — far above
/// the rounding of the grid instants, far below the internal sampling period.
const EDGE_GUARD_S: f64 = 1e-9;

/// A continuous acceleration trace realizing an [`ActivitySchedule`].
#[derive(Debug, Clone)]
pub struct ActivityTrace {
    schedule: ActivitySchedule,
    /// Realized signal and start time of each segment.
    segments: Vec<(f64, ActivitySignal)>,
}

impl ActivityTrace {
    /// Realizes `schedule` with per-segment subject variation drawn from `rng`.
    pub fn from_schedule<R: Rng + ?Sized>(schedule: ActivitySchedule, rng: &mut R) -> Self {
        let mut segments = Vec::with_capacity(schedule.len());
        let mut start = 0.0;
        for segment in schedule.segments() {
            let subject = SubjectParams::sample(rng);
            let signal = ActivitySignalModel::canonical(segment.activity).realize(&subject);
            segments.push((start, signal));
            start += segment.duration_s;
        }
        Self { schedule, segments }
    }

    /// A trace consisting of a single activity with the given subject parameters.
    pub fn single(activity: Activity, duration_s: f64, subject: &SubjectParams) -> Self {
        let schedule = ActivitySchedule::builder().then(activity, duration_s).build();
        let signal = ActivitySignalModel::canonical(activity).realize(subject);
        Self { schedule, segments: vec![(0.0, signal)] }
    }

    /// The schedule underlying this trace (ground truth for the simulator).
    pub fn schedule(&self) -> &ActivitySchedule {
        &self.schedule
    }

    /// Total duration of the trace, in seconds.
    pub fn total_duration_s(&self) -> f64 {
        self.schedule.total_duration_s()
    }

    /// The ground-truth activity at time `t`, if the trace is non-empty.
    pub fn activity_at(&self, t: f64) -> Option<Activity> {
        self.schedule.activity_at(t)
    }

    /// Index of the segment active at time `t` (clamped to the first/last segment).
    fn segment_index_at(&self, t: f64) -> usize {
        if self.segments.is_empty() {
            return 0;
        }
        match self.segments.binary_search_by(|(start, _)| {
            start.partial_cmp(&t).expect("segment start times are finite")
        }) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// The analog acceleration at time `t` seconds, cross-fading near boundaries.
    pub fn value(&self, t: f64) -> [f64; 3] {
        if self.segments.is_empty() {
            return [0.0, 0.0, 1.0];
        }
        let i = self.segment_index_at(t);
        let (start, signal) = &self.segments[i];
        let current = signal.value(t);
        // Cross-fade from the previous segment just after a boundary.
        if i > 0 {
            let into = t - start;
            if (0.0..TRANSITION_S).contains(&into) {
                let w = into / TRANSITION_S;
                let previous = self.segments[i - 1].1.value(t);
                return [
                    (1.0 - w) * previous[0] + w * current[0],
                    (1.0 - w) * previous[1] + w * current[1],
                    (1.0 - w) * previous[2] + w * current[2],
                ];
            }
        }
        current
    }

    /// The segment whose signal alone determines [`value`](Self::value) on the
    /// whole span `[t − span, t]`, or `None` when the span touches a segment
    /// boundary or cross-fade (or the trace is empty).
    fn clean_segment(&self, t: f64, span: f64) -> Option<usize> {
        if self.segments.is_empty() {
            return None;
        }
        let first = t - span;
        let i = self.segment_index_at(first);
        let clear_from = if i == 0 { f64::NEG_INFINITY } else { self.segments[i].0 + TRANSITION_S };
        let clear_until = self.segments.get(i + 1).map_or(f64::INFINITY, |(start, _)| *start);
        (first >= clear_from + EDGE_GUARD_S && t < clear_until - EDGE_GUARD_S).then_some(i)
    }
}

impl SignalSource for ActivityTrace {
    fn sample(&self, t: f64) -> [f64; 3] {
        self.value(t)
    }

    /// Splits the run into maximal stretches of outputs whose averaging spans
    /// share one clean segment (each averaged by that segment's closed form)
    /// and stretches touching a boundary or cross-fade (sampled on the grid).
    fn box_average_run(&self, t0: f64, period: f64, n: usize, dt: f64, out: &mut [[f64; 3]]) {
        let span = (n - 1) as f64 * dt;
        let segment_of = |k: usize| self.clean_segment(t0 + k as f64 * period, span);
        let mut k = 0;
        while k < out.len() {
            let segment = segment_of(k);
            let end = (k + 1..out.len()).find(|&e| segment_of(e) != segment).unwrap_or(out.len());
            let stretch_t0 = t0 + k as f64 * period;
            let stretch = &mut out[k..end];
            match segment {
                Some(i) => self.segments[i].1.box_average_run(stretch_t0, period, n, dt, stretch),
                None => box_average_by_sampling(self, stretch_t0, period, n, dt, stretch),
            }
            k = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ActivityChangeSetting;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trace_matches_schedule_ground_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let schedule = ActivitySchedule::sit_then_walk(60.0, 60.0);
        let trace = ActivityTrace::from_schedule(schedule, &mut rng);
        assert_eq!(trace.activity_at(10.0), Some(Activity::Sit));
        assert_eq!(trace.activity_at(90.0), Some(Activity::Walk));
        assert_eq!(trace.total_duration_s(), 120.0);
    }

    #[test]
    fn walking_section_has_more_motion_than_sitting_section() {
        let mut rng = StdRng::seed_from_u64(2);
        let trace =
            ActivityTrace::from_schedule(ActivitySchedule::sit_then_walk(60.0, 60.0), &mut rng);
        let variance = |from: f64, to: f64| {
            let n = 500;
            let values: Vec<f64> =
                (0..n).map(|k| trace.value(from + (to - from) * k as f64 / n as f64)[2]).collect();
            let mean = values.iter().sum::<f64>() / n as f64;
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64
        };
        assert!(variance(70.0, 110.0) > 20.0 * variance(10.0, 50.0));
    }

    #[test]
    fn trace_is_continuous_across_boundaries() {
        let mut rng = StdRng::seed_from_u64(3);
        let trace =
            ActivityTrace::from_schedule(ActivitySchedule::sit_then_walk(10.0, 10.0), &mut rng);
        // Sample densely around the 10 s boundary and verify there is no jump larger
        // than what the cross-fade plus signal slope allows.
        let dt = 1e-3;
        let mut max_jump = 0.0f64;
        let mut t = 9.5;
        while t < 10.5 {
            let a = trace.value(t);
            let b = trace.value(t + dt);
            for axis in 0..3 {
                max_jump = max_jump.max((b[axis] - a[axis]).abs());
            }
            t += dt;
        }
        assert!(max_jump < 0.05, "trace should not jump discontinuously, got {max_jump}");
    }

    #[test]
    fn empty_schedule_yields_flat_gravity() {
        let mut rng = StdRng::seed_from_u64(4);
        let trace = ActivityTrace::from_schedule(ActivitySchedule::default(), &mut rng);
        assert_eq!(trace.value(3.0), [0.0, 0.0, 1.0]);
        assert_eq!(trace.activity_at(3.0), None);
    }

    #[test]
    fn single_activity_trace_has_one_segment() {
        let trace = ActivityTrace::single(Activity::Upstairs, 30.0, &SubjectParams::neutral());
        assert_eq!(trace.schedule().len(), 1);
        assert_eq!(trace.activity_at(15.0), Some(Activity::Upstairs));
    }

    #[test]
    fn random_schedule_traces_are_reproducible_per_seed() {
        let make = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let schedule = ActivitySchedule::random(ActivityChangeSetting::Medium, 120.0, &mut rng);
            ActivityTrace::from_schedule(schedule, &mut rng)
        };
        let a = make(9);
        let b = make(9);
        let c = make(10);
        for k in 0..20 {
            let t = k as f64 * 5.3;
            assert_eq!(a.value(t), b.value(t));
        }
        // Different seeds should (overwhelmingly likely) differ somewhere.
        let differs = (0..20).any(|k| a.value(k as f64 * 5.3) != c.value(k as f64 * 5.3));
        assert!(differs);
    }
}
