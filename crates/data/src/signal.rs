//! Per-activity continuous acceleration signal models.
//!
//! Each [`Activity`] gets a canonical [`ActivitySignalModel`]: a gravity orientation
//! (how the 1 g gravity vector projects onto the wearable's axes for that posture),
//! a set of periodic gait/sway harmonics, and a small deterministic tremor.
//! [`SubjectParams`] perturbs the canonical model (gait cadence, amplitude,
//! orientation, phases) so that different generated windows of the same activity are
//! not identical — this is what gives the classifier a non-trivial learning problem
//! and reproduces the qualitative accuracy spread of the paper's Fig. 2.
//!
//! The resulting [`ActivitySignal`] is a deterministic, continuous function of time
//! and implements [`SignalSource`], so the simulated accelerometer can sample it at
//! any rate and averaging window.

use adasense_sensor::SignalSource;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activity::Activity;

/// One periodic component of an activity signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Harmonic {
    /// Frequency of the component, in Hz (before per-subject cadence scaling).
    pub frequency_hz: f64,
    /// Per-axis amplitude of the component, in g.
    pub amplitude_g: [f64; 3],
    /// Phase offset of the component, in radians.
    pub phase: f64,
}

impl Harmonic {
    /// Creates a harmonic component.
    pub fn new(frequency_hz: f64, amplitude_g: [f64; 3], phase: f64) -> Self {
        Self { frequency_hz, amplitude_g, phase }
    }
}

/// Canonical (population-level) signal model of one activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivitySignalModel {
    /// The activity this model describes.
    pub activity: Activity,
    /// Projection of gravity onto the device axes for this posture, in g.
    pub orientation_g: [f64; 3],
    /// Periodic gait/sway components.
    pub harmonics: Vec<Harmonic>,
    /// Amplitude of the slow deterministic tremor, in g.
    pub tremor_g: f64,
}

impl ActivitySignalModel {
    /// The canonical model for `activity`.
    ///
    /// The static postures (sit / stand / lie down) are distinguished mainly by their
    /// gravity orientation and by low-amplitude sway; the locomotion activities
    /// (walk / upstairs / downstairs) are distinguished by gait frequency and the
    /// relative strength of their harmonics, which is exactly the information the
    /// paper's statistical + low-frequency-Fourier features capture.
    pub fn canonical(activity: Activity) -> Self {
        match activity {
            Activity::Sit => Self {
                activity,
                // A seated posture tilts the device noticeably towards the x axis —
                // well clear of the ±0.05 g per-subject orientation jitter, so sit
                // and stand stay separable in every sensor configuration.
                orientation_g: [0.27, 0.12, 0.955],
                harmonics: vec![
                    // breathing
                    Harmonic::new(0.25, [0.004, 0.002, 0.007], 0.0),
                ],
                tremor_g: 0.006,
            },
            Activity::Stand => Self {
                activity,
                orientation_g: [0.05, 0.03, 0.998],
                harmonics: vec![
                    // postural sway
                    Harmonic::new(0.4, [0.014, 0.006, 0.004], 0.3),
                    Harmonic::new(0.9, [0.006, 0.009, 0.003], 1.1),
                ],
                tremor_g: 0.008,
            },
            Activity::LieDown => Self {
                activity,
                orientation_g: [0.965, 0.18, 0.11],
                harmonics: vec![
                    // breathing, mostly along the now-horizontal device z axis
                    Harmonic::new(0.22, [0.006, 0.002, 0.004], 0.0),
                ],
                tremor_g: 0.004,
            },
            Activity::Walk => Self {
                activity,
                orientation_g: [0.10, 0.08, 0.985],
                harmonics: vec![
                    Harmonic::new(1.9, [0.05, 0.16, 0.27], 0.0),
                    Harmonic::new(3.8, [0.02, 0.05, 0.12], 0.9),
                    Harmonic::new(0.95, [0.09, 0.03, 0.03], 0.4),
                ],
                tremor_g: 0.012,
            },
            Activity::Upstairs => Self {
                activity,
                orientation_g: [0.26, 0.10, 0.955],
                harmonics: vec![
                    Harmonic::new(1.55, [0.05, 0.12, 0.30], 0.0),
                    Harmonic::new(3.1, [0.02, 0.04, 0.17], 0.7),
                    Harmonic::new(0.775, [0.07, 0.03, 0.04], 1.3),
                ],
                tremor_g: 0.014,
            },
            Activity::Downstairs => Self {
                activity,
                orientation_g: [0.17, 0.05, 0.975],
                harmonics: vec![
                    Harmonic::new(1.75, [0.06, 0.10, 0.35], 0.0),
                    Harmonic::new(3.5, [0.02, 0.03, 0.13], 0.5),
                    Harmonic::new(5.25, [0.01, 0.02, 0.09], 1.8),
                    Harmonic::new(0.875, [0.08, 0.02, 0.03], 0.9),
                ],
                tremor_g: 0.016,
            },
        }
    }

    /// Canonical models for all six activities, in class-index order.
    pub fn all_canonical() -> Vec<ActivitySignalModel> {
        Activity::ALL.iter().map(|&a| Self::canonical(a)).collect()
    }

    /// Instantiates a concrete signal realization for one subject/window.
    pub fn realize(&self, subject: &SubjectParams) -> ActivitySignal {
        ActivitySignal { model: self.clone(), subject: subject.clone() }
    }
}

/// Per-subject (or per-window) variation of the canonical activity model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubjectParams {
    /// Multiplicative scaling of all harmonic frequencies (gait cadence), ~1.0.
    pub cadence_scale: f64,
    /// Multiplicative scaling of all harmonic amplitudes, ~1.0.
    pub amplitude_scale: f64,
    /// Additive perturbation of the gravity orientation, in g.
    pub orientation_jitter_g: [f64; 3],
    /// Global phase offset of the gait, in radians.
    pub gait_phase: f64,
    /// Frequencies of the two tremor components, in Hz.
    pub tremor_frequencies_hz: [f64; 2],
    /// Phases of the two tremor components, in radians.
    pub tremor_phases: [f64; 2],
    /// Multiplicative scaling of the tremor amplitude, ~1.0.
    pub tremor_scale: f64,
}

impl SubjectParams {
    /// A neutral subject: exactly the canonical model.
    pub fn neutral() -> Self {
        Self {
            cadence_scale: 1.0,
            amplitude_scale: 1.0,
            orientation_jitter_g: [0.0; 3],
            gait_phase: 0.0,
            tremor_frequencies_hz: [0.7, 2.3],
            tremor_phases: [0.0, 0.0],
            tremor_scale: 1.0,
        }
    }

    /// Draws a random subject from the population distribution.
    ///
    /// Cadence varies by ±8 %, amplitude by ±20 %, orientation by ±0.05 g per axis,
    /// tremor by ±30 %; phases are uniform.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let tau = std::f64::consts::TAU;
        Self {
            cadence_scale: rng.random_range(0.92..1.08),
            amplitude_scale: rng.random_range(0.80..1.20),
            orientation_jitter_g: [
                rng.random_range(-0.05..0.05),
                rng.random_range(-0.05..0.05),
                rng.random_range(-0.03..0.03),
            ],
            gait_phase: rng.random_range(0.0..tau),
            tremor_frequencies_hz: [rng.random_range(0.4..1.2), rng.random_range(1.8..3.2)],
            tremor_phases: [rng.random_range(0.0..tau), rng.random_range(0.0..tau)],
            tremor_scale: rng.random_range(0.7..1.3),
        }
    }
}

impl Default for SubjectParams {
    fn default() -> Self {
        Self::neutral()
    }
}

/// A concrete, continuous activity signal (canonical model × subject variation).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySignal {
    model: ActivitySignalModel,
    subject: SubjectParams,
}

impl ActivitySignal {
    /// The activity this signal realizes.
    pub fn activity(&self) -> Activity {
        self.model.activity
    }

    /// The analog acceleration at time `t` seconds, as `[x, y, z]` in g.
    pub fn value(&self, t: f64) -> [f64; 3] {
        let tau = std::f64::consts::TAU;
        let mut out = [0.0f64; 3];
        for (axis, v) in out.iter_mut().enumerate() {
            *v = self.model.orientation_g[axis] + self.subject.orientation_jitter_g[axis];
        }
        for h in &self.model.harmonics {
            let omega = tau * h.frequency_hz * self.subject.cadence_scale;
            let s = (omega * t + h.phase + self.subject.gait_phase).sin();
            for (axis, v) in out.iter_mut().enumerate() {
                *v += h.amplitude_g[axis] * self.subject.amplitude_scale * s;
            }
        }
        let tremor = self.model.tremor_g * self.subject.tremor_scale;
        if tremor > 0.0 {
            let t1 = (tau * self.subject.tremor_frequencies_hz[0] * t
                + self.subject.tremor_phases[0])
                .sin();
            let t2 = (tau * self.subject.tremor_frequencies_hz[1] * t
                + self.subject.tremor_phases[1])
                .sin();
            let v = tremor * 0.7 * (t1 + 0.6 * t2);
            out[0] += v;
            out[1] += 0.5 * v;
            out[2] += 0.8 * v;
        }
        out
    }
}

impl SignalSource for ActivitySignal {
    fn sample(&self, t: f64) -> [f64; 3] {
        self.value(t)
    }

    /// The exact box average of [`value`](Self::value): the constant part
    /// passes through unchanged and each sinusoid `sin(ωt + φ)` averages to
    /// `D · sin(ω(t − (n−1)Δ/2) + φ)`, with the Dirichlet factor
    /// `D = sin(nωΔ/2) / (n · sin(ωΔ/2))`.  `D` is computed once per component
    /// per run and the phase advances by a phasor rotation per output sample,
    /// so a run costs O(components) transcendental calls instead of
    /// O(samples × n × components).
    fn box_average_run(&self, t0: f64, period: f64, n: usize, dt: f64, out: &mut [[f64; 3]]) {
        let mut base = [0.0; 3];
        for (axis, v) in base.iter_mut().enumerate() {
            *v = self.model.orientation_g[axis] + self.subject.orientation_jitter_g[axis];
        }
        out.fill(base);
        // Centre of the averaging span of output 0.
        let centre = t0 - (n - 1) as f64 * dt / 2.0;
        let mut add_sine = |omega: f64, phase: f64, amplitude: [f64; 3]| {
            let half_step = 0.5 * omega * dt;
            let denominator = n as f64 * half_step.sin();
            let dirichlet =
                if denominator == 0.0 { 1.0 } else { (n as f64 * half_step).sin() / denominator };
            let gain = amplitude.map(|a| a * dirichlet);
            let (step_sin, step_cos) = (omega * period).sin_cos();
            for (chunk_index, chunk) in out.chunks_mut(REANCHOR_EVERY).enumerate() {
                let first = (chunk_index * REANCHOR_EVERY) as f64;
                let (mut sin, mut cos) = (omega * (centre + first * period) + phase).sin_cos();
                for v in chunk {
                    for (axis, g) in v.iter_mut().zip(gain) {
                        *axis += g * sin;
                    }
                    (sin, cos) = (sin * step_cos + cos * step_sin, cos * step_cos - sin * step_sin);
                }
            }
        };
        let tau = std::f64::consts::TAU;
        for h in &self.model.harmonics {
            add_sine(
                tau * h.frequency_hz * self.subject.cadence_scale,
                h.phase + self.subject.gait_phase,
                h.amplitude_g.map(|a| a * self.subject.amplitude_scale),
            );
        }
        let tremor = self.model.tremor_g * self.subject.tremor_scale;
        if tremor > 0.0 {
            let [f1, f2] = self.subject.tremor_frequencies_hz;
            let [p1, p2] = self.subject.tremor_phases;
            let weights = [1.0, 0.5, 0.8].map(|w| w * 0.7 * tremor);
            add_sine(tau * f1, p1, weights);
            add_sine(tau * f2, p2, weights.map(|w| 0.6 * w));
        }
    }
}

/// Output samples between exact phase re-anchors of the phasor recurrence in
/// [`ActivitySignal::box_average_run`], bounding its accumulated rounding error.
const REANCHOR_EVERY: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_activity_has_a_canonical_model() {
        let models = ActivitySignalModel::all_canonical();
        assert_eq!(models.len(), 6);
        for (model, activity) in models.iter().zip(Activity::ALL.iter()) {
            assert_eq!(model.activity, *activity);
        }
    }

    #[test]
    fn gravity_magnitude_is_close_to_one_g() {
        for model in ActivitySignalModel::all_canonical() {
            let m = (model.orientation_g.iter().map(|v| v * v).sum::<f64>()).sqrt();
            assert!(
                (0.9..1.1).contains(&m),
                "{}: orientation magnitude {m} should be ~1 g",
                model.activity
            );
        }
    }

    #[test]
    fn locomotion_activities_move_more_than_postures() {
        let energy = |activity: Activity| {
            let signal =
                ActivitySignalModel::canonical(activity).realize(&SubjectParams::neutral());
            let n = 400;
            let mean: f64 =
                (0..n).map(|k| signal.value(k as f64 * 0.01)[2]).sum::<f64>() / n as f64;
            (0..n).map(|k| (signal.value(k as f64 * 0.01)[2] - mean).powi(2)).sum::<f64>()
                / n as f64
        };
        for moving in [Activity::Walk, Activity::Upstairs, Activity::Downstairs] {
            for still in [Activity::Sit, Activity::Stand, Activity::LieDown] {
                assert!(
                    energy(moving) > 10.0 * energy(still),
                    "{moving} should have much more vertical energy than {still}"
                );
            }
        }
    }

    #[test]
    fn lie_down_orientation_differs_from_upright_postures() {
        let lie = ActivitySignalModel::canonical(Activity::LieDown).orientation_g;
        let sit = ActivitySignalModel::canonical(Activity::Sit).orientation_g;
        assert!(lie[0] > 0.5 && sit[0] < 0.3, "lying rotates gravity onto the x axis");
    }

    #[test]
    fn signal_is_deterministic_for_fixed_subject() {
        let subject = SubjectParams::neutral();
        let a = ActivitySignalModel::canonical(Activity::Walk).realize(&subject);
        let b = ActivitySignalModel::canonical(Activity::Walk).realize(&subject);
        for k in 0..50 {
            let t = k as f64 * 0.037;
            assert_eq!(a.value(t), b.value(t));
        }
    }

    #[test]
    fn subjects_differ_but_stay_in_a_plausible_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let s1 = SubjectParams::sample(&mut rng);
        let s2 = SubjectParams::sample(&mut rng);
        assert_ne!(s1, s2);
        for s in [s1, s2] {
            assert!((0.9..1.1).contains(&s.cadence_scale));
            assert!((0.7..1.3).contains(&s.amplitude_scale));
            assert!(s.orientation_jitter_g.iter().all(|v| v.abs() < 0.06));
        }
    }

    #[test]
    fn signal_source_impl_matches_value() {
        let signal =
            ActivitySignalModel::canonical(Activity::Downstairs).realize(&SubjectParams::neutral());
        assert_eq!(signal.sample(1.234), signal.value(1.234));
    }
}
