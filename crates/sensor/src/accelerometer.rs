//! The simulated accelerometer front-end.
//!
//! [`Accelerometer`] turns a continuous analog [`SignalSource`] into the digital
//! sample stream a real IMU would produce under a given [`SensorConfig`]:
//!
//! 1. For every output sample (at the configured output data rate) it averages the
//!    analog signal over `averaging_window` points spaced by the internal sampling
//!    period — exactly the BMI160's under-sampling averaging.  Because there is no
//!    anti-aliasing filter beyond this averaging, low output rates genuinely alias
//!    high-frequency activity content, which is one of the two physical
//!    accuracy-degradation mechanisms the paper relies on.  The averages of a whole
//!    window come from one [`SignalSource::box_average_run`] call: the activity
//!    models of `adasense-data` answer it with the exact closed form of the box
//!    average (a Dirichlet factor per sinusoid), falling back to sampling the
//!    internal grid ([`box_average_by_sampling`]) only where an averaging span
//!    crosses a segment cross-fade.
//! 2. It adds averaging-dependent Gaussian measurement noise (the other mechanism),
//!    drawn by the ziggurat sampler [`crate::noise::gaussian`].
//! 3. It quantizes to the 16-bit ±2 g range of the BMI160.

use std::cell::Cell;

use rand::Rng;

use crate::config::SensorConfig;
use crate::energy::{Charge, EnergyModel};
use crate::noise::{scaled_gaussian, NoiseModel};
use crate::sample::Sample3;

/// A continuous 3-axis acceleration signal, in g, defined for any time `t` (seconds).
///
/// Implementors are the "physical world" of the simulation: the `adasense-data` crate
/// provides per-activity signal models, and tests use simple closures or constants.
pub trait SignalSource {
    /// The analog acceleration at time `t` seconds, as `[x, y, z]` in g.
    fn sample(&self, t: f64) -> [f64; 3];

    /// Box averages for a run of equally spaced output samples: `out[k]` is the
    /// mean of [`sample`](Self::sample) at the `n` instants
    /// `t0 + k × period − j × dt`, `j = 0..n` — the BMI160's under-sampling
    /// average of `n ≥ 1` internal samples `dt` apart ending at output instant `k`.
    ///
    /// The default samples the signal on the internal grid
    /// ([`box_average_by_sampling`]).  Sources with an analytic form override it
    /// with a closed form that must agree with the default to floating-point
    /// accuracy.
    fn box_average_run(&self, t0: f64, period: f64, n: usize, dt: f64, out: &mut [[f64; 3]]) {
        box_average_by_sampling(self, t0, period, n, dt, out);
    }
}

impl<F> SignalSource for F
where
    F: Fn(f64) -> [f64; 3],
{
    fn sample(&self, t: f64) -> [f64; 3] {
        self(t)
    }
}

/// Full-scale range of the simulated accelerometer, in g.
const FULL_SCALE_G: f64 = 2.0;
/// Number of quantization levels of the 16-bit output.
const LEVELS: f64 = 65536.0;

/// The simulated 3-axis accelerometer.
///
/// See the [module documentation](self) for the behavioural model.
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerometer {
    config: SensorConfig,
    energy: EnergyModel,
    noise: NoiseModel,
    quantize: bool,
}

impl Accelerometer {
    /// Creates an accelerometer with the default (BMI160-calibrated) energy and
    /// noise models.
    pub fn new(config: SensorConfig) -> Self {
        Self { config, energy: EnergyModel::bmi160(), noise: NoiseModel::bmi160(), quantize: true }
    }

    /// Replaces the energy model.
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Replaces the noise model.
    pub fn with_noise_model(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Enables or disables output quantization (enabled by default).
    pub fn with_quantization(mut self, quantize: bool) -> Self {
        self.quantize = quantize;
        self
    }

    /// The currently active sensor configuration.
    pub fn config(&self) -> SensorConfig {
        self.config
    }

    /// Switches the sensor to a different configuration.
    ///
    /// Switching is modelled as instantaneous; the per-switch energy overhead is
    /// negligible compared to seconds-long residency and is ignored, as in the paper.
    pub fn set_config(&mut self, config: SensorConfig) {
        self.config = config;
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The noise model in use.
    pub fn noise_model(&self) -> &NoiseModel {
        &self.noise
    }

    /// Average current drawn under the current configuration, in µA.
    pub fn current_ua(&self) -> f64 {
        self.energy.current_ua(self.config)
    }

    /// Charge consumed by staying in the current configuration for `seconds` seconds.
    pub fn charge_over(&self, seconds: f64) -> Charge {
        self.energy.charge_over(self.config, seconds)
    }

    /// Captures `duration` seconds of samples starting at time `start`.
    ///
    /// The returned vector contains `round(duration × odr)` samples with timestamps
    /// `start + k / odr`.
    pub fn capture<S, R>(&self, source: &S, start: f64, duration: f64, rng: &mut R) -> Vec<Sample3>
    where
        S: SignalSource + ?Sized,
        R: Rng + ?Sized,
    {
        let mut out = Vec::with_capacity(self.config.frequency.samples_in(duration));
        self.capture_into(source, start, duration, rng, &mut out);
        out
    }

    /// Captures `duration` seconds of samples starting at `start` into `out`.
    ///
    /// `out` is cleared first; its allocation is reused, which keeps the per-tick
    /// sensing loop of a streaming runtime allocation-free once the buffer has
    /// grown to the largest window size.
    ///
    /// The averaging stage is one [`SignalSource::box_average_run`] call for the
    /// whole window, so a source with a closed form (the activity models of
    /// `adasense-data`) never walks the internal grid; the noise and
    /// quantization stages then run per sample.  Noise values are drawn in a
    /// fixed order (sample by sample, x then y then z), but the ziggurat
    /// sampler redraws a rejected point, so the number of `u64` words a window
    /// takes from `rng` varies with the stream: anything that shares `rng`
    /// after a capture must not assume a fixed count.
    pub fn capture_into<S, R>(
        &self,
        source: &S,
        start: f64,
        duration: f64,
        rng: &mut R,
        out: &mut Vec<Sample3>,
    ) where
        S: SignalSource + ?Sized,
        R: Rng + ?Sized,
    {
        out.clear();
        let count = self.config.frequency.samples_in(duration);
        let period = self.config.frequency.period_s();
        let mut means = MEANS.take();
        means.clear();
        means.resize(count, [0.0; 3]);
        source.box_average_run(start, period, self.averaging(), self.internal_period(), &mut means);
        let noise_std = self.noise_std();
        out.extend(
            means
                .iter()
                .enumerate()
                .map(|(k, &mean)| self.finish(start + k as f64 * period, mean, noise_std, rng)),
        );
        MEANS.set(means);
    }

    /// Produces the single output sample the sensor would report at time `t`.
    pub fn read_at<S, R>(&self, source: &S, t: f64, rng: &mut R) -> Sample3
    where
        S: SignalSource + ?Sized,
        R: Rng + ?Sized,
    {
        let mut mean = [0.0; 3];
        source.box_average_run(
            t,
            self.config.frequency.period_s(),
            self.averaging(),
            self.internal_period(),
            std::slice::from_mut(&mut mean),
        );
        self.finish(t, mean, self.noise_std(), rng)
    }

    fn averaging(&self) -> usize {
        self.config.averaging.samples() as usize
    }

    fn internal_period(&self) -> f64 {
        1.0 / self.energy.internal_rate_hz
    }

    /// Output noise standard deviation of the current configuration, computed
    /// once per capture rather than once per draw.
    fn noise_std(&self) -> f64 {
        self.noise.output_noise_std_for(self.config, self.energy.operation_mode(self.config))
    }

    /// Adds measurement noise to an averaged reading (x, y, z draws in that
    /// order) and quantizes it to the saturating 16-bit ±2 g output.
    fn finish<R>(&self, t: f64, mean: [f64; 3], noise_std: f64, rng: &mut R) -> Sample3
    where
        R: Rng + ?Sized,
    {
        let mut axes = mean;
        for axis in &mut axes {
            *axis += scaled_gaussian(noise_std, rng);
            if self.quantize {
                *axis = quantize(*axis);
            }
        }
        Sample3::new(t, axes[0], axes[1], axes[2])
    }
}

/// Box-averages `source` on the internal sampling grid — the reference
/// implementation behind [`SignalSource::box_average_run`].
///
/// `out[k]` becomes the mean of `source.sample(t0 + k × period − j × dt)` over
/// `j = 0..n`, summed oldest first.  When `period` is an integer multiple of
/// `dt` smaller than the averaging span (true for every overlapping BMI160
/// configuration: 1600 Hz internal clock, power-of-two output rates), the
/// averaging spans of consecutive outputs overlap on a shared grid of instants
/// `t0 + m × dt`, so each instant is evaluated **once** and reused — for
/// F100/A128 that is 3,328 evaluations per 2-second window instead of 25,600.
/// Otherwise every output is averaged independently.
pub fn box_average_by_sampling<S>(
    source: &S,
    t0: f64,
    period: f64,
    n: usize,
    dt: f64,
    out: &mut [[f64; 3]],
) where
    S: SignalSource + ?Sized,
{
    let inv = 1.0 / n as f64;
    let mean = |acc: [f64; 3]| [acc[0] * inv, acc[1] * inv, acc[2] * inv];
    let stride_f = period / dt;
    let stride = stride_f.round();
    let overlapping = stride >= 1.0 && (stride_f - stride).abs() < 1e-9 && (stride as usize) < n;
    if !overlapping {
        for (k, slot) in out.iter_mut().enumerate() {
            let t = t0 + k as f64 * period;
            let mut acc = [0.0f64; 3];
            for i in 0..n {
                add(&mut acc, source.sample(t - (n - 1 - i) as f64 * dt));
            }
            *slot = mean(acc);
        }
        return;
    }
    let stride = stride as usize;
    // Grid instant `g` is `t0 + m × dt` with `m = g − (n − 1)`; output `k`
    // averages the `n` instants `g = k × stride ..< k × stride + n`.
    let mut grid = GRID.take();
    grid.clear();
    grid.extend((0..out.len().saturating_sub(1) * stride + n).map(|g| {
        let m = g as i64 - (n as i64 - 1);
        source.sample(t0 + m as f64 * dt)
    }));
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = [0.0f64; 3];
        for &v in &grid[k * stride..k * stride + n] {
            add(&mut acc, v);
        }
        *slot = mean(acc);
    }
    GRID.set(grid);
}

fn add(acc: &mut [f64; 3], v: [f64; 3]) {
    acc[0] += v[0];
    acc[1] += v[1];
    acc[2] += v[2];
}

std::thread_local! {
    /// Reusable per-thread internal-grid buffer for [`box_average_by_sampling`].
    static GRID: Cell<Vec<[f64; 3]>> = const { Cell::new(Vec::new()) };
    /// Reusable per-thread buffer of averaged readings for
    /// [`Accelerometer::capture_into`].  Both buffers are taken out of their
    /// cell while in use, so a nested capture allocates instead of panicking.
    static MEANS: Cell<Vec<[f64; 3]>> = const { Cell::new(Vec::new()) };
}

fn quantize(value: f64) -> f64 {
    let clamped = value.clamp(-FULL_SCALE_G, FULL_SCALE_G);
    let step = 2.0 * FULL_SCALE_G / LEVELS;
    (clamped / step).round() * step
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AveragingWindow, SamplingFrequency};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flat(_t: f64) -> [f64; 3] {
        [0.0, 0.0, 1.0]
    }

    fn sine(t: f64) -> [f64; 3] {
        [0.0, 0.0, (2.0 * std::f64::consts::PI * 2.0 * t).sin()]
    }

    #[test]
    fn capture_produces_the_expected_number_of_samples() {
        let mut rng = StdRng::seed_from_u64(0);
        for (f, expected) in [
            (SamplingFrequency::F100, 200),
            (SamplingFrequency::F50, 100),
            (SamplingFrequency::F25, 50),
            (SamplingFrequency::F12_5, 25),
            (SamplingFrequency::F6_25, 13),
        ] {
            let accel = Accelerometer::new(SensorConfig::new(f, AveragingWindow::A16));
            let samples = accel.capture(&flat, 0.0, 2.0, &mut rng);
            assert_eq!(samples.len(), expected, "{f}");
        }
    }

    #[test]
    fn timestamps_are_evenly_spaced() {
        let mut rng = StdRng::seed_from_u64(0);
        let accel =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F25, AveragingWindow::A8));
        let samples = accel.capture(&flat, 10.0, 1.0, &mut rng);
        assert_eq!(samples.len(), 25);
        for (k, s) in samples.iter().enumerate() {
            let expected = 10.0 + k as f64 * 0.04;
            assert!((s.t - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn capture_into_reuses_the_buffer_and_matches_capture() {
        let accel =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F50, AveragingWindow::A16));
        let allocated = accel.capture(&flat, 0.0, 2.0, &mut StdRng::seed_from_u64(7));
        let mut reused = vec![Sample3::new(-1.0, 9.0, 9.0, 9.0); 3];
        accel.capture_into(&flat, 0.0, 2.0, &mut StdRng::seed_from_u64(7), &mut reused);
        assert_eq!(allocated, reused, "capture_into must produce the same samples");
    }

    #[test]
    fn noiseless_capture_of_constant_signal_is_exact_up_to_quantization() {
        let mut rng = StdRng::seed_from_u64(0);
        let accel =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F50, AveragingWindow::A128))
                .with_noise_model(NoiseModel::noiseless());
        let samples = accel.capture(&flat, 0.0, 1.0, &mut rng);
        for s in samples {
            assert!((s.z - 1.0).abs() < 1e-4, "z={} should be ~1 g", s.z);
            assert!(s.x.abs() < 1e-4);
        }
    }

    #[test]
    fn averaging_attenuates_fast_signals() {
        // A 2 Hz sine averaged over 128 internal samples (80 ms) is attenuated
        // relative to an 8-sample (5 ms) average.
        let mut rng = StdRng::seed_from_u64(3);
        let wide =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F25, AveragingWindow::A128))
                .with_noise_model(NoiseModel::noiseless());
        let narrow =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F25, AveragingWindow::A8))
                .with_noise_model(NoiseModel::noiseless());
        let rms = |samples: &[Sample3]| {
            (samples.iter().map(|s| s.z * s.z).sum::<f64>() / samples.len() as f64).sqrt()
        };
        let wide_rms = rms(&wide.capture(&sine, 0.0, 4.0, &mut rng));
        let narrow_rms = rms(&narrow.capture(&sine, 0.0, 4.0, &mut rng));
        assert!(
            wide_rms < narrow_rms,
            "A128 should attenuate a 2 Hz tone more than A8 ({wide_rms} vs {narrow_rms})"
        );
    }

    #[test]
    fn smaller_windows_are_noisier() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut std_of = |window| {
            let accel = Accelerometer::new(SensorConfig::new(SamplingFrequency::F25, window));
            let samples = accel.capture(&flat, 0.0, 40.0, &mut rng);
            let mean = samples.iter().map(|s| s.z).sum::<f64>() / samples.len() as f64;
            (samples.iter().map(|s| (s.z - mean).powi(2)).sum::<f64>() / samples.len() as f64)
                .sqrt()
        };
        let noisy = std_of(AveragingWindow::A8);
        let clean = std_of(AveragingWindow::A128);
        assert!(noisy > clean, "A8 std {noisy} should exceed A128 std {clean}");
    }

    #[test]
    fn quantization_clamps_to_full_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let big = |_t: f64| [5.0, -5.0, 0.0];
        let accel =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F25, AveragingWindow::A8))
                .with_noise_model(NoiseModel::noiseless());
        let s = accel.read_at(&big, 0.0, &mut rng);
        assert!(s.x <= 2.0 && s.x >= 1.99);
        assert!(s.y >= -2.0 && s.y <= -1.99);
    }

    #[test]
    fn set_config_changes_current_draw() {
        let mut accel =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F100, AveragingWindow::A128));
        let high = accel.current_ua();
        accel.set_config(SensorConfig::new(SamplingFrequency::F12_5, AveragingWindow::A8));
        let low = accel.current_ua();
        assert!(high > 4.0 * low, "high-power config should draw far more current");
    }

    #[test]
    fn closures_work_as_signal_sources() {
        let mut rng = StdRng::seed_from_u64(0);
        let accel =
            Accelerometer::new(SensorConfig::new(SamplingFrequency::F12_5, AveragingWindow::A8))
                .with_noise_model(NoiseModel::noiseless());
        let source = |t: f64| [t.min(1.0), 0.0, 0.0];
        let s = accel.read_at(&source, 2.0, &mut rng);
        assert!((s.x - 1.0).abs() < 1e-4);
    }
}
