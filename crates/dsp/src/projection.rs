//! Seeded sparse random projection — the compressed-sensing payload path.
//!
//! The compressed-sensing telemetry frameworks the paper cites (Pagán et al.)
//! cut radio energy by transmitting `m ≪ n` random projections of each
//! `n`-sample window instead of the window itself.  This module provides both
//! halves of that path:
//!
//! * **Device side** — [`SparseProjection::project_into`]: an Achlioptas-style
//!   sparse ±1 projection whose matrix is *streamed* from a splitmix64 hash of
//!   `(seed, row, column)`, so the device stores no matrix, allocates nothing,
//!   and — because the entries are `{+1, 0, −1}` — needs only integer
//!   adds/subtracts until the final scaling (int-friendly on an MCU).
//! * **Host side** — [`SparseProjection::reconstruct_into`]: a deterministic
//!   Landweber (gradient) solve of the projection in a truncated DCT model.
//!   Accelerometer windows are dominated by low frequencies, so fitting the
//!   DCT coefficients below [`RECONSTRUCT_BAND_HZ`] (at most `m/2` of them)
//!   to the `m` measurements is an overdetermined least-squares problem that
//!   reconstructs the band the unified feature vector (means, standard
//!   deviations, 1–3 Hz Fourier magnitudes) reads.
//!
//! Both directions are pure functions of `(seed, lengths, window length,
//! input)` with a fixed
//! iteration count and no data-dependent branching, so a fixed seed gives
//! bit-identical results on every run — the determinism contract the wire
//! format's replay guarantees extend to compressed frames.

/// Fixed number of Landweber iterations in [`SparseProjection::reconstruct_into`].
///
/// Chosen so the dominant (low-frequency) modes of the least-squares fit
/// converge to well below the sensor's own noise floor; being a constant keeps
/// reconstruction a pure function of its inputs.
const RECONSTRUCT_ITERS: usize = 40;

/// Highest frequency, in Hz, that [`SparseProjection::reconstruct_into`]
/// models: the feature vector's top Fourier probe (3 Hz) plus a 1 Hz guard.
///
/// The measurements also carry the window's content above the band; the fit
/// folds it into the fitted coefficients as noise, and each coefficient fitted
/// raises that noise gain, so coefficients above the band the features read
/// cost accuracy and buy none.
pub const RECONSTRUCT_BAND_HZ: f64 = 4.0;

/// splitmix64 finalizer — the same mixing the fleet uses for device seeding.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded `m × n` sparse random projection (compressed-sensing encoder and
/// its matching reconstruction operator).
///
/// # Examples
///
/// ```
/// use adasense_dsp::projection::SparseProjection;
///
/// // A smooth 1 Hz oscillation sampled at 50 Hz for 2 s, compressed 2×.
/// let window: Vec<f64> =
///     (0..100).map(|i| (std::f64::consts::TAU * i as f64 / 50.0).sin()).collect();
/// let projection = SparseProjection::new(42, window.len(), 2);
/// let mut compressed = vec![0.0; projection.output_len()];
/// projection.project_into(&window, &mut compressed);
///
/// let mut restored = vec![0.0; window.len()];
/// let mut scratch = Default::default();
/// projection.reconstruct_into(&compressed, 2.0, &mut restored, &mut scratch);
/// let err: f64 = window.iter().zip(&restored).map(|(a, b)| (a - b).powi(2)).sum();
/// let norm: f64 = window.iter().map(|a| a * a).sum();
/// assert!(err / norm < 0.05, "smooth windows survive 2x compression");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseProjection {
    seed: u64,
    input_len: usize,
    output_len: usize,
}

/// Reusable working memory for [`SparseProjection::reconstruct_into`]: the
/// expanded sign matrix, the DCT basis and the iteration buffers.  Buffers
/// grow to the largest problem seen and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ProjectionScratch {
    /// Cached `{+1, 0, −1}` matrix entries, row-major `m × n`.
    signs: Vec<i8>,
    /// Cached DCT basis values, row-major `k × n`.
    basis: Vec<f64>,
    /// Current DCT coefficient estimate (`k`).
    coeffs: Vec<f64>,
    /// Measurement-space residual (`m`).
    residual: Vec<f64>,
    /// Sample-space back-projection `Aᵀ residual` (`n`).
    back: Vec<f64>,
}

impl SparseProjection {
    /// A projection compressing `input_len` samples by roughly `ratio`
    /// (`output_len = max(1, input_len / ratio)`); `ratio` is clamped to at
    /// least 1.
    pub fn new(seed: u64, input_len: usize, ratio: u32) -> Self {
        let ratio = ratio.max(1) as usize;
        Self::with_lengths(seed, input_len, (input_len / ratio).max(1).min(input_len.max(1)))
    }

    /// A projection with explicit dimensions (`output_len` measurements of an
    /// `input_len`-sample window).
    pub fn with_lengths(seed: u64, input_len: usize, output_len: usize) -> Self {
        Self { seed, input_len, output_len }
    }

    /// The seed the matrix is streamed from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of input samples `n`.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Number of measurements `m`.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// The `{+1, 0, −1}` matrix entry at `(row, col)`, before scaling.
    ///
    /// Achlioptas sparsity `s = 3`: `P(+1) = P(−1) = 1/6`, `P(0) = 2/3`.
    fn sign(&self, row: usize, col: usize) -> i8 {
        let cell = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(col as u64);
        match splitmix64(self.seed ^ cell) % 6 {
            0 => 1,
            1 => -1,
            _ => 0,
        }
    }

    /// The common scale `sqrt(3 / m)` making the matrix's columns unit
    /// variance (`E[AᵀA] = I`).
    fn scale(&self) -> f64 {
        (3.0 / self.output_len.max(1) as f64).sqrt()
    }

    /// Projects `input` (length [`input_len`](Self::input_len)) into `output`
    /// (length [`output_len`](Self::output_len)).
    ///
    /// Allocation-free; per output row this is a streamed signed sum of the
    /// input followed by one multiplication, so an integer-sample device can
    /// run the whole inner loop in integer arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when either slice length disagrees with the projection's
    /// dimensions.
    pub fn project_into(&self, input: &[f64], output: &mut [f64]) {
        assert_eq!(input.len(), self.input_len, "projection input length mismatch");
        assert_eq!(output.len(), self.output_len, "projection output length mismatch");
        let scale = self.scale();
        for (row, out) in output.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (col, &value) in input.iter().enumerate() {
                match self.sign(row, col) {
                    1 => acc += value,
                    -1 => acc -= value,
                    _ => {}
                }
            }
            *out = acc * scale;
        }
    }

    /// Number of DCT coefficients the reconstruction model fits for a window
    /// of `window_s` seconds: those below [`RECONSTRUCT_BAND_HZ`] (DCT-II row
    /// `j` oscillates at `j / (2 · window_s)` Hz), and never more than half
    /// the measurement count, which keeps the least-squares system
    /// overdetermined and well conditioned.
    fn model_dim(&self, window_s: f64) -> usize {
        let band = (2.0 * window_s * RECONSTRUCT_BAND_HZ).ceil();
        let band = if band >= 1.0 { band as usize } else { 1 };
        band.min(self.output_len / 2).clamp(1, self.input_len.max(1))
    }

    /// Reconstructs an `input_len`-sample window spanning `window_s` seconds
    /// from its `output_len` measurements by a fixed-iteration Landweber
    /// least-squares fit of a truncated DCT model (see the module docs).
    ///
    /// Deterministic: identical `(seed, window_s, measurements)` produce
    /// bit-identical output on every call.  `scratch` is reused across calls and grows to
    /// the largest problem dimensions seen.
    ///
    /// # Panics
    ///
    /// Panics when either slice length disagrees with the projection's
    /// dimensions.
    pub fn reconstruct_into(
        &self,
        measurements: &[f64],
        window_s: f64,
        output: &mut [f64],
        scratch: &mut ProjectionScratch,
    ) {
        assert_eq!(measurements.len(), self.output_len, "reconstruction input length mismatch");
        assert_eq!(output.len(), self.input_len, "reconstruction output length mismatch");
        let (n, m, k) = (self.input_len, self.output_len, self.model_dim(window_s));
        if n == 0 {
            return;
        }

        // Expand the sign matrix once so the iterations pay no hashing cost.
        scratch.signs.clear();
        scratch.signs.reserve(m * n);
        for row in 0..m {
            for col in 0..n {
                scratch.signs.push(self.sign(row, col));
            }
        }
        // Orthonormal DCT-II basis rows: basis[j][i] = w_j · cos(π (i+½) j / n).
        scratch.basis.clear();
        scratch.basis.reserve(k * n);
        let norm0 = (1.0 / n as f64).sqrt();
        let norm = (2.0 / n as f64).sqrt();
        for j in 0..k {
            let w = if j == 0 { norm0 } else { norm };
            let step = std::f64::consts::PI * j as f64 / n as f64;
            for i in 0..n {
                scratch.basis.push(w * ((i as f64 + 0.5) * step).cos());
            }
        }

        scratch.coeffs.clear();
        scratch.coeffs.resize(k, 0.0);
        scratch.residual.clear();
        scratch.residual.resize(m, 0.0);
        scratch.back.clear();
        scratch.back.resize(n, 0.0);

        // Step size below 2 / λmax(BᵀB) for B = A·Ψ (an m×k matrix with unit
        // column variance): λmax ≈ (1 + √(k/m))² by Marchenko–Pastur.
        let step = 0.9 / (1.0 + (k as f64 / m as f64).sqrt()).powi(2);
        let scale = self.scale();

        for _ in 0..RECONSTRUCT_ITERS {
            // output ← Ψ·coeffs (the current window estimate).
            synthesize(&scratch.basis, &scratch.coeffs, output);
            // residual ← measurements − A·output.
            for (row, res) in scratch.residual.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (col, &value) in output.iter().enumerate() {
                    match scratch.signs[row * n + col] {
                        1 => acc += value,
                        -1 => acc -= value,
                        _ => {}
                    }
                }
                *res = measurements[row] - acc * scale;
            }
            // back ← Aᵀ·residual.
            scratch.back.iter_mut().for_each(|v| *v = 0.0);
            for (row, &res) in scratch.residual.iter().enumerate() {
                let weighted = res * scale;
                for (col, back) in scratch.back.iter_mut().enumerate() {
                    match scratch.signs[row * n + col] {
                        1 => *back += weighted,
                        -1 => *back -= weighted,
                        _ => {}
                    }
                }
            }
            // coeffs += μ · Ψᵀ·back.
            for (j, coeff) in scratch.coeffs.iter_mut().enumerate() {
                let row = &scratch.basis[j * n..(j + 1) * n];
                let grad: f64 = row.iter().zip(scratch.back.iter()).map(|(b, v)| b * v).sum();
                *coeff += step * grad;
            }
        }
        synthesize(&scratch.basis, &scratch.coeffs, output);
    }
}

/// `output ← Ψ·coeffs` for the row-major truncated DCT basis.
fn synthesize(basis: &[f64], coeffs: &[f64], output: &mut [f64]) {
    let n = output.len();
    output.iter_mut().for_each(|v| *v = 0.0);
    for (j, &c) in coeffs.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        for (i, out) in output.iter_mut().enumerate() {
            *out += c * basis[j * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_window(n: usize, hz: f64, rate: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                1.0 + 0.4 * (std::f64::consts::TAU * hz * t).sin()
                    + 0.1 * (std::f64::consts::TAU * 2.0 * hz * t).cos()
            })
            .collect()
    }

    fn relative_error(a: &[f64], b: &[f64]) -> f64 {
        let err: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
        let norm: f64 = a.iter().map(|x| x * x).sum();
        err / norm.max(1e-12)
    }

    #[test]
    fn projection_is_bit_deterministic_for_a_fixed_seed() {
        let window = smooth_window(200, 1.5, 100.0);
        let projection = SparseProjection::new(7, window.len(), 4);
        let mut a = vec![0.0; projection.output_len()];
        let mut b = vec![0.0; projection.output_len()];
        projection.project_into(&window, &mut a);
        projection.project_into(&window, &mut b);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));

        let mut ra = vec![0.0; window.len()];
        let mut rb = vec![0.0; window.len()];
        let mut scratch = ProjectionScratch::default();
        projection.reconstruct_into(&a, 2.0, &mut ra, &mut scratch);
        projection.reconstruct_into(&a, 2.0, &mut rb, &mut scratch);
        assert!(ra.iter().zip(&rb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn different_seeds_give_different_measurements() {
        let window = smooth_window(100, 1.0, 50.0);
        let a_proj = SparseProjection::new(1, window.len(), 2);
        let b_proj = SparseProjection::new(2, window.len(), 2);
        let mut a = vec![0.0; a_proj.output_len()];
        let mut b = vec![0.0; b_proj.output_len()];
        a_proj.project_into(&window, &mut a);
        b_proj.project_into(&window, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn smooth_windows_reconstruct_accurately_at_low_ratios() {
        let window = smooth_window(200, 1.5, 100.0);
        let mut scratch = ProjectionScratch::default();
        for (ratio, budget) in [(2u32, 0.02), (4, 0.05)] {
            let projection = SparseProjection::new(99, window.len(), ratio);
            let mut compressed = vec![0.0; projection.output_len()];
            projection.project_into(&window, &mut compressed);
            let mut restored = vec![0.0; window.len()];
            projection.reconstruct_into(&compressed, 2.0, &mut restored, &mut scratch);
            let err = relative_error(&window, &restored);
            assert!(err < budget, "ratio {ratio}: relative error {err} above {budget}");
        }
    }

    #[test]
    fn the_model_covers_the_feature_band_within_half_the_measurements() {
        // A 2 s window: DCT rows below 4 Hz are j < 16.
        assert_eq!(SparseProjection::new(1, 200, 2).model_dim(2.0), 16, "the band binds");
        assert_eq!(SparseProjection::new(1, 200, 4).model_dim(2.0), 16, "the band binds");
        assert_eq!(SparseProjection::new(1, 50, 2).model_dim(2.0), 12, "m / 2 binds");
        assert_eq!(SparseProjection::new(1, 200, 2).model_dim(1.0), 8, "shorter window");
        assert_eq!(SparseProjection::new(1, 10, 2).model_dim(0.0), 1, "at least one");
    }

    #[test]
    fn reconstruction_preserves_the_mean() {
        // The DC term is the model's first coefficient, so the window mean —
        // the feature the classifier leans on hardest — survives compression
        // almost exactly.
        let window = smooth_window(150, 2.0, 75.0);
        let projection = SparseProjection::new(5, window.len(), 8);
        let mut compressed = vec![0.0; projection.output_len()];
        projection.project_into(&window, &mut compressed);
        let mut restored = vec![0.0; window.len()];
        let mut scratch = ProjectionScratch::default();
        projection.reconstruct_into(&compressed, 2.0, &mut restored, &mut scratch);
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        let restored_mean = restored.iter().sum::<f64>() / restored.len() as f64;
        assert!((mean - restored_mean).abs() < 0.05 * mean.abs().max(1.0));
    }

    #[test]
    fn ratio_clamps_and_degenerate_lengths_are_safe() {
        let projection = SparseProjection::new(3, 10, 0);
        assert_eq!(projection.output_len(), 10, "ratio clamps to 1");
        let tiny = SparseProjection::new(3, 1, 100);
        assert_eq!(tiny.output_len(), 1, "at least one measurement");
        let mut out = [0.0];
        tiny.project_into(&[2.5], &mut out);
        let mut restored = [0.0];
        tiny.reconstruct_into(&out, 0.01, &mut restored, &mut ProjectionScratch::default());
        assert!(restored[0].is_finite());
    }

    #[test]
    fn signs_match_the_achlioptas_density() {
        let projection = SparseProjection::with_lengths(11, 400, 100);
        let mut nonzero = 0usize;
        let mut total = 0usize;
        for row in 0..projection.output_len() {
            for col in 0..projection.input_len() {
                total += 1;
                if projection.sign(row, col) != 0 {
                    nonzero += 1;
                }
            }
        }
        let density = nonzero as f64 / total as f64;
        assert!((density - 1.0 / 3.0).abs() < 0.02, "density {density} far from 1/3");
    }
}
