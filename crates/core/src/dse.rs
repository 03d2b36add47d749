//! Sensor-configuration design-space exploration (Fig. 2 and Table I).
//!
//! For every candidate configuration the exploration trains a dedicated classifier
//! on windows of that configuration, measures its held-out recognition accuracy and
//! pairs it with the configuration's model current.  The Pareto front of the
//! resulting (current, accuracy) cloud is what SPOT uses as its states.
//!
//! [`TxExploration`] extends the plane with the *transmission* axis: each
//! configuration is additionally priced under every [`TxPolicy`] (raw samples,
//! the feature vector, or a compressed-sensing payload at each requested
//! ratio), with compressed accuracy measured on host-reconstructed held-out
//! windows — the trade-off the `tx_sweep` binary tabulates.

use adasense_data::{DatasetSpec, WindowDataset};
use adasense_dsp::{FeatureExtractor, ProjectionScratch, SparseProjection};
use adasense_ml::{accuracy, Trainer};
use adasense_sensor::{EnergyModel, RadioModel, SensorConfig, TxPolicy};
use serde::{Deserialize, Serialize};

use crate::error::AdaSenseError;
use crate::pareto::{dominated_points, pareto_front, DominatedBy};
use crate::training::{features_and_labels, train_for_config, ExperimentSpec};

/// The evaluation of a single sensor configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigEvaluation {
    /// The evaluated configuration.
    pub config: SensorConfig,
    /// Held-out recognition accuracy (0–1) of a classifier dedicated to this
    /// configuration.
    pub accuracy: f64,
    /// Modelled average sensor current, in µA.
    pub current_ua: f64,
}

/// The complete result of a design-space exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseReport {
    /// Every evaluated configuration.
    pub evaluations: Vec<ConfigEvaluation>,
    /// The Pareto-optimal subset, ordered from highest to lowest current.
    pub pareto: Vec<ConfigEvaluation>,
    /// Dominated configurations with a dominating witness each.
    pub dominated: Vec<DominatedBy>,
}

impl DseReport {
    /// The Pareto-optimal configurations only (the SPOT states), ordered from
    /// highest to lowest current.
    pub fn pareto_configs(&self) -> Vec<SensorConfig> {
        self.pareto.iter().map(|e| e.config).collect()
    }

    /// Renders the report as a plain-text table (one row per configuration).
    pub fn to_table_string(&self) -> String {
        let mut out = String::from("configuration     current(uA)   accuracy(%)   pareto\n");
        for eval in &self.evaluations {
            let on_front = self.pareto.iter().any(|p| p.config == eval.config);
            out.push_str(&format!(
                "{:<17} {:>11.1} {:>13.2} {:>8}\n",
                eval.config.label(),
                eval.current_ua,
                100.0 * eval.accuracy,
                if on_front { "yes" } else { "" }
            ));
        }
        out
    }
}

/// Runs the design-space exploration of Fig. 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpaceExploration {
    /// Training/evaluation specification (the per-configuration window counts and
    /// classifier hyper-parameters come from here).
    pub spec: ExperimentSpec,
    /// The candidate configurations (defaults to Table I).
    pub candidates: Vec<SensorConfig>,
    /// The energy model used to attach a current to each configuration.
    pub energy_model: EnergyModel,
    /// How many independently seeded trainings are averaged per configuration.
    ///
    /// Per-configuration accuracies differ by fractions of a percent while a single
    /// training/evaluation carries roughly ±1 % of seed noise, so averaging a few
    /// repeats keeps the Pareto front from being decided by that noise.
    pub repeats: usize,
}

impl DesignSpaceExploration {
    /// An exploration over the paper's Table I candidates.
    pub fn new(spec: ExperimentSpec) -> Self {
        Self {
            spec,
            candidates: SensorConfig::table_i(),
            energy_model: EnergyModel::bmi160(),
            repeats: 3,
        }
    }

    /// Restricts the exploration to an explicit candidate list.
    pub fn with_candidates(mut self, candidates: Vec<SensorConfig>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets how many independently seeded trainings are averaged per configuration.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Evaluates every candidate configuration and extracts the Pareto front.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] if the candidate list is empty or the
    /// spec is inconsistent, and [`AdaSenseError::Training`] if a per-configuration
    /// training set ends up empty.
    pub fn run(&self) -> Result<DseReport, AdaSenseError> {
        if self.candidates.is_empty() {
            return Err(AdaSenseError::invalid_spec("the candidate list must not be empty"));
        }
        self.spec.validate()?;
        let repeats = self.repeats.max(1);
        let mut evaluations = Vec::with_capacity(self.candidates.len());
        for (i, &config) in self.candidates.iter().enumerate() {
            let mut accuracy_sum = 0.0;
            for r in 0..repeats {
                let seed_offset = 1000 + i as u64 + 10_000 * r as u64;
                let trained = train_for_config(&self.spec, config, seed_offset)?;
                accuracy_sum += trained.test_accuracy;
            }
            evaluations.push(ConfigEvaluation {
                config,
                accuracy: accuracy_sum / repeats as f64,
                current_ua: self.energy_model.current_ua(config),
            });
        }
        let pareto = pareto_front(&evaluations);
        let dominated = dominated_points(&evaluations);
        Ok(DseReport { evaluations, pareto, dominated })
    }
}

/// One point of the transmission-aware design space: a sensor configuration
/// paired with a transmit policy (and, for the compressed policy, the
/// projection ratio the payload was shrunk by).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxEvaluation {
    /// The evaluated sensor configuration.
    pub config: SensorConfig,
    /// The transmit policy this row prices.
    pub policy: TxPolicy,
    /// Compression ratio (1 for the uncompressed policies).
    pub ratio: u32,
    /// Held-out recognition accuracy (0–1).  For the compressed policy this
    /// is measured on *host-reconstructed* windows, so the compression loss
    /// is inside the number.
    pub accuracy: f64,
    /// Sensing charge per classification epoch, in µC.
    pub sense_charge_uc: f64,
    /// Radio charge per classification epoch, in µC.
    pub radio_charge_uc: f64,
    /// Payload bytes per classification epoch.
    pub tx_bytes: u64,
}

impl TxEvaluation {
    /// Total (sensing + radio) charge per classification epoch, in µC.
    pub fn total_charge_uc(&self) -> f64 {
        self.sense_charge_uc + self.radio_charge_uc
    }

    /// A compact row label, e.g. `F100_A128/raw` or `F100_A128/cx4`.
    pub fn label(&self) -> String {
        match self.policy {
            TxPolicy::Compressed => format!("{}/cx{}", self.config.label(), self.ratio),
            _ => format!("{}/{}", self.config.label(), self.policy.label()),
        }
    }
}

/// Whether `a` dominates `b` in the accuracy-vs-total-charge sense.
fn tx_dominates(a: &TxEvaluation, b: &TxEvaluation) -> bool {
    let no_worse = a.accuracy >= b.accuracy && a.total_charge_uc() <= b.total_charge_uc();
    let strictly_better = a.accuracy > b.accuracy || a.total_charge_uc() < b.total_charge_uc();
    no_worse && strictly_better
}

/// The complete result of a transmission-aware exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxDseReport {
    /// Every evaluated (configuration × policy × ratio) point.
    pub evaluations: Vec<TxEvaluation>,
    /// The Pareto-optimal subset over (total charge, accuracy), ordered from
    /// highest to lowest charge.
    pub pareto: Vec<TxEvaluation>,
}

impl TxDseReport {
    /// Renders the report as a plain-text table (one row per point).
    pub fn to_table_string(&self) -> String {
        let mut out = String::from(
            "point                  bytes/epoch   sense(uC)   radio(uC)   total(uC)   accuracy(%)   pareto\n",
        );
        for eval in &self.evaluations {
            let on_front = self.pareto.iter().any(|p| p == eval);
            out.push_str(&format!(
                "{:<22} {:>11} {:>11.1} {:>11.1} {:>11.1} {:>13.2} {:>8}\n",
                eval.label(),
                eval.tx_bytes,
                eval.sense_charge_uc,
                eval.radio_charge_uc,
                eval.total_charge_uc(),
                100.0 * eval.accuracy,
                if on_front { "yes" } else { "" }
            ));
        }
        out
    }
}

/// The Fig. 2 exploration extended with the transmission axis: every candidate
/// configuration is trained once per repeat, then priced under transmit-raw,
/// transmit-features and transmit-compressed at each requested ratio, reusing
/// the *same* trained classifier and held-out split so the only difference
/// between a clean row and a compressed row is the payload the host decodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxExploration {
    /// Training/evaluation specification.
    pub spec: ExperimentSpec,
    /// The candidate configurations (defaults to the paper's Pareto front —
    /// the compression axis is explored on top of the Fig. 2 winners).
    pub candidates: Vec<SensorConfig>,
    /// The sensing energy model.
    pub energy_model: EnergyModel,
    /// The radio energy model pricing every transmitted byte.
    pub radio: RadioModel,
    /// Compression ratios evaluated for the compressed policy.
    pub ratios: Vec<u32>,
    /// Independently seeded trainings averaged per configuration.
    pub repeats: usize,
}

impl TxExploration {
    /// An exploration over the paper's Pareto-front configurations with a BLE
    /// radio and 2×/4× compression.
    pub fn new(spec: ExperimentSpec) -> Self {
        Self {
            spec,
            candidates: SensorConfig::paper_pareto_front().to_vec(),
            energy_model: EnergyModel::bmi160(),
            radio: RadioModel::ble(),
            ratios: vec![2, 4],
            repeats: 2,
        }
    }

    /// Restricts the exploration to an explicit candidate list.
    pub fn with_candidates(mut self, candidates: Vec<SensorConfig>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets the compression ratios evaluated for the compressed policy.
    pub fn with_ratios(mut self, ratios: Vec<u32>) -> Self {
        self.ratios = ratios;
        self
    }

    /// Sets how many independently seeded trainings are averaged per point.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Evaluates every (configuration × policy × ratio) point and extracts
    /// the Pareto front over (total charge per epoch, accuracy).
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] for an empty candidate or ratio
    /// list or a zero ratio, and [`AdaSenseError::Training`] if a
    /// per-configuration training set ends up empty.
    pub fn run(&self) -> Result<TxDseReport, AdaSenseError> {
        if self.candidates.is_empty() {
            return Err(AdaSenseError::invalid_spec("the candidate list must not be empty"));
        }
        if self.ratios.is_empty() || self.ratios.contains(&0) {
            return Err(AdaSenseError::invalid_spec("ratios must be non-empty and non-zero"));
        }
        self.spec.validate()?;
        let repeats = self.repeats.max(1);
        let extractor = FeatureExtractor::paper();
        let mut evaluations = Vec::new();
        for (i, &config) in self.candidates.iter().enumerate() {
            let mut clean_sum = 0.0;
            let mut compressed_sum = vec![0.0; self.ratios.len()];
            let mut window_len = 0usize;
            for r in 0..repeats {
                let seed_offset = 2000 + i as u64 + 10_000 * r as u64;
                let seed = self.spec.seed.wrapping_add(seed_offset);
                let dataset_spec =
                    DatasetSpec { configs: vec![config], ..self.spec.dataset.clone() };
                let dataset = WindowDataset::generate(&dataset_spec, seed);
                if dataset.is_empty() {
                    return Err(AdaSenseError::training(format!(
                        "no windows generated for {config}"
                    )));
                }
                let split = dataset.split(self.spec.train_fraction, seed.wrapping_add(1));
                let (train_x, train_y) = features_and_labels(&extractor, &split.train);
                let (test_x, test_y) = features_and_labels(&extractor, &split.test);
                let trainer = Trainer::new(self.spec.trainer);
                let outcome = trainer.train(&self.spec.architecture, &train_x, &train_y, seed);
                clean_sum += accuracy(&outcome.model, &test_x, &test_y);
                for (k, &ratio) in self.ratios.iter().enumerate() {
                    let (x, y) = reconstructed_features(
                        &extractor,
                        &split.test,
                        self.spec.dataset.window_s,
                        ratio,
                        seed,
                    );
                    compressed_sum[k] += accuracy(&outcome.model, &x, &y);
                }
                window_len = split.test.iter().next().map(|w| w.samples.len()).unwrap_or(0);
            }
            let clean_accuracy = clean_sum / repeats as f64;
            let sense_charge_uc =
                self.energy_model.charge_over(config, crate::runtime::EPOCH_S).micro_coulombs();
            let mut push = |policy: TxPolicy, ratio: u32, acc: f64, bytes: usize| {
                evaluations.push(TxEvaluation {
                    config,
                    policy,
                    ratio,
                    accuracy: acc,
                    sense_charge_uc,
                    radio_charge_uc: self.radio.tx_charge(bytes).micro_coulombs(),
                    tx_bytes: bytes as u64,
                });
            };
            push(TxPolicy::Raw, 1, clean_accuracy, crate::ingest::raw_tx_bytes(window_len));
            push(TxPolicy::Features, 1, clean_accuracy, crate::ingest::features_tx_bytes());
            for (k, &ratio) in self.ratios.iter().enumerate() {
                push(
                    TxPolicy::Compressed,
                    ratio,
                    compressed_sum[k] / repeats as f64,
                    crate::ingest::compressed_tx_bytes(window_len, ratio),
                );
            }
        }
        let mut pareto: Vec<TxEvaluation> = evaluations
            .iter()
            .filter(|candidate| !evaluations.iter().any(|other| tx_dominates(other, candidate)))
            .cloned()
            .collect();
        pareto.sort_by(|a, b| {
            b.total_charge_uc()
                .partial_cmp(&a.total_charge_uc())
                .expect("charges are finite")
                .then(b.accuracy.partial_cmp(&a.accuracy).expect("accuracies are finite"))
        });
        Ok(TxDseReport { evaluations, pareto })
    }
}

/// Extracts features from `windows` (each `window_s` seconds long) after
/// simulating the compressed transport: each axis is sparsely projected down
/// by `ratio` and reconstructed the way the host-side decode stage would, so
/// the classifier sees exactly what a compressed payload delivers.
/// Deterministic in `(seed, window index)`.
fn reconstructed_features(
    extractor: &FeatureExtractor,
    windows: &WindowDataset,
    window_s: f64,
    ratio: u32,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut x = Vec::with_capacity(windows.len());
    let mut y = Vec::with_capacity(windows.len());
    let mut axis = Vec::new();
    let mut measurements = Vec::new();
    let mut recon = Vec::new();
    let mut scratch = ProjectionScratch::default();
    for (index, window) in windows.iter().enumerate() {
        let mut samples = window.samples.clone();
        let n = samples.len();
        if n > 0 {
            let frame_seed = crate::ingest::compressed_frame_seed(
                seed.wrapping_add(u64::from(ratio)),
                index as u64,
            );
            let projection = SparseProjection::new(frame_seed, n, ratio);
            axis.resize(n, 0.0);
            measurements.resize(projection.output_len(), 0.0);
            recon.resize(n, 0.0);
            for axis_index in 0..3 {
                for (slot, sample) in axis.iter_mut().zip(samples.iter()) {
                    *slot = match axis_index {
                        0 => sample.x,
                        1 => sample.y,
                        _ => sample.z,
                    };
                }
                projection.project_into(&axis, &mut measurements);
                projection.reconstruct_into(&measurements, window_s, &mut recon, &mut scratch);
                for (sample, value) in samples.iter_mut().zip(recon.iter()) {
                    match axis_index {
                        0 => sample.x = *value,
                        1 => sample.y = *value,
                        _ => sample.z = *value,
                    }
                }
            }
        }
        let features = extractor.extract(&samples, window.config.frequency.hz());
        x.push(features.into_inner());
        y.push(window.activity.index());
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adasense_data::DatasetSpec;
    use adasense_ml::TrainerConfig;
    use adasense_sensor::{AveragingWindow, SamplingFrequency};

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            dataset: DatasetSpec { windows_per_class_per_config: 6, ..DatasetSpec::quick() },
            trainer: TrainerConfig { epochs: 15, ..TrainerConfig::default() },
            ..ExperimentSpec::quick()
        }
    }

    #[test]
    fn exploration_over_a_small_candidate_set() {
        let candidates = vec![
            SensorConfig::new(SamplingFrequency::F100, AveragingWindow::A128),
            SensorConfig::new(SamplingFrequency::F12_5, AveragingWindow::A8),
        ];
        let dse = DesignSpaceExploration::new(tiny_spec())
            .with_candidates(candidates.clone())
            .with_repeats(1);
        let report = dse.run().expect("exploration succeeds");
        assert_eq!(report.evaluations.len(), 2);
        assert!(!report.pareto.is_empty());
        // Currents come straight from the energy model.
        assert!(report.evaluations[0].current_ua > report.evaluations[1].current_ua);
        // The table rendering mentions every configuration.
        let table = report.to_table_string();
        for config in candidates {
            assert!(table.contains(&config.label()));
        }
    }

    #[test]
    fn tx_exploration_prices_every_policy_and_finds_a_front() {
        let config = SensorConfig::new(SamplingFrequency::F25, AveragingWindow::A32);
        // Sized for the accuracy assertion below: over 40 spec seeds the cx2
        // gap to raw measures 14.4 ± 2.5 points with 48 windows per class and
        // three repeats, against 21 ± 19 points with six windows and one.
        let spec = ExperimentSpec {
            dataset: DatasetSpec { windows_per_class_per_config: 48, ..DatasetSpec::quick() },
            ..tiny_spec()
        };
        let dse = TxExploration::new(spec)
            .with_candidates(vec![config])
            .with_ratios(vec![2, 4])
            .with_repeats(3);
        let report = dse.run().expect("tx exploration succeeds");
        assert_eq!(report.evaluations.len(), 4, "raw + features + two compressed ratios");
        assert!(!report.pareto.is_empty());
        let raw = &report.evaluations[0];
        let features = &report.evaluations[1];
        let cx2 = &report.evaluations[2];
        let cx4 = &report.evaluations[3];
        assert_eq!(raw.policy, TxPolicy::Raw);
        // Raw ships every sample; the alternatives must be strictly smaller,
        // and deeper compression must be smaller still.
        assert!(raw.tx_bytes > cx2.tx_bytes && cx2.tx_bytes > cx4.tx_bytes);
        assert!(features.tx_bytes < raw.tx_bytes);
        // Byte counts drive the radio charge monotonically.
        assert!(raw.radio_charge_uc > cx2.radio_charge_uc);
        assert!(cx2.radio_charge_uc > cx4.radio_charge_uc);
        // Sensing cost is policy-independent.
        assert_eq!(raw.sense_charge_uc, cx4.sense_charge_uc);
        // Reconstruction is lossy but must stay in the same league as the
        // clean accuracy even on this tiny training set (the tight ≤1 pt
        // iso-accuracy gate runs at full scale in `tx_sweep`).
        assert!(cx2.accuracy >= raw.accuracy - 0.25, "cx2 {} raw {}", cx2.accuracy, raw.accuracy);
        // Deterministic: a second run reproduces the report bit for bit.
        assert_eq!(dse.run().unwrap(), report);
        let table = report.to_table_string();
        assert!(table.contains("/cx4") && table.contains("/raw"), "labels in:\n{table}");
    }

    #[test]
    fn tx_exploration_rejects_degenerate_ratio_lists() {
        let dse = TxExploration::new(tiny_spec());
        assert!(dse.clone().with_ratios(Vec::new()).run().is_err());
        assert!(dse.with_ratios(vec![2, 0]).run().is_err());
    }

    #[test]
    fn empty_candidate_list_is_rejected() {
        let dse = DesignSpaceExploration::new(tiny_spec()).with_candidates(Vec::new());
        assert!(matches!(dse.run(), Err(AdaSenseError::InvalidSpec { .. })));
    }

    #[test]
    fn default_candidates_are_table_i() {
        let dse = DesignSpaceExploration::new(tiny_spec());
        assert_eq!(dse.candidates.len(), 16);
        assert!(dse.repeats >= 1);
        assert_eq!(dse.with_repeats(0).repeats, 1, "repeats are clamped to at least one");
    }
}
