//! One experiment runner per paper table / figure.
//!
//! | Runner | Reproduces |
//! |---|---|
//! | [`config_table`] | Table I (the 16 sensor configurations, with modelled mode, duty cycle, current and noise) |
//! | [`DesignSpaceExploration`](crate::dse::DesignSpaceExploration) | Fig. 2 (accuracy / current trade-off and Pareto front) |
//! | [`behavioural_trace`] | Fig. 5 (120-second sit→walk trace of the sensor current under SPOT) |
//! | [`stability_sweep`] | Fig. 6a and 6b (accuracy and power vs stability threshold, for the baseline, SPOT and SPOT with confidence) |
//! | [`iba_comparison`] | Fig. 7 (power and accuracy vs the intensity-based approach under High/Medium/Low activity settings) |
//! | [`memory_report`] | Section V-D memory comparison (single unified classifier vs per-configuration classifier bank) |
//!
//! Each runner returns a serializable report with a `to_table_string` rendering so
//! the `adasense-bench` binaries can print the same rows/series the paper reports.

use adasense_data::{Activity, ActivityChangeSetting};
use adasense_ml::{MemoryFootprint, MlpConfig};
use adasense_sensor::{EnergyModel, NoiseModel, SensorConfig};
use serde::{Deserialize, Serialize};

use crate::controller::ControllerKind;
use crate::error::AdaSenseError;
use crate::fleet::{mean as average, FleetScheduler};
use crate::simulation::{ScenarioSpec, SimulationReport, Simulator};
use crate::training::{ExperimentSpec, TrainedSystem};

// ---------------------------------------------------------------------------
// Table I — sensor configuration table
// ---------------------------------------------------------------------------

/// One row of the Table I report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigTableRow {
    /// The configuration.
    pub config: SensorConfig,
    /// Operation mode implied by the energy model.
    pub mode: String,
    /// Duty cycle of the sensor core (1.0 in normal mode).
    pub duty_cycle: f64,
    /// Modelled average current, in µA.
    pub current_ua: f64,
    /// Modelled output noise standard deviation, in g.
    pub noise_std_g: f64,
}

/// The Table I report: every configuration with its modelled properties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigTableReport {
    /// One row per Table I configuration.
    pub rows: Vec<ConfigTableRow>,
}

impl ConfigTableReport {
    /// Renders the report as a plain-text table.
    pub fn to_table_string(&self) -> String {
        let mut out =
            String::from("configuration     mode        duty    current(uA)   noise(mg)\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<17} {:<10} {:>6.3} {:>13.1} {:>10.1}\n",
                row.config.label(),
                row.mode,
                row.duty_cycle,
                row.current_ua,
                1000.0 * row.noise_std_g
            ));
        }
        out
    }
}

/// Builds the Table I report from the given energy and noise models.
pub fn config_table(energy: &EnergyModel, noise: &NoiseModel) -> ConfigTableReport {
    let rows = SensorConfig::table_i()
        .into_iter()
        .map(|config| ConfigTableRow {
            config,
            mode: energy.operation_mode(config).to_string(),
            duty_cycle: energy.duty_cycle(config),
            current_ua: energy.current_ua(config),
            noise_std_g: noise.output_noise_std_for(config, energy.operation_mode(config)),
        })
        .collect();
    ConfigTableReport { rows }
}

// ---------------------------------------------------------------------------
// Fig. 5 — behavioural trace
// ---------------------------------------------------------------------------

/// The Fig. 5 report: the per-second current trace of a sit→walk scenario under
/// SPOT, plus the time it takes to settle into the lowest-power state after each
/// activity change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviouralTraceReport {
    /// The underlying simulation run.
    pub simulation: SimulationReport,
    /// Seconds after the start at which the sensor first reaches the lowest-power
    /// state.
    pub first_settle_s: Option<f64>,
    /// Seconds after the activity change at which the sensor reaches the
    /// lowest-power state again.
    pub resettle_after_change_s: Option<f64>,
    /// The time of the activity change in the scenario.
    pub change_time_s: f64,
}

impl BehaviouralTraceReport {
    /// Renders the `(t, current)` series plus the settle times.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from("t(s)   config          current(uA)  predicted    actual\n");
        for r in self.simulation.records() {
            out.push_str(&format!(
                "{:>5.0}  {:<15} {:>11.1}  {:<12} {}\n",
                r.t_s,
                r.config.label(),
                r.current_ua,
                r.predicted.name(),
                r.actual.name()
            ));
        }
        out.push_str(&format!(
            "settle after start: {:?} s, settle after activity change: {:?} s\n",
            self.first_settle_s, self.resettle_after_change_s
        ));
        out
    }
}

/// Runs the Fig. 5 behavioural analysis: `sit_s` seconds of sitting followed by
/// `walk_s` seconds of walking, under SPOT with the given stability threshold.
///
/// # Errors
///
/// Propagates simulation errors (degenerate scenarios).
pub fn behavioural_trace(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    stability_threshold: u32,
    sit_s: f64,
    walk_s: f64,
) -> Result<BehaviouralTraceReport, AdaSenseError> {
    let scenario = ScenarioSpec::sit_then_walk(sit_s, walk_s);
    let simulation = Simulator::new(spec, system)
        .with_controller(ControllerKind::Spot { stability_threshold })
        .run(scenario)?;
    let lowest = SensorConfig::paper_pareto_front()[3];
    let first_settle_s = simulation.records().iter().find(|r| r.config == lowest).map(|r| r.t_s);
    let resettle_after_change_s = simulation
        .records()
        .iter()
        .filter(|r| r.t_s > sit_s)
        .find(|r| r.config == lowest)
        .map(|r| r.t_s - sit_s);
    Ok(BehaviouralTraceReport {
        simulation,
        first_settle_s,
        resettle_after_change_s,
        change_time_s: sit_s,
    })
}

// ---------------------------------------------------------------------------
// Fig. 6a / 6b — stability-threshold sweep
// ---------------------------------------------------------------------------

/// Parameters of the stability-threshold sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilitySweepSettings {
    /// The stability thresholds (seconds) to evaluate.
    pub thresholds: Vec<u32>,
    /// Confidence threshold of the SPOT-with-confidence controller (0.85 in the
    /// paper).
    pub confidence_threshold: f64,
    /// Duration of each simulated scenario, in seconds.
    pub scenario_duration_s: f64,
    /// Number of randomized scenarios averaged per point.
    pub scenarios_per_point: usize,
    /// Dwell-time distribution of the scenarios.
    pub setting: ActivityChangeSetting,
    /// Base seed for scenario generation.
    pub seed: u64,
}

impl StabilitySweepSettings {
    /// The paper-scale sweep: thresholds 0–60 s in 5 s steps over several
    /// five-minute scenarios.
    pub fn paper() -> Self {
        Self {
            thresholds: (0..=60).step_by(5).collect(),
            confidence_threshold: 0.85,
            scenario_duration_s: 300.0,
            scenarios_per_point: 4,
            setting: ActivityChangeSetting::Medium,
            seed: 60,
        }
    }

    /// A reduced sweep for tests and doc examples.
    pub fn quick() -> Self {
        Self {
            thresholds: vec![0, 5, 10],
            scenario_duration_s: 60.0,
            scenarios_per_point: 1,
            ..Self::paper()
        }
    }
}

impl Default for StabilitySweepSettings {
    fn default() -> Self {
        Self::paper()
    }
}

/// Accuracy and power of the three controllers at one stability-threshold value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StabilitySweepPoint {
    /// The stability threshold, in seconds.
    pub threshold_s: u32,
    /// Baseline (static `F100_A128`) accuracy.
    pub baseline_accuracy: f64,
    /// Baseline average current, in µA.
    pub baseline_current_ua: f64,
    /// SPOT accuracy.
    pub spot_accuracy: f64,
    /// SPOT average current, in µA.
    pub spot_current_ua: f64,
    /// SPOT-with-confidence accuracy.
    pub spot_confidence_accuracy: f64,
    /// SPOT-with-confidence average current, in µA.
    pub spot_confidence_current_ua: f64,
}

/// The Fig. 6a / 6b report: one [`StabilitySweepPoint`] per threshold plus the
/// sweep-average power reductions the paper quotes (60 % for SPOT, 69 % for SPOT
/// with confidence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilitySweepReport {
    /// The sweep settings used.
    pub settings: StabilitySweepSettings,
    /// One point per threshold.
    pub points: Vec<StabilitySweepPoint>,
}

impl StabilitySweepReport {
    /// Average power reduction of SPOT vs the baseline over the whole sweep (0–1).
    pub fn average_spot_reduction(&self) -> f64 {
        average(self.points.iter().map(|p| 1.0 - p.spot_current_ua / p.baseline_current_ua))
    }

    /// Average power reduction of SPOT with confidence vs the baseline (0–1).
    pub fn average_spot_confidence_reduction(&self) -> f64 {
        average(
            self.points.iter().map(|p| 1.0 - p.spot_confidence_current_ua / p.baseline_current_ua),
        )
    }

    /// Worst-case accuracy drop of SPOT vs the baseline across the sweep (0–1).
    pub fn max_spot_accuracy_drop(&self) -> f64 {
        self.points.iter().map(|p| p.baseline_accuracy - p.spot_accuracy).fold(0.0, f64::max)
    }

    /// Renders the Fig. 6a (accuracy) and Fig. 6b (power) series as a table.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from(
            "threshold(s)  base_acc(%)  spot_acc(%)  conf_acc(%)  base_uA  spot_uA  conf_uA\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>12} {:>12.2} {:>12.2} {:>12.2} {:>8.1} {:>8.1} {:>8.1}\n",
                p.threshold_s,
                100.0 * p.baseline_accuracy,
                100.0 * p.spot_accuracy,
                100.0 * p.spot_confidence_accuracy,
                p.baseline_current_ua,
                p.spot_current_ua,
                p.spot_confidence_current_ua
            ));
        }
        out.push_str(&format!(
            "average power reduction: SPOT {:.1}%, SPOT+confidence {:.1}%\n",
            100.0 * self.average_spot_reduction(),
            100.0 * self.average_spot_confidence_reduction()
        ));
        out
    }
}

/// Runs the Fig. 6 sweep: for every stability threshold, simulates the baseline,
/// SPOT and SPOT-with-confidence controllers over the same randomized scenarios and
/// averages their accuracy and power.
///
/// All `thresholds × scenarios × 3` simulations are expanded into one job list and
/// executed in parallel on the [`FleetScheduler`]; every simulation seeds its own
/// randomness from the scenario, so the numbers are identical to a serial sweep.
///
/// # Errors
///
/// Returns [`AdaSenseError::InvalidSpec`] if no thresholds or scenarios are
/// requested, and propagates simulation errors.
pub fn stability_sweep(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    settings: &StabilitySweepSettings,
) -> Result<StabilitySweepReport, AdaSenseError> {
    if settings.thresholds.is_empty() {
        return Err(AdaSenseError::invalid_spec("the threshold list must not be empty"));
    }
    if settings.scenarios_per_point == 0 {
        return Err(AdaSenseError::invalid_spec("scenarios_per_point must be non-zero"));
    }

    const CONTROLLERS_PER_POINT: usize = 3;
    let mut jobs = Vec::with_capacity(
        settings.thresholds.len() * settings.scenarios_per_point * CONTROLLERS_PER_POINT,
    );
    for &threshold in &settings.thresholds {
        for s in 0..settings.scenarios_per_point {
            let scenario = ScenarioSpec::random(
                settings.setting,
                settings.scenario_duration_s,
                settings.seed.wrapping_add(s as u64),
            );
            jobs.push((scenario.clone(), ControllerKind::StaticHigh));
            jobs.push((scenario.clone(), ControllerKind::Spot { stability_threshold: threshold }));
            jobs.push((
                scenario,
                ControllerKind::SpotWithConfidence {
                    stability_threshold: threshold,
                    confidence_threshold: settings.confidence_threshold,
                },
            ));
        }
    }
    let reports = FleetScheduler::new(spec, system).sweep(&jobs)?;

    let mut points = Vec::with_capacity(settings.thresholds.len());
    for (t, &threshold) in settings.thresholds.iter().enumerate() {
        let mut accumulators = [(0.0f64, 0.0f64); CONTROLLERS_PER_POINT];
        for s in 0..settings.scenarios_per_point {
            let base = (t * settings.scenarios_per_point + s) * CONTROLLERS_PER_POINT;
            for (slot, accumulator) in accumulators.iter_mut().enumerate() {
                let report = &reports[base + slot];
                accumulator.0 += report.accuracy();
                accumulator.1 += report.average_current_ua();
            }
        }
        let n = settings.scenarios_per_point as f64;
        points.push(StabilitySweepPoint {
            threshold_s: threshold,
            baseline_accuracy: accumulators[0].0 / n,
            baseline_current_ua: accumulators[0].1 / n,
            spot_accuracy: accumulators[1].0 / n,
            spot_current_ua: accumulators[1].1 / n,
            spot_confidence_accuracy: accumulators[2].0 / n,
            spot_confidence_current_ua: accumulators[2].1 / n,
        });
    }
    Ok(StabilitySweepReport { settings: settings.clone(), points })
}

// ---------------------------------------------------------------------------
// Fig. 7 — comparison to the intensity-based approach
// ---------------------------------------------------------------------------

/// Parameters of the AdaSense vs intensity-based-approach comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IbaComparisonSettings {
    /// Duration of each simulated scenario, in seconds.
    pub scenario_duration_s: f64,
    /// Number of randomized scenarios averaged per activity setting.
    pub scenarios_per_setting: usize,
    /// The AdaSense controller to compare (the paper uses SPOT with confidence).
    pub adasense_controller: ControllerKind,
    /// Base seed for scenario generation.
    pub seed: u64,
}

impl IbaComparisonSettings {
    /// The paper-scale comparison.
    pub fn paper() -> Self {
        Self {
            scenario_duration_s: 600.0,
            scenarios_per_setting: 4,
            adasense_controller: ControllerKind::SpotWithConfidence {
                stability_threshold: 10,
                confidence_threshold: 0.85,
            },
            seed: 70,
        }
    }

    /// A reduced comparison for tests and doc examples.
    pub fn quick() -> Self {
        Self { scenario_duration_s: 90.0, scenarios_per_setting: 1, ..Self::paper() }
    }
}

impl Default for IbaComparisonSettings {
    fn default() -> Self {
        Self::paper()
    }
}

/// AdaSense and intensity-based results for one user activity setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IbaComparisonRow {
    /// The user activity setting (High / Medium / Low change rate).
    pub setting: ActivityChangeSetting,
    /// AdaSense average current, in µA.
    pub adasense_current_ua: f64,
    /// AdaSense recognition accuracy.
    pub adasense_accuracy: f64,
    /// Intensity-based approach average current, in µA.
    pub iba_current_ua: f64,
    /// Intensity-based approach recognition accuracy.
    pub iba_accuracy: f64,
}

/// The Fig. 7 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IbaComparisonReport {
    /// One row per activity setting, in High / Medium / Low order.
    pub rows: Vec<IbaComparisonRow>,
}

impl IbaComparisonReport {
    /// The row for a given setting, if present.
    pub fn row(&self, setting: ActivityChangeSetting) -> Option<&IbaComparisonRow> {
        self.rows.iter().find(|r| r.setting == setting)
    }

    /// Renders the Fig. 7 bars as a table.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from(
            "setting   adasense_uA  iba_uA  adasense_acc(%)  iba_acc(%)  power_saving_vs_iba(%)\n",
        );
        for r in &self.rows {
            let saving = if r.iba_current_ua > 0.0 {
                100.0 * (1.0 - r.adasense_current_ua / r.iba_current_ua)
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<9} {:>12.1} {:>7.1} {:>16.2} {:>11.2} {:>22.1}\n",
                r.setting.label(),
                r.adasense_current_ua,
                r.iba_current_ua,
                100.0 * r.adasense_accuracy,
                100.0 * r.iba_accuracy,
                saving
            ));
        }
        out
    }
}

/// Runs the Fig. 7 comparison between AdaSense and the intensity-based approach
/// under the High / Medium / Low user activity settings.
///
/// The `settings × scenarios × 2` simulations run in parallel on the
/// [`FleetScheduler`]; results are identical to a serial run.
///
/// # Errors
///
/// Returns [`AdaSenseError::InvalidSpec`] for degenerate settings and propagates
/// simulation errors.
pub fn iba_comparison(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    settings: &IbaComparisonSettings,
) -> Result<IbaComparisonReport, AdaSenseError> {
    if settings.scenarios_per_setting == 0 {
        return Err(AdaSenseError::invalid_spec("scenarios_per_setting must be non-zero"));
    }

    let mut jobs =
        Vec::with_capacity(ActivityChangeSetting::ALL.len() * settings.scenarios_per_setting * 2);
    for setting in ActivityChangeSetting::ALL {
        for s in 0..settings.scenarios_per_setting {
            let scenario = ScenarioSpec::random(
                setting,
                settings.scenario_duration_s,
                settings.seed.wrapping_add(1000 * s as u64),
            );
            jobs.push((scenario.clone(), settings.adasense_controller));
            jobs.push((scenario, ControllerKind::IntensityBased));
        }
    }
    let reports = FleetScheduler::new(spec, system).sweep(&jobs)?;

    let mut rows = Vec::with_capacity(ActivityChangeSetting::ALL.len());
    for (i, setting) in ActivityChangeSetting::ALL.into_iter().enumerate() {
        let mut adasense = (0.0f64, 0.0f64);
        let mut iba = (0.0f64, 0.0f64);
        for s in 0..settings.scenarios_per_setting {
            let base = (i * settings.scenarios_per_setting + s) * 2;
            let adasense_report = &reports[base];
            let iba_report = &reports[base + 1];
            adasense.0 += adasense_report.average_current_ua();
            adasense.1 += adasense_report.accuracy();
            iba.0 += iba_report.average_current_ua();
            iba.1 += iba_report.accuracy();
        }
        let n = settings.scenarios_per_setting as f64;
        rows.push(IbaComparisonRow {
            setting,
            adasense_current_ua: adasense.0 / n,
            adasense_accuracy: adasense.1 / n,
            iba_current_ua: iba.0 / n,
            iba_accuracy: iba.1 / n,
        });
    }
    Ok(IbaComparisonReport { rows })
}

// ---------------------------------------------------------------------------
// Section V-D — classifier memory comparison
// ---------------------------------------------------------------------------

/// The classifier weight-memory comparison of Section V-D.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Footprint of AdaSense's single unified classifier.
    pub adasense: MemoryFootprint,
    /// Footprint of a per-configuration bank covering the SPOT states
    /// (what retraining per configuration would cost for AdaSense's four states).
    pub per_config_bank: MemoryFootprint,
    /// Footprint of the intensity-based approach's bank (one classifier per
    /// configuration it uses, i.e. two).
    pub iba_bank: MemoryFootprint,
}

impl MemoryReport {
    /// Memory saving factor of AdaSense vs the four-state per-configuration bank.
    pub fn saving_vs_per_config_bank(&self) -> f64 {
        self.adasense.savings_factor_vs(&self.per_config_bank)
    }

    /// Memory saving factor of AdaSense vs the intensity-based approach (the
    /// paper quotes 2×).
    pub fn saving_vs_iba(&self) -> f64 {
        self.adasense.savings_factor_vs(&self.iba_bank)
    }

    /// Renders the comparison as a table.
    pub fn to_table_string(&self) -> String {
        format!(
            "strategy                      models  parameters  bytes    KiB\n\
             adasense (unified)            {:>6} {:>11} {:>8} {:>6.2}\n\
             per-configuration bank (x4)   {:>6} {:>11} {:>8} {:>6.2}\n\
             intensity-based bank (x2)     {:>6} {:>11} {:>8} {:>6.2}\n\
             saving vs per-config bank: {:.1}x, saving vs intensity-based: {:.1}x\n",
            self.adasense.models,
            self.adasense.parameters_per_model,
            self.adasense.total_bytes(),
            self.adasense.total_kib(),
            self.per_config_bank.models,
            self.per_config_bank.parameters_per_model,
            self.per_config_bank.total_bytes(),
            self.per_config_bank.total_kib(),
            self.iba_bank.models,
            self.iba_bank.parameters_per_model,
            self.iba_bank.total_bytes(),
            self.iba_bank.total_kib(),
            self.saving_vs_per_config_bank(),
            self.saving_vs_iba()
        )
    }
}

/// Builds the Section V-D memory comparison for the given classifier architecture,
/// assuming `f32` weight storage.
pub fn memory_report(
    architecture: &MlpConfig,
    spot_states: usize,
    iba_configs: usize,
) -> MemoryReport {
    const BYTES_PER_PARAMETER: usize = 4;
    MemoryReport {
        adasense: MemoryFootprint::single(architecture, BYTES_PER_PARAMETER),
        per_config_bank: MemoryFootprint::bank(architecture, spot_states, BYTES_PER_PARAMETER),
        iba_bank: MemoryFootprint::bank(architecture, iba_configs, BYTES_PER_PARAMETER),
    }
}

/// Builds the memory comparison with the paper's counts: four SPOT states and two
/// intensity-based configurations.
pub fn paper_memory_report(architecture: &MlpConfig) -> MemoryReport {
    memory_report(architecture, SensorConfig::paper_pareto_front().len(), 2)
}

// ---------------------------------------------------------------------------
// Ablation — single unified classifier vs per-configuration classifiers
// ---------------------------------------------------------------------------

/// One configuration's accuracy under the unified classifier and under a classifier
/// dedicated to that configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnifiedVsBankRow {
    /// The sensor configuration.
    pub config: SensorConfig,
    /// Held-out accuracy of the single classifier trained on pooled data from all
    /// configurations (AdaSense's approach).
    pub unified_accuracy: f64,
    /// Held-out accuracy of a classifier trained only on this configuration's data
    /// (the retrain-per-configuration approach of the related work).
    pub dedicated_accuracy: f64,
}

/// The unified-vs-dedicated classifier ablation (the claim behind Section III-C:
/// one network trained on heterogeneous data performs comparably while using a
/// fraction of the memory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnifiedVsBankReport {
    /// One row per evaluated configuration.
    pub rows: Vec<UnifiedVsBankRow>,
    /// Memory comparison for the two strategies.
    pub memory: MemoryReport,
}

impl UnifiedVsBankReport {
    /// Largest accuracy advantage of the dedicated classifiers over the unified one
    /// across all configurations (how much accuracy the memory saving costs).
    pub fn max_dedicated_advantage(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.dedicated_accuracy - r.unified_accuracy)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Renders the ablation as a table.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from(
            "configuration     unified_acc(%)  dedicated_acc(%)  dedicated_gain(pts)\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<17} {:>14.2} {:>17.2} {:>20.2}\n",
                r.config.label(),
                100.0 * r.unified_accuracy,
                100.0 * r.dedicated_accuracy,
                100.0 * (r.dedicated_accuracy - r.unified_accuracy)
            ));
        }
        out.push_str(&format!(
            "memory: unified {:.2} KiB vs one-per-configuration {:.2} KiB ({:.1}x)\n",
            self.memory.adasense.total_kib(),
            self.memory.per_config_bank.total_kib(),
            self.memory.saving_vs_per_config_bank()
        ));
        out
    }
}

/// Runs the unified-vs-dedicated classifier ablation over the configurations the
/// system was trained for.
///
/// # Errors
///
/// Propagates training errors from the dedicated per-configuration trainings.
pub fn unified_vs_bank(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
) -> Result<UnifiedVsBankReport, AdaSenseError> {
    let mut rows = Vec::with_capacity(system.per_config_accuracy().len());
    for (i, &(config, unified_accuracy)) in system.per_config_accuracy().iter().enumerate() {
        let dedicated = crate::training::train_for_config(spec, config, 5000 + i as u64)?;
        rows.push(UnifiedVsBankRow {
            config,
            unified_accuracy,
            dedicated_accuracy: dedicated.test_accuracy,
        });
    }
    let memory = memory_report(&spec.architecture, rows.len().max(1), 2);
    Ok(UnifiedVsBankReport { rows, memory })
}

// ---------------------------------------------------------------------------
// Convenience: per-epoch activity accuracy helper used by a couple of reports
// ---------------------------------------------------------------------------

/// Per-activity recall over a simulation run (useful to see which activities suffer
/// at low-power configurations).
pub fn per_activity_recall(report: &SimulationReport) -> Vec<(Activity, f64)> {
    Activity::ALL
        .iter()
        .map(|&activity| {
            let relevant: Vec<_> =
                report.records().iter().filter(|r| r.actual == activity).collect();
            let recall = if relevant.is_empty() {
                0.0
            } else {
                relevant.iter().filter(|r| r.correct).count() as f64 / relevant.len() as f64
            };
            (activity, recall)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adasense_data::DatasetSpec;
    use adasense_ml::TrainerConfig;
    use std::sync::OnceLock;

    fn shared_system() -> &'static (ExperimentSpec, TrainedSystem) {
        static SYSTEM: OnceLock<(ExperimentSpec, TrainedSystem)> = OnceLock::new();
        SYSTEM.get_or_init(|| {
            let spec = ExperimentSpec {
                dataset: DatasetSpec { windows_per_class_per_config: 10, ..DatasetSpec::quick() },
                trainer: TrainerConfig { epochs: 25, ..TrainerConfig::default() },
                ..ExperimentSpec::quick()
            };
            let system = TrainedSystem::train(&spec).expect("training succeeds");
            (spec, system)
        })
    }

    #[test]
    fn config_table_covers_all_sixteen_configurations() {
        let report = config_table(&EnergyModel::bmi160(), &NoiseModel::bmi160());
        assert_eq!(report.rows.len(), 16);
        let text = report.to_table_string();
        assert!(text.contains("F100_A128"));
        assert!(text.contains("F6.25_A8"));
    }

    #[test]
    fn behavioural_trace_settles_and_resettles() {
        let (spec, system) = shared_system();
        let report = behavioural_trace(spec, system, 3, 30.0, 30.0).expect("trace runs");
        assert!(report.first_settle_s.is_some(), "SPOT should reach the lowest state");
        assert_eq!(report.change_time_s, 30.0);
        assert!(!report.to_table_string().is_empty());
    }

    #[test]
    fn stability_sweep_produces_one_point_per_threshold() {
        let (spec, system) = shared_system();
        let settings = StabilitySweepSettings {
            thresholds: vec![2, 6],
            scenario_duration_s: 40.0,
            scenarios_per_point: 1,
            ..StabilitySweepSettings::quick()
        };
        let report = stability_sweep(spec, system, &settings).expect("sweep runs");
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!(p.baseline_current_ua > p.spot_current_ua);
            assert!(p.baseline_current_ua > p.spot_confidence_current_ua);
        }
        assert!(report.average_spot_reduction() > 0.0);
        assert!(!report.to_table_string().is_empty());
    }

    #[test]
    fn stability_sweep_rejects_degenerate_settings() {
        let (spec, system) = shared_system();
        let mut settings = StabilitySweepSettings::quick();
        settings.thresholds.clear();
        assert!(stability_sweep(spec, system, &settings).is_err());
        let mut settings = StabilitySweepSettings::quick();
        settings.scenarios_per_point = 0;
        assert!(stability_sweep(spec, system, &settings).is_err());
    }

    #[test]
    fn iba_comparison_covers_all_three_settings() {
        let (spec, system) = shared_system();
        let report =
            iba_comparison(spec, system, &IbaComparisonSettings::quick()).expect("comparison runs");
        assert_eq!(report.rows.len(), 3);
        for setting in ActivityChangeSetting::ALL {
            assert!(report.row(setting).is_some());
        }
        assert!(!report.to_table_string().is_empty());
    }

    #[test]
    fn memory_report_matches_the_paper_ratios() {
        let report = paper_memory_report(&MlpConfig::paper());
        assert!((report.saving_vs_per_config_bank() - 4.0).abs() < 1e-9);
        assert!((report.saving_vs_iba() - 2.0).abs() < 1e-9);
        assert!(report.adasense.total_kib() < 4.0);
        assert!(!report.to_table_string().is_empty());
    }

    #[test]
    fn unified_vs_bank_ablation_covers_every_trained_configuration() {
        let (spec, system) = shared_system();
        let report = unified_vs_bank(spec, system).expect("ablation runs");
        assert_eq!(report.rows.len(), system.per_config_accuracy().len());
        for row in &report.rows {
            assert!((0.0..=1.0).contains(&row.unified_accuracy));
            assert!((0.0..=1.0).contains(&row.dedicated_accuracy));
        }
        // The memory trade-off side of the claim is deterministic.
        assert!(report.memory.saving_vs_per_config_bank() > 1.0);
        assert!(!report.to_table_string().is_empty());
        assert!(report.max_dedicated_advantage().is_finite());
    }

    #[test]
    fn per_activity_recall_covers_the_scenario_activities() {
        let (spec, system) = shared_system();
        let simulation = Simulator::new(spec, system)
            .with_controller(ControllerKind::Spot { stability_threshold: 3 })
            .run(ScenarioSpec::sit_then_walk(10.0, 10.0))
            .unwrap();
        let recall = per_activity_recall(&simulation);
        assert_eq!(recall.len(), Activity::COUNT);
        // Activities absent from the scenario report zero recall.
        let upstairs = recall.iter().find(|(a, _)| *a == Activity::Upstairs).unwrap();
        assert_eq!(upstairs.1, 0.0);
    }
}
