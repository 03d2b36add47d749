//! Fleet-scale parallel simulation: thousands of simulated wearables at once.
//!
//! The ROADMAP's north star is a production-scale system serving populations of
//! devices, and the related work (compressed-sensing and adaptive data-selection
//! frameworks) evaluates adaptive sensing over large subject populations.  This
//! module provides the machinery for that:
//!
//! * [`FleetSpec`] — N devices running a dwell-time scenario family, each with a
//!   deterministic seed derived from `(base_seed, device_id)` (a splitmix64 mix),
//!   so every device's whole life — schedule, subject variation, sensor noise —
//!   is reproducible independently of scheduling order.
//! * [`FleetScheduler`] — a `std::thread` worker pool pulling fixed-size device
//!   chunks from a shared atomic queue.  Each chunk ticks its devices in
//!   **lockstep** so their classifier calls are batched through one
//!   [`Classifier::predict_batch_into`](adasense_ml::Classifier::predict_batch_into)
//!   forward pass per backend per tick
//!   (cohorts may mix the full-precision f64 and quantized int8 backends via
//!   [`BackendSpec`](crate::scenario::BackendSpec)).  Chunk boundaries depend
//!   only on the spec — never on the worker count — so a fleet run is
//!   **bit-identical at any thread count**.
//! * [`FleetReport`] — mergeable population statistics (exact means, sketch
//!   percentiles of power, accuracy and per-configuration residency, per-routine
//!   and per-backend breakdowns) in memory bounded by the population's
//!   *diversity*, never its size.  Reports from device-range shards
//!   ([`FleetSpec::shards`], [`FleetRunBuilder::shard`]) merge into exactly
//!   the monolithic report — byte-for-byte under [`FleetReport::encode`] — and
//!   per-device rows stream to an on-disk [`SpoolWriter`](crate::shard::SpoolWriter)
//!   (or any [`SummarySink`]) instead of accumulating in RAM, so million-device
//!   cohorts fit one box.  [`FleetRunBuilder::collect`] keeps the rows for
//!   the workloads that want them.
//!
//! Every fleet runs through [`FleetScheduler::builder`].  Live telemetry
//! joins the same machinery: [`ExternalDevice`]s — channel- or socket-fed
//! [`SampleSource`]s from [`crate::ingest`] — given up front
//! ([`FleetRunBuilder::feeds`]) or arriving on a live
//! [`intake`](FleetRunBuilder::intake) tick in the same lockstep cohorts as
//! the scenario-driven population.  [`FleetScheduler::sweep`] is the
//! order-preserving parallel runner for explicit `(scenario, controller)` job
//! lists; the Fig. 6 / Fig. 7 experiment sweeps run through it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Mutex;

use adasense_data::ActivityChangeSetting;
use adasense_ml::{BackendKind, CascadeStage, Prediction};
use adasense_sensor::{SensorConfig, TxPolicy};
use serde::{Deserialize, Serialize};

use crate::codec::{decode_str, encode_str};
use crate::controller::ControllerKind;
use crate::error::AdaSenseError;
use crate::runtime::{
    DeviceRuntime, SampleSource, ScenarioSource, SourceStatus, TickPhase, TxSetup,
};
use crate::scenario::{FaultInjector, PopulationSpec};
use crate::shard::{
    shard_ranges, DiscardSink, FleetStats, ShardRange, SummarySink, ADSR, REPORT_MAGIC,
    REPORT_VERSION,
};
use crate::simulation::{ScenarioSpec, SimulationReport, Simulator};
use crate::training::{ExperimentSpec, TrainedSystem};

/// Derives the seed of one device from the fleet's base seed and the device id.
///
/// Uses a splitmix64-style finalizer so that consecutive device ids produce
/// decorrelated seeds, and every `(base_seed, device_id)` pair maps to the same
/// seed on every run, platform and thread count.
pub fn device_seed(base_seed: u64, device_id: u64) -> u64 {
    let mut z = base_seed ^ device_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Describes one fleet run: a population of devices, the scenario family they
/// live through, and the controller they all run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Number of simulated devices.
    pub devices: u64,
    /// Dwell-time distribution of every device's randomized activity timeline.
    /// Used only by devices the [`population`](FleetSpec::population) prior
    /// leaves on the legacy dwell-randomized path.
    pub setting: ActivityChangeSetting,
    /// The cohort description: routine mix, per-device dwell bias and sensor
    /// fault exposure.  [`PopulationSpec::legacy`] reproduces the historic
    /// homogeneous dwell-randomized fleet bit for bit.
    pub population: PopulationSpec,
    /// Requested timeline duration per device, in seconds (the generated
    /// schedule may overshoot by up to one dwell segment).
    pub duration_s: f64,
    /// The adaptive sensing controller every device runs.
    pub controller: ControllerKind,
    /// Base seed; each device's seed is [`device_seed`]`(base_seed, device_id)`.
    pub base_seed: u64,
    /// Devices ticked in lockstep per scheduler job (their classifier calls are
    /// batched into one forward pass).  Chunking depends only on this value, so
    /// changing the worker count never changes the results.
    pub lockstep_devices: usize,
    /// Compression ratio for transmission modelling: `None` leaves radios off
    /// (the historic fleet, bit for bit); `Some(ratio)` gives every device a
    /// BLE radio ([`TxSetup::ble`]) whose compressed path projects windows down
    /// by `ratio`, and the per-policy counters surface in the report.
    pub tx_ratio: Option<u32>,
}

impl FleetSpec {
    /// A fleet of `devices` Medium-activity devices under SPOT with confidence
    /// (the paper's best controller), 16 devices per lockstep chunk.
    pub fn new(devices: u64, duration_s: f64, base_seed: u64) -> Self {
        Self {
            devices,
            setting: ActivityChangeSetting::Medium,
            population: PopulationSpec::legacy(),
            duration_s,
            controller: ControllerKind::SpotWithConfidence {
                stability_threshold: 10,
                confidence_threshold: 0.85,
            },
            base_seed,
            lockstep_devices: 16,
            tx_ratio: None,
        }
    }

    /// The CI smoke configuration: 64 devices × 60 seconds.
    pub fn smoke() -> Self {
        Self::new(64, 60.0, 64)
    }

    /// Checks the specification for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] for an empty fleet, a timeline
    /// shorter than one classification window, a zero lockstep chunk, a zero
    /// compression ratio or an invalid population.
    pub fn validate(&self) -> Result<(), AdaSenseError> {
        self.validate_cohorts(false)
    }

    /// The checks of [`validate`](FleetSpec::validate) for a run whose
    /// scenario cohort may be empty when `external_devices` join it.  The
    /// duration only bounds scenario devices, so it is checked only when
    /// there are some; every other setting applies to every cohort.
    fn validate_cohorts(&self, external_devices: bool) -> Result<(), AdaSenseError> {
        if self.devices == 0 && !external_devices {
            return Err(AdaSenseError::invalid_spec(
                "a fleet needs at least one device (scenario-driven or external)",
            ));
        }
        if self.devices > 0 && self.duration_s < crate::runtime::WINDOW_S {
            return Err(AdaSenseError::invalid_spec(format!(
                "fleet duration {} s is shorter than one {} s classification window",
                self.duration_s,
                crate::runtime::WINDOW_S
            )));
        }
        if self.lockstep_devices == 0 {
            return Err(AdaSenseError::invalid_spec("lockstep_devices must be non-zero"));
        }
        if self.tx_ratio == Some(0) {
            return Err(AdaSenseError::invalid_spec("tx_ratio must be non-zero when set"));
        }
        self.population.validate()
    }

    /// Everything this spec determines about one device, derived purely from
    /// `(base_seed, device_id)`: its seed, its routine and backend assignment,
    /// and the realized scenario it will live.
    ///
    /// This is the exact setup [`FleetRunBuilder::run`] uses, exposed so replay
    /// tooling can rebuild a device's world outside the scheduler — record its
    /// stream with a [`TraceRecorder`](crate::ingest::TraceRecorder), then
    /// feed the trace back as an [`ExternalDevice`].
    pub fn device_plan(&self, device_id: u64) -> DevicePlan {
        let seed = device_seed(self.base_seed, device_id);
        let profile = self.population.prior.assign(seed);
        let backend = self.population.backend.assign(seed);
        let (scenario, routine) = match profile.routine {
            Some(preset) => (
                preset.script().scenario(self.duration_s, profile.dwell_scale, seed),
                preset.label().to_string(),
            ),
            None => (
                ScenarioSpec::random(self.setting, self.duration_s, seed),
                format!("dwell-{}", self.setting.label()),
            ),
        };
        DevicePlan { device_id, seed, routine, backend, scenario }
    }

    /// Splits the fleet into `shards` contiguous device-id ranges, aligned to
    /// [`lockstep_devices`](FleetSpec::lockstep_devices) chunk boundaries and
    /// maximally balanced (trailing ranges may be empty when there are fewer
    /// chunks than shards).  Each range, run through
    /// [`FleetRunBuilder::shard`], schedules exactly the lockstep chunks
    /// the monolithic run would, and the shard reports merge into exactly the
    /// monolithic report — per-device seeding makes every device's life
    /// independent of which shard runs it.  The canonical merge order is
    /// ascending shard index (see [`crate::shard`]).
    pub fn shards(&self, shards: usize) -> Vec<ShardRange> {
        shard_ranges(self.devices, self.lockstep_devices as u64, shards)
    }
}

/// One device's fully derived setup within a fleet (see
/// [`FleetSpec::device_plan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePlan {
    /// The device's id within the fleet.
    pub device_id: u64,
    /// The derived seed ([`device_seed`]`(base_seed, device_id)`).
    pub seed: u64,
    /// The routine label the device's summary will carry.
    pub routine: String,
    /// The inference backend the device is assigned.
    pub backend: BackendKind,
    /// The realized scenario the device lives.
    pub scenario: ScenarioSpec,
}

/// An externally fed device joining a fleet run: a live [`SampleSource`]
/// (typically a [`ChannelSource`](crate::ingest::ChannelSource), filled in
/// process or by the ingestion reactor) plus the metadata its
/// [`DeviceSummary`] row should carry.
///
/// The source is driven until it reports end-of-stream (or until
/// `duration_s`, when bounded).  Fault exposure is a capture-side property
/// the feed does not carry, so external rows always report
/// `faulted_epochs == 0`.
pub struct ExternalDevice {
    /// The id the device's summary row carries.  The caller is responsible
    /// for keeping feed ids distinct from the scenario cohort's `0..devices`.
    pub device_id: u64,
    /// The seed recorded in the summary row (`0` unless the feed replays a
    /// known seeded run).
    pub seed: u64,
    /// The routine label recorded in the summary row.
    pub routine: String,
    /// The inference backend the device classifies with.
    pub backend: BackendKind,
    /// Optional tick budget, in seconds.  `None` runs until the source
    /// exhausts — a feed that never signals end-of-stream then never returns.
    pub duration_s: Option<f64>,
    /// The fleet epoch at which the device joined the cohort (0 = present
    /// from run start); copied into the summary row for churn accounting.
    pub start_epoch: u64,
    /// Whether the device departed before draining its full stream (its row
    /// is finalized at the last completed epoch).
    pub departed: bool,
    /// The live sample feed.
    pub source: Box<dyn SampleSource + Send>,
}

impl ExternalDevice {
    /// Wraps `source` as an external device with neutral metadata: seed 0,
    /// routine `"external"`, the full-precision backend and no tick budget.
    pub fn new(device_id: u64, source: impl SampleSource + Send + 'static) -> Self {
        Self {
            device_id,
            seed: 0,
            routine: "external".to_string(),
            backend: BackendKind::F64,
            duration_s: None,
            start_epoch: 0,
            departed: false,
            source: Box::new(source),
        }
    }

    /// Sets the summary metadata this device's row carries (for example the
    /// plan of the recorded run a trace replays).
    pub fn with_metadata(mut self, seed: u64, routine: impl Into<String>) -> Self {
        self.seed = seed;
        self.routine = routine.into();
        self
    }

    /// Sets the inference backend this device classifies with.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Bounds the device's run to `duration_s` seconds even if the feed keeps
    /// producing.
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.duration_s = Some(duration_s);
        self
    }

    /// Records the fleet epoch at which this device joined the cohort.
    pub fn with_start_epoch(mut self, start_epoch: u64) -> Self {
        self.start_epoch = start_epoch;
        self
    }

    /// Marks this device as an early departure (finalized at its last
    /// completed epoch rather than a drained stream).
    pub fn with_departed(mut self, departed: bool) -> Self {
        self.departed = departed;
        self
    }
}

impl std::fmt::Debug for ExternalDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalDevice")
            .field("device_id", &self.device_id)
            .field("seed", &self.seed)
            .field("routine", &self.routine)
            .field("backend", &self.backend)
            .field("duration_s", &self.duration_s)
            .finish_non_exhaustive()
    }
}

/// The aggregate outcome of one device's run (no per-epoch records, so memory
/// per device is constant regardless of scenario length).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSummary {
    /// The device's id within the fleet (`0..devices`).
    pub device_id: u64,
    /// The derived seed the device ran with.
    pub seed: u64,
    /// The routine the device lived: a [`RoutinePreset`] label, or
    /// `dwell-<setting>` for legacy dwell-randomized devices.
    ///
    /// [`RoutinePreset`]: crate::scenario::RoutinePreset
    pub routine: String,
    /// The inference backend the device was assigned (a [`BackendKind`]
    /// label, e.g. `f64` or `int8`).  The intensity baseline carries the
    /// label but classifies through its per-configuration bank instead.
    pub backend: String,
    /// Number of classified epochs whose sensed window overlapped at least one
    /// injected fault window (0 for a pristine population).
    pub faulted_epochs: usize,
    /// Number of classified epochs.
    pub epochs: usize,
    /// Number of correctly classified epochs.
    pub correct_epochs: usize,
    /// Epochs a cascade backend answered at its cheap first stage (0 for
    /// single-stage backends).
    pub early_exit_epochs: usize,
    /// Early-exit epochs classified correctly.
    pub early_exit_correct: usize,
    /// Epochs a cascade backend escalated to its full second stage.
    pub escalated_epochs: usize,
    /// Escalated epochs classified correctly.
    pub escalated_correct: usize,
    /// Recognition accuracy (0–1).
    pub accuracy: f64,
    /// Average sensor current over the run, in µA.
    pub average_current_ua: f64,
    /// Total sensor charge over the run, in µC.
    pub total_charge_uc: f64,
    /// Simulated duration, in seconds.
    pub duration_s: f64,
    /// Seconds spent in each configuration, indexed by [`SensorConfig::index`].
    pub residency_s: Vec<f64>,
    /// Classified epochs transmitted under each [`TxPolicy`], indexed by
    /// [`TxPolicy::index`] (all zero when transmission modelling is off).
    pub tx_epochs: Vec<u64>,
    /// Payload bytes transmitted under each policy.
    pub tx_bytes: Vec<u64>,
    /// Radio charge spent under each policy, in µC.
    pub tx_charge_uc: Vec<f64>,
    /// The fleet epoch at which the device joined the cohort (0 = present
    /// from run start).
    pub start_epoch: u64,
    /// Whether the device departed before draining its full stream.
    pub departed: bool,
}

impl DeviceSummary {
    /// Finalizes one cohort device into its row.
    fn finalize(meta: DeviceMeta, runtime: &CohortRuntime<'_>) -> Self {
        let tally = runtime.cascade_tally();
        let tx = runtime.tx_tally();
        Self {
            device_id: meta.device_id,
            seed: meta.seed,
            routine: meta.routine,
            backend: meta.backend.label().to_string(),
            faulted_epochs: runtime.source().faulted_epochs(),
            epochs: runtime.epochs(),
            correct_epochs: runtime.correct_epochs(),
            early_exit_epochs: tally.early_exit_epochs,
            early_exit_correct: tally.early_exit_correct,
            escalated_epochs: tally.escalated_epochs,
            escalated_correct: tally.escalated_correct,
            accuracy: runtime.accuracy(),
            average_current_ua: runtime.average_current_ua(),
            total_charge_uc: runtime.total_charge().micro_coulombs(),
            duration_s: runtime.elapsed_s(),
            residency_s: runtime.residency_seconds().to_vec(),
            tx_epochs: tx.epochs.to_vec(),
            tx_bytes: tx.bytes.to_vec(),
            tx_charge_uc: tx.charge_uc.to_vec(),
            start_epoch: meta.start_epoch,
            departed: meta.departed,
        }
    }

    /// The fraction of this device's time spent in `config` (0–1).
    pub fn residency_fraction(&self, config: SensorConfig) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.residency_s.get(config.index()).copied().unwrap_or(0.0) / self.duration_s
    }

    /// The fraction of this device's classified epochs that were fault-exposed
    /// (0–1; 0 for a device that classified nothing).
    pub fn faulted_fraction(&self) -> f64 {
        if self.epochs == 0 {
            return 0.0;
        }
        self.faulted_epochs as f64 / self.epochs as f64
    }
}

/// Population statistics of the devices sharing one inference backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendBreakdown {
    /// The backend label (see [`DeviceSummary::backend`]).
    pub backend: String,
    /// Number of devices running this backend.
    pub devices: usize,
    /// Mean recognition accuracy of those devices (0–1); [`f64::NAN`] if the
    /// group is empty.
    pub mean_accuracy: f64,
    /// Mean average sensor current of those devices, in µA; [`f64::NAN`] if
    /// the group is empty.
    pub mean_current_ua: f64,
    /// Total classified epochs of those devices.
    pub epochs: usize,
}

/// Population statistics of the devices sharing one routine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutineBreakdown {
    /// The routine label (see [`DeviceSummary::routine`]).
    pub routine: String,
    /// Number of devices living this routine.
    pub devices: usize,
    /// Mean recognition accuracy of those devices (0–1).
    pub mean_accuracy: f64,
    /// Mean average sensor current of those devices, in µA.
    pub mean_current_ua: f64,
    /// Mean fraction of fault-exposed epochs of those devices (0–1).
    pub mean_faulted_fraction: f64,
}

/// The aggregated result of a fleet run: mergeable population statistics in
/// memory bounded by the population's *diversity* (routines × backends ×
/// sketch buckets), never by its size.
///
/// Means are exact (an [`ExactSum`](crate::shard::ExactSum) per metric) and
/// percentiles come from a [`QuantileSketch`](crate::shard::QuantileSketch),
/// so reports built per device-range shard [`merge`](FleetReport::merge) into
/// *exactly* — bit for bit, in any merge order — the report of the monolithic
/// run; [`encode`](FleetReport::encode) is canonical, making that equality
/// checkable byte for byte (the `fleet_shard` binary gates it in CI).
/// Per-device rows do not live in the report: a
/// [`collect`](FleetRunBuilder::collect)ed [`FleetRun`] returns them alongside
/// it, and a [`sink`](FleetRunBuilder::sink) streams them to a
/// [`SummarySink`] such as the on-disk [`SpoolWriter`](crate::shard::SpoolWriter).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Label of the controller the fleet ran.
    pub controller: String,
    /// The mergeable population statistics.
    pub stats: FleetStats,
}

impl FleetReport {
    /// An empty report for a fleet running `controller` (the merge identity).
    pub fn new(controller: impl Into<String>) -> Self {
        Self { controller: controller.into(), stats: FleetStats::new() }
    }

    /// Folds one completed device into the report.
    pub fn observe(&mut self, device: &DeviceSummary) {
        self.stats.observe(device);
    }

    /// Merges another shard's report into this one.  Any merge order gives
    /// bit-identical state; the canonical order is ascending shard index.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Shard`] when the reports ran different
    /// controllers — such populations are different experiments.
    pub fn merge(&mut self, other: &FleetReport) -> Result<(), AdaSenseError> {
        if self.controller != other.controller {
            return Err(AdaSenseError::shard(format!(
                "cannot merge a `{}` report into a `{}` report",
                other.controller, self.controller
            )));
        }
        self.stats.merge(&other.stats);
        Ok(())
    }

    /// Encodes the report canonically: equal reports — in particular a merged
    /// sharded run and its monolithic counterpart — produce identical bytes.
    /// The layout (magic `ADSR`) is specified in `docs/WIRE_FORMAT.md`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&REPORT_MAGIC);
        out.extend_from_slice(&REPORT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        encode_str(&mut out, &self.controller);
        self.stats.encode_into(&mut out);
        out
    }

    /// Decodes a report written by [`encode`](FleetReport::encode).
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Shard`] on bad magic, an unsupported version,
    /// non-zero flags, or a truncated/corrupt body.
    pub fn decode(bytes: &[u8]) -> Result<Self, AdaSenseError> {
        let mut cursor = ADSR.cursor(bytes);
        cursor.header()?;
        let controller = decode_str(&mut cursor)?;
        let stats = FleetStats::decode_from(&mut cursor)?;
        cursor.finish()?;
        Ok(Self { controller, stats })
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> u64 {
        self.stats.devices
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.stats.devices == 0
    }

    /// Total classified epochs across the population.
    pub fn total_epochs(&self) -> u64 {
        self.stats.epochs
    }

    /// Total simulated time across the population, in seconds (exact: the
    /// correctly rounded sum of every device's duration).
    pub fn total_duration_s(&self) -> f64 {
        self.stats.duration_s.value()
    }

    /// Mean recognition accuracy across the population (0–1).  [`f64::NAN`]
    /// for an empty fleet.
    pub fn mean_accuracy(&self) -> f64 {
        self.stats.accuracy.mean()
    }

    /// Devices that joined the cohort after fleet epoch 0 (late joiners).
    pub fn joined_devices(&self) -> u64 {
        self.stats.joined
    }

    /// Devices that departed before draining their full stream.
    pub fn departed_devices(&self) -> u64 {
        self.stats.departed
    }

    /// Peak number of simultaneously active devices over the fleet timeline
    /// (the maximum prefix sum of the per-epoch lifetime deltas).
    pub fn active_peak(&self) -> u64 {
        self.stats.active_peak()
    }

    /// Mean average sensor current across the population, in µA.  [`f64::NAN`]
    /// for an empty fleet.
    pub fn mean_current_ua(&self) -> f64 {
        self.stats.current_ua.mean()
    }

    /// The `p`-th percentile (nearest-rank, `0 < p <= 100`) of per-device
    /// accuracy, answered from the mergeable sketch (a magnitude-truncated
    /// bucket representative within 2^-12 relative error; see
    /// [`QuantileSketch::percentile`](crate::shard::QuantileSketch::percentile)).
    /// [`f64::NAN`] for an empty fleet (a percentile of nothing is undefined,
    /// and any numeric stand-in would read as a real accuracy).
    pub fn accuracy_percentile(&self, p: f64) -> f64 {
        self.stats.accuracy.percentile(p)
    }

    /// The `p`-th percentile (nearest-rank, sketch-answered) of per-device
    /// average current, µA.  [`f64::NAN`] for an empty fleet.
    pub fn current_percentile(&self, p: f64) -> f64 {
        self.stats.current_ua.percentile(p)
    }

    /// The `p`-th percentile (nearest-rank, sketch-answered) of the
    /// population's residency fraction in `config`.  [`f64::NAN`] for an
    /// empty fleet.
    pub fn residency_percentile(&self, config: SensorConfig, p: f64) -> f64 {
        self.stats.residency[config.index()].percentile(p)
    }

    /// Mean fraction of the population's time spent in `config` (0–1).
    /// [`f64::NAN`] for an empty fleet.
    pub fn mean_residency_fraction(&self, config: SensorConfig) -> f64 {
        self.stats.residency[config.index()].mean()
    }

    /// Mean fraction of fault-exposed classified epochs across the population
    /// (0–1).  [`f64::NAN`] for an empty fleet.
    pub fn mean_faulted_fraction(&self) -> f64 {
        self.stats.faulted_fraction.mean()
    }

    /// Total epochs cascade backends answered at their cheap first stage.
    pub fn total_early_exit_epochs(&self) -> u64 {
        self.stats.early_exit_epochs
    }

    /// Total epochs cascade backends escalated to their full second stage.
    pub fn total_escalated_epochs(&self) -> u64 {
        self.stats.escalated_epochs
    }

    /// Fraction of cascade-classified epochs that exited at the first stage
    /// (0–1).  [`f64::NAN`] when no device ran a cascade backend.
    pub fn cascade_exit_rate(&self) -> f64 {
        let total = self.stats.early_exit_epochs + self.stats.escalated_epochs;
        if total == 0 {
            f64::NAN
        } else {
            self.stats.early_exit_epochs as f64 / total as f64
        }
    }

    /// Accuracy over the epochs the cascade's first stage answered (0–1).
    /// [`f64::NAN`] when no epoch exited early.
    pub fn early_exit_accuracy(&self) -> f64 {
        if self.stats.early_exit_epochs == 0 {
            f64::NAN
        } else {
            self.stats.early_exit_correct as f64 / self.stats.early_exit_epochs as f64
        }
    }

    /// Accuracy over the epochs the cascade escalated to its second stage
    /// (0–1).  [`f64::NAN`] when no epoch escalated.
    pub fn escalated_accuracy(&self) -> f64 {
        if self.stats.escalated_epochs == 0 {
            f64::NAN
        } else {
            self.stats.escalated_correct as f64 / self.stats.escalated_epochs as f64
        }
    }

    /// Total classified epochs transmitted under `policy` across the
    /// population (0 when transmission modelling is off).
    pub fn tx_epochs(&self, policy: TxPolicy) -> u64 {
        self.stats.tx_epochs[policy.index()]
    }

    /// Total payload bytes transmitted under `policy`.
    pub fn tx_bytes(&self, policy: TxPolicy) -> u64 {
        self.stats.tx_bytes[policy.index()]
    }

    /// Total radio charge spent under `policy`, in µC (exact sum).
    pub fn tx_charge_uc(&self, policy: TxPolicy) -> f64 {
        self.stats.tx_charge_uc[policy.index()].value()
    }

    /// Total payload bytes transmitted across all policies.
    pub fn total_tx_bytes(&self) -> u64 {
        self.stats.tx_bytes.iter().sum()
    }

    /// Total radio charge across all policies, in µC.
    pub fn total_tx_charge_uc(&self) -> f64 {
        self.stats.tx_charge_uc.iter().map(crate::shard::ExactSum::value).sum()
    }

    /// Mean payload size per epoch under `policy`, in bytes.  [`f64::NAN`]
    /// when no epoch transmitted under the policy.
    pub fn tx_mean_bytes(&self, policy: TxPolicy) -> f64 {
        let epochs = self.stats.tx_epochs[policy.index()];
        if epochs == 0 {
            f64::NAN
        } else {
            self.stats.tx_bytes[policy.index()] as f64 / epochs as f64
        }
    }

    /// Mean radio charge per epoch under `policy`, in µC.  [`f64::NAN`] when
    /// no epoch transmitted under the policy.
    pub fn tx_mean_charge_uc(&self, policy: TxPolicy) -> f64 {
        let epochs = self.stats.tx_epochs[policy.index()];
        if epochs == 0 {
            f64::NAN
        } else {
            self.stats.tx_charge_uc[policy.index()].value() / epochs as f64
        }
    }

    /// Groups the population by routine, returning one [`RoutineBreakdown`]
    /// per distinct routine label, sorted by label.
    pub fn routine_breakdown(&self) -> Vec<RoutineBreakdown> {
        self.stats
            .routines
            .iter()
            .map(|(routine, group)| RoutineBreakdown {
                routine: routine.clone(),
                devices: group.devices as usize,
                mean_accuracy: group.mean_of(&group.accuracy),
                mean_current_ua: group.mean_of(&group.current_ua),
                mean_faulted_fraction: group.mean_of(&group.faulted_fraction),
            })
            .collect()
    }

    /// Groups the population by inference backend, returning one
    /// [`BackendBreakdown`] per distinct backend label, sorted by label.
    pub fn backend_breakdown(&self) -> Vec<BackendBreakdown> {
        self.stats
            .backends
            .iter()
            .map(|(backend, group)| BackendBreakdown {
                backend: backend.clone(),
                devices: group.devices as usize,
                mean_accuracy: group.mean_of(&group.accuracy),
                mean_current_ua: group.mean_of(&group.current_ua),
                epochs: group.epochs as usize,
            })
            .collect()
    }

    /// Renders the population percentiles, the per-state mean residencies and
    /// the per-routine / per-backend breakdowns as a table.  Undefined
    /// statistics (the [`f64::NAN`] sentinel of an empty fleet or group) are
    /// printed as `-` instead of fabricating a numeric figure.
    pub fn to_table_string(&self) -> String {
        let mut out = format!(
            "fleet of {} devices under {}\n\
             metric            p50      p90      p99     mean\n",
            self.len(),
            self.controller
        );
        out.push_str(&format!(
            "current(uA)  {} {} {} {}\n",
            cell(self.current_percentile(50.0), 8, 1),
            cell(self.current_percentile(90.0), 8, 1),
            cell(self.current_percentile(99.0), 8, 1),
            cell(self.mean_current_ua(), 8, 1)
        ));
        out.push_str(&format!(
            "accuracy(%)  {} {} {} {}\n",
            cell(100.0 * self.accuracy_percentile(50.0), 8, 2),
            cell(100.0 * self.accuracy_percentile(90.0), 8, 2),
            cell(100.0 * self.accuracy_percentile(99.0), 8, 2),
            cell(100.0 * self.mean_accuracy(), 8, 2)
        ));
        out.push_str("residency (population mean, SPOT states):\n");
        for config in SensorConfig::paper_pareto_front() {
            let fraction = self.mean_residency_fraction(config);
            out.push_str(&format!("  {:<12} {}%\n", config.label(), cell(100.0 * fraction, 6, 1)));
        }
        out.push_str("per-routine breakdown:\n");
        for group in self.routine_breakdown() {
            out.push_str(&format!(
                "  {:<16} {:>5} devices  acc {}%  current {} uA  faulted {}%\n",
                group.routine,
                group.devices,
                cell(100.0 * group.mean_accuracy, 6, 2),
                cell(group.mean_current_ua, 7, 1),
                cell(100.0 * group.mean_faulted_fraction, 5, 1)
            ));
        }
        out.push_str("per-backend breakdown:\n");
        for group in self.backend_breakdown() {
            out.push_str(&format!(
                "  {:<16} {:>5} devices  acc {}%  current {} uA  epochs {:>7}\n",
                group.backend,
                group.devices,
                cell(100.0 * group.mean_accuracy, 6, 2),
                cell(group.mean_current_ua, 7, 1),
                group.epochs
            ));
        }
        if self.stats.early_exit_epochs + self.stats.escalated_epochs > 0 {
            out.push_str(&format!(
                "cascade: exit rate {}%  stage-1 acc {}%  stage-2 acc {}%  ({} early / {} escalated)\n",
                cell(100.0 * self.cascade_exit_rate(), 5, 1),
                cell(100.0 * self.early_exit_accuracy(), 6, 2),
                cell(100.0 * self.escalated_accuracy(), 6, 2),
                self.stats.early_exit_epochs,
                self.stats.escalated_epochs
            ));
        }
        if self.stats.tx_epochs.iter().sum::<u64>() > 0 {
            out.push_str("transmission breakdown:\n");
            for policy in TxPolicy::ALL {
                let index = policy.index();
                out.push_str(&format!(
                    "  {:<12} {:>7} epochs  {:>10} B  {} B/epoch  {} uC/epoch\n",
                    policy.label(),
                    self.stats.tx_epochs[index],
                    self.stats.tx_bytes[index],
                    cell(self.tx_mean_bytes(policy), 7, 1),
                    cell(self.tx_mean_charge_uc(policy), 8, 1)
                ));
            }
        }
        out
    }
}

/// Formats one table cell: right-aligned to `width` with `prec` decimals, or
/// a right-aligned `-` when the value is the undefined-statistic [`f64::NAN`]
/// sentinel (a fabricated number would read as a real figure).
fn cell(value: f64, width: usize, prec: usize) -> String {
    if value.is_nan() {
        format!("{:>width$}", "-")
    } else {
        format!("{value:>width$.prec$}")
    }
}

/// Arithmetic mean of an iterator of values; [`f64::NAN`] for an empty input
/// — a fabricated 0 would read as a real figure.  Shared with the experiment
/// reports in [`crate::experiments`].
pub(crate) fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    }
}

/// A fleet run: the mergeable [`FleetReport`] plus, when the run was
/// [`collect`](FleetRunBuilder::collect)ed, one [`DeviceSummary`] per device
/// for the workloads that need row-level detail in RAM (replay gates,
/// per-device assertions).  Kept rows grow with the cohort, so
/// bounded-memory runs leave `collect` off and stream rows to a
/// [`sink`](FleetRunBuilder::sink) instead.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// The mergeable population report.
    pub report: FleetReport,
    /// One summary per device when collected (empty otherwise): the scenario
    /// cohort first (by device id), then the feed cohort in the order given,
    /// then the intake's devices in arrival order.
    pub summaries: Vec<DeviceSummary>,
}

/// The parallel fleet scheduler: a worker pool over a shared job queue.
#[derive(Debug, Clone, Copy)]
pub struct FleetScheduler<'a> {
    spec: &'a ExperimentSpec,
    system: &'a TrainedSystem,
    threads: usize,
}

impl<'a> FleetScheduler<'a> {
    /// Creates a scheduler around a trained system.  The worker count defaults
    /// to the machine's available parallelism; results never depend on it.
    pub fn new(spec: &'a ExperimentSpec, system: &'a TrainedSystem) -> Self {
        Self { spec, system, threads: 0 }
    }

    /// Pins the number of worker threads (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The number of worker threads the scheduler will spawn.
    pub fn worker_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        }
    }

    /// Opens a [`FleetRunBuilder`]: the one way to drive a fleet.  Pick a
    /// [`spec`](FleetRunBuilder::spec), optionally add
    /// [`feeds`](FleetRunBuilder::feeds), a live
    /// [`intake`](FleetRunBuilder::intake), a
    /// [`shard`](FleetRunBuilder::shard) range, a streaming
    /// [`sink`](FleetRunBuilder::sink) or in-RAM row
    /// [`collect`](FleetRunBuilder::collect)ion, then call
    /// [`run`](FleetRunBuilder::run).
    pub fn builder<'s>(&self) -> FleetRunBuilder<'a, 's> {
        FleetRunBuilder {
            scheduler: *self,
            fleet: None,
            feeds: Vec::new(),
            intake: None,
            range: None,
            sink: None,
            collect: false,
        }
    }

    /// Runs an explicit list of `(scenario, controller)` simulations over the
    /// worker pool, returning their reports in job order.  This is the runner
    /// behind the experiment sweeps (Figs. 6 & 7).
    ///
    /// # Errors
    ///
    /// Propagates the error of the first failing job, in job order.
    pub fn sweep(
        &self,
        jobs: &[(ScenarioSpec, ControllerKind)],
    ) -> Result<Vec<SimulationReport>, AdaSenseError> {
        run_jobs(self.worker_threads(), jobs.iter().collect(), |(scenario, controller)| {
            Simulator::new(self.spec, self.system)
                .with_controller(*controller)
                .run(scenario.clone())
        })
    }

    /// The exact sample source a fleet device runs over: the plan's realized
    /// scenario played through the simulated accelerometer, wrapped in the
    /// population's fault injector.  Exposed so replay tooling can rebuild a
    /// device's world outside the scheduler.
    pub fn device_source(
        &self,
        fleet: &FleetSpec,
        plan: &DevicePlan,
    ) -> FaultInjector<ScenarioSource> {
        FaultInjector::for_device(
            ScenarioSource::new(self.spec, &plan.scenario),
            fleet.population.fault,
            plan.scenario.duration_s(),
            plan.seed,
        )
    }

    /// Builds one device for a cohort: the fleet's controller over `source`,
    /// classifying with the device's backend and bounded to `duration_s` when
    /// given (an unbounded device runs until its source exhausts).  With
    /// transmission modelling on, the radio is seeded with the device's seed,
    /// so a feed replaying a scenario device prices and compresses exactly as
    /// the original did.
    fn device(
        &self,
        fleet: &FleetSpec,
        meta: DeviceMeta,
        source: CohortSource,
        duration_s: Option<f64>,
    ) -> Result<(DeviceMeta, CohortRuntime<'a>), AdaSenseError> {
        let (spec, system, controller) = (self.spec, self.system, fleet.controller);
        let mut runtime = match duration_s {
            Some(duration_s) => {
                DeviceRuntime::for_source(spec, system, controller, source, duration_s)?
            }
            None => DeviceRuntime::new(spec, system, controller, source),
        }
        .with_recording(false)
        .with_classifier(system.backend(meta.backend));
        if let Some(ratio) = fleet.tx_ratio {
            runtime = runtime.with_tx(TxSetup::ble(ratio).with_seed(meta.seed));
        }
        Ok((meta, runtime))
    }

    /// Builds scenario device `device_id` from its [`DevicePlan`].
    fn scenario_device(
        &self,
        fleet: &FleetSpec,
        device_id: u64,
    ) -> Result<(DeviceMeta, CohortRuntime<'a>), AdaSenseError> {
        let plan = fleet.device_plan(device_id);
        let source = CohortSource::Scenario(self.device_source(fleet, &plan));
        let duration_s = plan.scenario.duration_s();
        let DevicePlan { device_id, seed, routine, backend, .. } = plan;
        let meta =
            DeviceMeta { device_id, seed, routine, backend, start_epoch: 0, departed: false };
        self.device(fleet, meta, source, Some(duration_s))
    }

    /// Builds an externally fed device.
    fn feed_device(
        &self,
        fleet: &FleetSpec,
        feed: ExternalDevice,
    ) -> Result<(DeviceMeta, CohortRuntime<'a>), AdaSenseError> {
        let ExternalDevice {
            device_id,
            seed,
            routine,
            backend,
            duration_s,
            start_epoch,
            departed,
            source,
        } = feed;
        let meta = DeviceMeta { device_id, seed, routine, backend, start_epoch, departed };
        self.device(fleet, meta, CohortSource::External(source), duration_s)
    }

    /// Runs one cohort job to completion, handing each device's row to
    /// `on_row` (with the device's admission index) the moment the device
    /// completes.  A scenario chunk or a feed chunk admits its devices up
    /// front; the live intake admits arrivals between ticks, blocking only
    /// while the cohort is empty, and the job ends once the cohort has
    /// drained *and* the intake has disconnected.
    fn drive(
        &self,
        fleet: &FleetSpec,
        job: CohortJob,
        on_row: &mut dyn FnMut(usize, DeviceSummary) -> Result<(), AdaSenseError>,
    ) -> Result<(), AdaSenseError> {
        let mut cohort = Cohort::new(self.system);
        let mut intake = match job {
            CohortJob::Scenario(device_ids) => {
                for device_id in device_ids {
                    cohort.admit(self.scenario_device(fleet, device_id)?);
                }
                None
            }
            CohortJob::Feeds(feeds) => {
                for feed in feeds {
                    cohort.admit(self.feed_device(fleet, feed)?);
                }
                None
            }
            CohortJob::Intake(intake) => Some(intake),
        };
        loop {
            while let Some(open) = &intake {
                let arrival = if cohort.is_empty() {
                    open.recv().ok()
                } else {
                    match open.try_recv() {
                        Ok(feed) => Some(feed),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => None,
                    }
                };
                match arrival {
                    Some(feed) => cohort.admit(self.feed_device(fleet, feed)?),
                    None => intake = None,
                }
            }
            if cohort.is_empty() {
                return Ok(());
            }
            cohort.tick();
            cohort.evict(on_row)?;
        }
    }
}

/// The metadata a device's summary row carries, kept beside its runtime.
struct DeviceMeta {
    device_id: u64,
    seed: u64,
    routine: String,
    backend: BackendKind,
    start_epoch: u64,
    departed: bool,
}

/// Where a cohort device's windows come from: a scenario device's
/// fault-injected synthetic sensor, or an external feed.  One source type
/// lets every kind of device share one cohort while a scenario device keeps
/// its fault count for its row.
enum CohortSource {
    Scenario(FaultInjector<ScenarioSource>),
    External(Box<dyn SampleSource + Send>),
}

impl CohortSource {
    /// Fault-exposed captures so far.  Fault exposure is a capture-side
    /// property a feed does not carry, so an external device reports 0.
    fn faulted_epochs(&self) -> usize {
        match self {
            Self::Scenario(source) => source.faulted_captures(),
            Self::External(_) => 0,
        }
    }
}

impl SampleSource for CohortSource {
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<adasense_sensor::Sample3>,
    ) {
        match self {
            Self::Scenario(source) => source.capture_window(config, t_end, window_s, out),
            Self::External(source) => source.capture_window(config, t_end, window_s, out),
        }
    }

    fn ground_truth(&self, t_s: f64) -> Option<adasense_data::Activity> {
        match self {
            Self::Scenario(source) => source.ground_truth(t_s),
            Self::External(source) => source.ground_truth(t_s),
        }
    }

    fn status(&mut self) -> SourceStatus {
        match self {
            Self::Scenario(source) => source.status(),
            Self::External(source) => source.status(),
        }
    }
}

/// The runtime of one cohort device.
type CohortRuntime<'a> = DeviceRuntime<'a, CohortSource>;

/// One worker job: a cohort and where its devices come from.  A scenario
/// chunk and a feed chunk are intakes closed up front; the live intake stays
/// open until its sender disconnects.
enum CohortJob {
    Scenario(std::ops::Range<u64>),
    Feeds(Vec<ExternalDevice>),
    Intake(Receiver<ExternalDevice>),
}

/// One device of a cohort: its admission index within the cohort, the
/// metadata its row carries and its runtime.
struct Member<'a> {
    admitted: usize,
    meta: DeviceMeta,
    runtime: CohortRuntime<'a>,
}

/// A lockstep cohort: devices are admitted with the metadata their rows
/// carry, tick together with their classifier calls batched per backend,
/// and are evicted into rows as they complete.
struct Cohort<'a> {
    system: &'a TrainedSystem,
    /// Live devices in admission order.
    devices: Vec<Member<'a>>,
    admitted: usize,
    /// One retained batch pool per backend, indexed like [`BackendKind::ALL`].
    pools: Vec<BatchPool>,
    predictions: Vec<Prediction>,
    stages: Vec<CascadeStage>,
}

impl<'a> Cohort<'a> {
    fn new(system: &'a TrainedSystem) -> Self {
        Self {
            system,
            devices: Vec::new(),
            admitted: 0,
            pools: BackendKind::ALL.iter().map(|_| BatchPool::default()).collect(),
            predictions: Vec::new(),
            stages: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Adds one device to the cohort; it ticks from the next tick on.
    fn admit(&mut self, (meta, runtime): (DeviceMeta, CohortRuntime<'a>)) {
        self.devices.push(Member { admitted: self.admitted, meta, runtime });
        self.admitted += 1;
    }

    /// Advances every live device by one tick, batching all pending
    /// classifications of the tick into one forward pass *per backend*
    /// (devices on different backends cannot share a matrix product, but each
    /// backend group still batches).  The pools retain their row buffers, so
    /// ticking allocates nothing once they have grown.  Devices are drained
    /// into the pools in admission order and each pool is resolved in that
    /// same order, so a closed cohort's batch composition depends only on the
    /// spec, never on the worker count.  Per-row results are independent of
    /// the batch composition, so the cohort may grow or shrink between ticks.
    fn tick(&mut self) {
        for pool in &mut self.pools {
            pool.reset();
        }
        for (i, Member { meta, runtime, .. }) in self.devices.iter_mut().enumerate() {
            if runtime.is_complete() || runtime.begin_tick() != TickPhase::Classify {
                continue;
            }
            if runtime.batches_with_unified() {
                self.pools[backend_index(meta.backend)].push(i, runtime.pending_features());
            } else {
                // Bank classifiers are per-configuration; classify this
                // device individually.
                let (prediction, stage) =
                    runtime.active_classifier().predict_with_stage(runtime.pending_features());
                runtime.complete_tick_staged(prediction, stage);
            }
        }
        for (pool, kind) in self.pools.iter().zip(BackendKind::ALL) {
            if pool.used == 0 {
                continue;
            }
            self.system.backend(kind).predict_batch_staged(
                pool.rows(),
                &mut self.predictions,
                &mut self.stages,
            );
            for ((&i, prediction), stage) in
                pool.members.iter().zip(self.predictions.drain(..)).zip(self.stages.drain(..))
            {
                self.devices[i].runtime.complete_tick_staged(prediction, stage);
            }
        }
    }

    /// Finalizes every completed device into its row, handed to `on_row`
    /// with the device's admission index, and drops it from the cohort.  The
    /// remaining devices keep their relative order.
    fn evict(
        &mut self,
        on_row: &mut dyn FnMut(usize, DeviceSummary) -> Result<(), AdaSenseError>,
    ) -> Result<(), AdaSenseError> {
        for Member { admitted, meta, runtime } in
            self.devices.extract_if(.., |device| device.runtime.is_complete())
        {
            on_row(admitted, DeviceSummary::finalize(meta, &runtime))?;
        }
        Ok(())
    }
}

/// One configurable fleet run, built by [`FleetScheduler::builder`]: the one
/// way to drive a fleet.
///
/// Every option composes with every other: a sharded run can keep its rows,
/// a feed cohort can stream to a spool, a reactor-fed live fleet can run
/// report-only in bounded memory.  The report is bit-identical across any
/// combination of worker count, sharding and row handling because it is a
/// function of the row multiset only.
///
/// ```
/// # use adasense::prelude::*;
/// # let exp = ExperimentSpec::quick();
/// # let system = TrainedSystem::train(&exp).unwrap();
/// let fleet = FleetSpec::new(12, 6.0, 42);
/// let scheduler = FleetScheduler::new(&exp, &system);
/// let report = scheduler.builder().spec(&fleet).run().unwrap().report;
/// let rows = scheduler.builder().spec(&fleet).collect().run().unwrap();
/// assert_eq!(rows.report, report);
/// assert_eq!(rows.summaries.len(), 12);
/// ```
pub struct FleetRunBuilder<'a, 's> {
    scheduler: FleetScheduler<'a>,
    fleet: Option<&'s FleetSpec>,
    feeds: Vec<ExternalDevice>,
    intake: Option<Receiver<ExternalDevice>>,
    range: Option<ShardRange>,
    sink: Option<&'s mut dyn SummarySink>,
    collect: bool,
}

impl std::fmt::Debug for FleetRunBuilder<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRunBuilder")
            .field("scheduler", &self.scheduler)
            .field("fleet", &self.fleet)
            .field("feeds", &self.feeds.len())
            .field("intake", &self.intake.is_some())
            .field("range", &self.range)
            .field("sink", &self.sink.is_some())
            .field("collect", &self.collect)
            .finish()
    }
}

impl<'a, 's> FleetRunBuilder<'a, 's> {
    /// Sets the fleet spec: the scenario-driven cohort, the controller, the
    /// lockstep chunking and the population model.  Required by
    /// [`run`](FleetRunBuilder::run); a feed-only run passes a spec with
    /// `devices: 0`.
    pub fn spec(mut self, fleet: &'s FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Appends a cohort of externally fed devices ([`ExternalDevice`]): live
    /// telemetry feeds that join the same worker pool and lockstep batching
    /// as the scenario cohort.  May be called repeatedly; feeds accumulate.
    pub fn feeds(mut self, feeds: Vec<ExternalDevice>) -> Self {
        self.feeds.extend(feeds);
        self
    }

    /// Appends one externally fed device.
    pub fn feed(mut self, feed: ExternalDevice) -> Self {
        self.feeds.push(feed);
        self
    }

    /// Attaches a *live intake*: devices sent on the channel join the cohort
    /// between lockstep ticks, so the fleet can grow while it runs — the
    /// churn counterpart of the up-front [`feeds`](FleetRunBuilder::feeds)
    /// list.  Each arriving device runs until its source exhausts (a
    /// departing device's sender is simply dropped) and its row folds into
    /// the report the moment it completes.  The run finishes when the
    /// scenario cohort, the feed chunks *and* the intake have all drained:
    /// drop the sender to close the intake.
    pub fn intake(mut self, intake: Receiver<ExternalDevice>) -> Self {
        self.intake = Some(intake);
        self
    }

    /// Restricts the scenario cohort to one [`ShardRange`] of the fleet
    /// (defaults to the whole fleet).  Feeds are never sharded: every feed
    /// given to the builder runs regardless of the range.
    pub fn shard(mut self, range: ShardRange) -> Self {
        self.range = Some(range);
        self
    }

    /// Streams every completed [`DeviceSummary`] row to `sink` (e.g. a
    /// [`SpoolWriter`](crate::shard::SpoolWriter)).  Each row arrives the
    /// moment its device completes, so the order follows device completion
    /// across the worker pool and varies with worker scheduling; consumers
    /// needing an order must sort by `device_id`.  Without a sink, rows that
    /// are not [`collect`](FleetRunBuilder::collect)ed are dropped after
    /// folding into the report, keeping memory bounded.
    pub fn sink(mut self, sink: &'s mut dyn SummarySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Keeps every [`DeviceSummary`] row in RAM: the returned
    /// [`FleetRun::summaries`] lists the scenario cohort first (in device-id
    /// order), then the feed cohort in the order given, then the intake's
    /// devices in arrival order.  Memory grows with the cohort; leave off
    /// for large fleets.
    pub fn collect(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Runs the configured fleet: scenario chunks, feed chunks and the intake
    /// share one worker pool, every completed row folds into the mergeable
    /// report (and reaches the sink, if any), and the report is bit-identical
    /// for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] if no spec was given, for
    /// degenerate specs (including no devices in any cohort), or for a
    /// shard range outside the fleet; propagates per-device and sink errors.
    pub fn run(self) -> Result<FleetRun, AdaSenseError> {
        let Self { scheduler, fleet, feeds, intake, range, sink, collect } = self;
        let Some(fleet) = fleet else {
            return Err(AdaSenseError::invalid_spec(
                "FleetRunBuilder::run needs a fleet spec (FleetRunBuilder::spec)",
            ));
        };
        fleet.validate_cohorts(!feeds.is_empty() || intake.is_some())?;
        let range = range.unwrap_or_else(|| ShardRange::whole(fleet.devices));
        if range.start > range.end || range.end > fleet.devices {
            return Err(AdaSenseError::invalid_spec(format!(
                "shard range {range} does not fit a fleet of {} devices",
                fleet.devices
            )));
        }
        // Scenario chunks align to `lockstep_devices` from the range start,
        // feeds chunk in the order given, and the intake runs last.
        let chunk = fleet.lockstep_devices as u64;
        let mut jobs: Vec<CohortJob> = (0..range.len().div_ceil(chunk))
            .map(|c| {
                let start = range.start + c * chunk;
                CohortJob::Scenario(start..(start + chunk).min(range.end))
            })
            .collect();
        let mut feeds = feeds.into_iter().peekable();
        while feeds.peek().is_some() {
            jobs.push(CohortJob::Feeds(feeds.by_ref().take(fleet.lockstep_devices).collect()));
        }
        jobs.extend(intake.map(CohortJob::Intake));
        let mut discard = DiscardSink;
        // The aggregate and the sink share one lock: rows are observed and
        // spooled under it as their devices complete.  The report is a
        // function of the row *multiset*, so that order never shows; kept
        // rows are put back in admission order per job, jobs in job order.
        let shared = Mutex::new((FleetStats::new(), sink.unwrap_or(&mut discard)));
        let kept = run_jobs(scheduler.worker_threads(), jobs, |job| {
            let mut rows = Vec::new();
            scheduler.drive(fleet, job, &mut |admitted, row| {
                let mut guard = shared.lock().expect("no worker panicked holding the aggregate");
                let (stats, sink) = &mut *guard;
                stats.observe(&row);
                sink.push(&row)?;
                if collect {
                    rows.push((admitted, row));
                }
                Ok(())
            })?;
            rows.sort_unstable_by_key(|(admitted, _)| *admitted);
            Ok(rows)
        })?;
        let (stats, _) = shared.into_inner().expect("no worker panicked holding the aggregate");
        Ok(FleetRun {
            report: FleetReport { controller: fleet.controller.label(), stats },
            summaries: kept.into_iter().flatten().map(|(_, row)| row).collect(),
        })
    }
}

/// The position of `kind` in [`BackendKind::ALL`], used to index the per-tick
/// batch pools.
fn backend_index(kind: BackendKind) -> usize {
    BackendKind::ALL.iter().position(|k| *k == kind).expect("ALL lists every backend kind")
}

/// A retained pool of feature-row buffers holding one backend's pending
/// classifications for the current lockstep tick.  The first `used` rows are
/// live; `members[r]` is the chunk-local device index that contributed row
/// `r`.
#[derive(Debug, Default)]
struct BatchPool {
    features: Vec<Vec<f64>>,
    members: Vec<usize>,
    used: usize,
}

impl BatchPool {
    /// Empties the pool for the next tick, keeping the row allocations.
    fn reset(&mut self) {
        self.members.clear();
        self.used = 0;
    }

    /// Appends `row` on behalf of device `member`.
    fn push(&mut self, member: usize, row: &[f64]) {
        self.members.push(member);
        if self.used == self.features.len() {
            self.features.push(Vec::new());
        }
        let dst = &mut self.features[self.used];
        dst.clear();
        dst.extend_from_slice(row);
        self.used += 1;
    }

    /// The live rows of this tick.
    fn rows(&self) -> &[Vec<f64>] {
        &self.features[..self.used]
    }
}

/// Runs `jobs` over `threads` workers, each pulling the next owned job from
/// one shared queue, and returns the results in job order.  Once a job fails
/// the workers stop picking up new jobs, and the error of the first failing
/// job in job order is returned.
fn run_jobs<J, T, F>(threads: usize, jobs: Vec<J>, job: F) -> Result<Vec<T>, AdaSenseError>
where
    J: Send,
    T: Send,
    F: Fn(J) -> Result<T, AdaSenseError> + Sync,
{
    let workers = threads.clamp(1, jobs.len().max(1));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let failed = AtomicBool::new(false);
    let mut done: Vec<(usize, Result<T, AdaSenseError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let Some((i, next)) =
                            queue.lock().expect("no worker panicked holding the queue").next()
                        else {
                            break;
                        };
                        let outcome = job(next);
                        failed.fetch_or(outcome.is_err(), Ordering::Relaxed);
                        done.push((i, outcome));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{telemetry_channel, TraceRecorder};
    use crate::scenario::{FaultLevel, RoutinePreset};
    use crate::simulation::tests::shared_system;

    /// The report of a plain run of `fleet` on `threads` workers.
    fn run_report(threads: usize, fleet: &FleetSpec) -> Result<FleetReport, AdaSenseError> {
        let (spec, system) = shared_system();
        let scheduler = FleetScheduler::new(spec, system).with_threads(threads);
        Ok(scheduler.builder().spec(fleet).run()?.report)
    }

    /// The kept rows and report of a collected run of `fleet` on `threads`
    /// workers.
    fn run_rows(threads: usize, fleet: &FleetSpec) -> Result<FleetRun, AdaSenseError> {
        let (spec, system) = shared_system();
        FleetScheduler::new(spec, system)
            .with_threads(threads)
            .builder()
            .spec(fleet)
            .collect()
            .run()
    }

    /// Devices `device_ids` of `fleet` replayed from their recorded streams as
    /// channel-fed external devices numbered from `first_id`.
    fn replayed_feeds(
        fleet: &FleetSpec,
        device_ids: std::ops::Range<u64>,
        first_id: u64,
    ) -> Vec<ExternalDevice> {
        let (spec, system) = shared_system();
        let scheduler = FleetScheduler::new(spec, system);
        device_ids
            .map(|device_id| {
                let plan = fleet.device_plan(device_id);
                let recorder = TraceRecorder::new(scheduler.device_source(fleet, &plan));
                let duration_s = plan.scenario.duration_s();
                let mut runtime =
                    DeviceRuntime::for_source(spec, system, fleet.controller, recorder, duration_s)
                        .unwrap()
                        .with_classifier(system.backend(plan.backend));
                runtime.run_to_completion();
                let trace = runtime.source().trace();
                let (mut sender, source) = telemetry_channel(trace.len() + 1);
                sender.send_trace(trace).unwrap();
                ExternalDevice::new(first_id + device_id, source)
                    .with_metadata(plan.seed, plan.routine)
                    .with_backend(plan.backend)
            })
            .collect()
    }

    #[test]
    fn device_seeds_are_deterministic_and_decorrelated() {
        let a = device_seed(64, 0);
        assert_eq!(a, device_seed(64, 0), "same inputs must give the same seed");
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|id| device_seed(64, id)).collect();
        assert_eq!(seeds.len(), 1000, "consecutive device ids must not collide");
        assert_ne!(device_seed(64, 1), device_seed(65, 1), "base seed must matter");
    }

    #[test]
    fn fleet_runs_are_bit_identical_across_worker_counts() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec { lockstep_devices: 5, ..FleetSpec::new(12, 24.0, 7) };
        let single = run_report(1, &fleet).unwrap();
        for threads in [4, 8] {
            let parallel = run_report(threads, &fleet).unwrap();
            assert_eq!(single, parallel, "{threads}-thread run must be bit-identical");
            assert_eq!(single.encode(), parallel.encode(), "encodings must match bytewise");
        }
        assert_eq!(single.len(), 12);
        let collected = run_rows(0, &fleet).unwrap();
        assert_eq!(collected.report, single, "collecting rows must not change the report");
        assert!(collected.summaries.iter().enumerate().all(|(i, d)| d.device_id == i as u64));
        let plain = FleetScheduler::new(spec, system).builder().spec(&fleet).run().unwrap();
        assert!(plain.summaries.is_empty(), "no collect() means no rows kept");
    }

    #[test]
    fn lockstep_chunking_does_not_change_the_results() {
        let (spec, system) = shared_system();
        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let chunked = scheduler
            .builder()
            .spec(&FleetSpec { lockstep_devices: 3, ..FleetSpec::new(8, 20.0, 11) })
            .run()
            .unwrap()
            .report;
        let unchunked = scheduler
            .builder()
            .spec(&FleetSpec { lockstep_devices: 1, ..FleetSpec::new(8, 20.0, 11) })
            .run()
            .unwrap()
            .report;
        assert_eq!(chunked, unchunked, "batching must not change any device's outcome");
    }

    #[test]
    fn fleet_devices_match_standalone_simulations() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec::new(4, 20.0, 3);
        let run = run_rows(2, &fleet).unwrap();
        for device in &run.summaries {
            let scenario = ScenarioSpec::random(fleet.setting, fleet.duration_s, device.seed);
            let standalone = Simulator::new(spec, system)
                .with_controller(fleet.controller)
                .run(scenario)
                .unwrap();
            assert_eq!(device.accuracy, standalone.accuracy());
            assert_eq!(device.average_current_ua, standalone.average_current_ua());
            assert_eq!(device.duration_s, standalone.duration_s);
        }
    }

    #[test]
    fn intensity_fleet_uses_the_bank_path() {
        let fleet =
            FleetSpec { controller: ControllerKind::IntensityBased, ..FleetSpec::new(3, 12.0, 5) };
        let run = run_rows(2, &fleet).unwrap();
        assert_eq!(run.report.len(), 3);
        assert!(run.summaries.iter().all(|d| d.epochs > 0));
    }

    #[test]
    fn sweep_preserves_job_order() {
        let (spec, system) = shared_system();
        let jobs = vec![
            (ScenarioSpec::sit_then_walk(6.0, 6.0), ControllerKind::StaticHigh),
            (
                ScenarioSpec::sit_then_walk(7.0, 5.0),
                ControllerKind::Spot { stability_threshold: 2 },
            ),
        ];
        let reports = FleetScheduler::new(spec, system).with_threads(2).sweep(&jobs).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].controller, jobs[0].1.label());
        assert_eq!(reports[1].controller, jobs[1].1.label());
        for (report, (scenario, controller)) in reports.iter().zip(&jobs) {
            let serial =
                Simulator::new(spec, system).with_controller(*controller).run(scenario.clone());
            assert_eq!(report, &serial.unwrap());
        }
    }

    #[test]
    fn degenerate_fleets_are_rejected() {
        let (spec, system) = shared_system();
        let scheduler = FleetScheduler::new(spec, system);
        assert!(scheduler.builder().spec(&FleetSpec::new(0, 30.0, 1)).run().is_err());
        assert!(scheduler.builder().spec(&FleetSpec::new(4, 1.0, 1)).run().is_err());
        assert!(scheduler
            .builder()
            .spec(&FleetSpec { lockstep_devices: 0, ..FleetSpec::new(4, 30.0, 1) })
            .run()
            .is_err());
    }

    #[test]
    fn errors_from_jobs_propagate() {
        let (spec, system) = shared_system();
        let jobs = vec![(
            ScenarioSpec::sit_then_walk(0.5, 0.5), // too short: simulation error
            ControllerKind::StaticHigh,
        )];
        assert!(FleetScheduler::new(spec, system).sweep(&jobs).is_err());
    }

    #[test]
    fn channel_fed_cohorts_join_scenario_fleets() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec::new(4, 20.0, 3);
        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let baseline = scheduler.builder().spec(&fleet).collect().run().unwrap();

        // Record every device's stream, then replay the recordings as a
        // channel-fed cohort running alongside the same scenario cohort.
        let mut feeds = Vec::new();
        let mut feeders = Vec::new();
        for device_id in 0..fleet.devices {
            let plan = fleet.device_plan(device_id);
            let recorder = TraceRecorder::new(scheduler.device_source(&fleet, &plan));
            let mut runtime = DeviceRuntime::for_source(
                spec,
                system,
                fleet.controller,
                recorder,
                plan.scenario.duration_s(),
            )
            .unwrap();
            runtime.run_to_completion();
            let trace = runtime.source().trace().clone();
            let (mut tx, source) = telemetry_channel(4);
            feeders.push(std::thread::spawn(move || tx.send_trace(&trace)));
            feeds.push(
                ExternalDevice::new(fleet.devices + device_id, source)
                    .with_metadata(plan.seed, plan.routine.clone())
                    .with_backend(plan.backend),
            );
        }
        let combined = scheduler.builder().spec(&fleet).feeds(feeds).collect().run().unwrap();
        for feeder in feeders {
            feeder.join().expect("feeder thread").expect("all batches accepted");
        }

        assert_eq!(combined.summaries.len(), 2 * baseline.summaries.len());
        assert_eq!(
            combined.summaries[..baseline.summaries.len()],
            baseline.summaries[..],
            "scenario rows must be unchanged by the feed cohort"
        );
        for (scenario_row, feed_row) in
            baseline.summaries.iter().zip(&combined.summaries[baseline.summaries.len()..])
        {
            assert_eq!(feed_row.device_id, scenario_row.device_id + fleet.devices);
            assert_eq!(feed_row.seed, scenario_row.seed);
            assert_eq!(feed_row.routine, scenario_row.routine);
            assert_eq!(feed_row.backend, scenario_row.backend);
            assert_eq!(feed_row.epochs, scenario_row.epochs);
            assert_eq!(feed_row.correct_epochs, scenario_row.correct_epochs);
            assert_eq!(feed_row.accuracy, scenario_row.accuracy);
            assert_eq!(feed_row.average_current_ua, scenario_row.average_current_ua);
            assert_eq!(feed_row.total_charge_uc, scenario_row.total_charge_uc);
            assert_eq!(feed_row.duration_s, scenario_row.duration_s);
            assert_eq!(feed_row.residency_s, scenario_row.residency_s);
            assert_eq!(feed_row.tx_epochs, scenario_row.tx_epochs);
            assert_eq!(feed_row.tx_bytes, scenario_row.tx_bytes);
            assert_eq!(feed_row.tx_charge_uc, scenario_row.tx_charge_uc);
        }
    }

    #[test]
    fn feed_only_fleets_run_with_zero_scenario_devices() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec::new(1, 12.0, 5);
        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let plan = fleet.device_plan(0);
        let recorder = TraceRecorder::new(scheduler.device_source(&fleet, &plan));
        let mut runtime = DeviceRuntime::for_source(
            spec,
            system,
            fleet.controller,
            recorder,
            plan.scenario.duration_s(),
        )
        .unwrap();
        runtime.run_to_completion();
        let epochs = runtime.epochs();
        let trace = runtime.source().trace().clone();

        let (mut tx, source) = telemetry_channel(2);
        let feeder = std::thread::spawn(move || tx.send_trace(&trace));
        let empty = FleetSpec { devices: 0, ..fleet };
        let report = scheduler
            .builder()
            .spec(&empty)
            .feeds(vec![ExternalDevice::new(7, source)])
            .collect()
            .run()
            .expect("feed-only fleets are valid");
        feeder.join().expect("feeder thread").expect("all batches accepted");
        assert_eq!(report.summaries.len(), 1);
        assert_eq!(report.summaries[0].device_id, 7);
        assert_eq!(report.summaries[0].routine, "external");
        assert_eq!(report.summaries[0].epochs, epochs);
    }

    #[test]
    fn fleets_with_no_devices_at_all_are_rejected() {
        let (spec, system) = shared_system();
        let scheduler = FleetScheduler::new(spec, system);
        let empty = FleetSpec { devices: 0, ..FleetSpec::new(1, 12.0, 5) };
        assert!(scheduler.builder().spec(&empty).feeds(Vec::new()).collect().run().is_err());
    }

    #[test]
    fn sharded_runs_merge_into_the_monolithic_report() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec { lockstep_devices: 4, ..FleetSpec::new(12, 20.0, 7) };
        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let monolithic = scheduler.builder().spec(&fleet).run().unwrap().report;
        for shards in [1, 3, 4, 6] {
            let ranges = fleet.shards(shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges.iter().map(ShardRange::len).sum::<u64>(), fleet.devices);
            let mut merged = FleetReport::new(fleet.controller.label());
            for range in ranges {
                let part = scheduler.builder().spec(&fleet).shard(range).run().unwrap().report;
                merged.merge(&part).unwrap();
            }
            assert_eq!(merged, monolithic, "{shards} shards must merge into the monolithic run");
            assert_eq!(merged.encode(), monolithic.encode(), "byte equality at {shards} shards");
        }
    }

    #[test]
    fn sinks_spool_every_row() {
        use crate::shard::{SpoolReader, SpoolWriter};

        let (spec, system) = shared_system();
        let fleet = FleetSpec { lockstep_devices: 3, ..FleetSpec::new(8, 20.0, 11) };
        let scheduler = FleetScheduler::new(spec, system).with_threads(4);
        let mut bytes = Vec::new();
        let mut writer = SpoolWriter::new(&mut bytes).unwrap();
        let report = scheduler
            .builder()
            .spec(&fleet)
            .shard(ShardRange::whole(fleet.devices))
            .sink(&mut writer)
            .run()
            .unwrap()
            .report;
        assert_eq!(writer.rows(), fleet.devices);
        writer.finish().unwrap();

        let mut rows: Vec<DeviceSummary> =
            SpoolReader::new(&bytes[..]).unwrap().collect::<Result<_, _>>().unwrap();
        rows.sort_by_key(|r| r.device_id);
        let collected = scheduler.builder().spec(&fleet).collect().run().unwrap();
        assert_eq!(rows, collected.summaries, "spooled rows must round-trip bit-exactly");
        assert_eq!(report, collected.report);
    }

    #[test]
    fn tx_enabled_fleets_price_every_classified_epoch_deterministically() {
        let fleet =
            FleetSpec { tx_ratio: Some(2), lockstep_devices: 4, ..FleetSpec::new(8, 24.0, 17) };
        let single = run_report(1, &fleet).unwrap();
        let parallel = run_report(4, &fleet).unwrap();
        assert_eq!(single, parallel, "tx fleets must stay worker-count deterministic");
        assert_eq!(single.encode(), parallel.encode(), "encodings must match bytewise");
        // Every classified epoch transmits under exactly one policy.
        assert_eq!(single.stats.tx_epochs.iter().sum::<u64>(), single.total_epochs());
        assert!(single.total_tx_bytes() > 0);
        assert!(single.total_tx_charge_uc() > 0.0);
        let text = single.to_table_string();
        assert!(text.contains("transmission breakdown:"), "missing tx section in:\n{text}");
        // A radio-off fleet keeps the section (and the counters) out entirely.
        let off = run_report(0, &FleetSpec { tx_ratio: None, ..fleet.clone() }).unwrap();
        assert_eq!(off.stats.tx_epochs.iter().sum::<u64>(), 0);
        assert!(!off.to_table_string().contains("transmission breakdown:"));
        // The radio only ever adds charge on top of the sensing cost.
        assert!(single.stats.charge_uc.value() > off.stats.charge_uc.value());
    }

    #[test]
    fn tx_counters_survive_sharding_and_spool_replay() {
        use crate::shard::{SpoolReader, SpoolWriter};

        let (spec, system) = shared_system();
        let fleet =
            FleetSpec { tx_ratio: Some(4), lockstep_devices: 4, ..FleetSpec::new(12, 24.0, 23) };
        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let monolithic = scheduler.builder().spec(&fleet).run().unwrap().report;
        let mut bytes = Vec::new();
        let mut writer = SpoolWriter::new(&mut bytes).unwrap();
        let mut merged = FleetReport::new(fleet.controller.label());
        for range in fleet.shards(3) {
            merged
                .merge(
                    &scheduler
                        .builder()
                        .spec(&fleet)
                        .shard(range)
                        .sink(&mut writer)
                        .run()
                        .unwrap()
                        .report,
                )
                .unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(merged.encode(), monolithic.encode(), "shards must merge bytewise");
        // Replaying the spooled rows rebuilds the identical report, per-policy
        // transmission counters included.
        let mut replayed = FleetReport::new(fleet.controller.label());
        for row in SpoolReader::new(&bytes[..]).unwrap() {
            replayed.observe(&row.unwrap());
        }
        assert_eq!(replayed.encode(), monolithic.encode(), "spool replay must match bytewise");
        assert!(monolithic.stats.tx_epochs.iter().sum::<u64>() > 0);
    }

    #[test]
    fn zero_tx_ratio_is_rejected() {
        let fleet = FleetSpec { tx_ratio: Some(0), ..FleetSpec::new(4, 30.0, 1) };
        assert!(fleet.validate().is_err(), "a zero compression ratio must not validate");
    }

    #[test]
    fn reports_encode_and_decode_round_trip() {
        let fleet = FleetSpec::new(5, 20.0, 9);
        let report = run_report(0, &fleet).unwrap();
        let bytes = report.encode();
        let decoded = FleetReport::decode(&bytes).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(decoded.encode(), bytes, "re-encoding must reproduce the bytes");
        assert!(FleetReport::decode(&bytes[..bytes.len() - 1]).is_err(), "truncation detected");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(FleetReport::decode(&bad).is_err(), "bad magic detected");
    }

    #[test]
    fn reports_for_different_controllers_refuse_to_merge() {
        let mut spot = FleetReport::new("spot");
        let high = FleetReport::new("static-high");
        assert!(spot.merge(&high).is_err());
    }

    #[test]
    fn out_of_range_shards_are_rejected() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec::new(4, 20.0, 3);
        let scheduler = FleetScheduler::new(spec, system);
        let range = ShardRange { start: 0, end: fleet.devices + 1 };
        assert!(scheduler.builder().spec(&fleet).shard(range).run().is_err());
    }

    #[test]
    fn empty_fleet_percentiles_are_nan_not_zero() {
        let empty = FleetReport::new("none");
        assert!(empty.is_empty());
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert!(empty.accuracy_percentile(p).is_nan(), "accuracy p{p} must be NaN");
            assert!(empty.current_percentile(p).is_nan(), "current p{p} must be NaN");
            for config in SensorConfig::paper_pareto_front() {
                assert!(empty.residency_percentile(config, p).is_nan());
            }
        }
        assert!(empty.routine_breakdown().is_empty());
        assert!(empty.mean_accuracy().is_nan());
        assert!(empty.mean_current_ua().is_nan());
        assert!(empty.mean_faulted_fraction().is_nan());
    }

    #[test]
    fn population_fleets_are_bit_identical_across_worker_counts() {
        let fleet = FleetSpec {
            population: crate::scenario::PopulationSpec::mixed(crate::scenario::FaultLevel::Heavy),
            lockstep_devices: 4,
            ..FleetSpec::new(10, 24.0, 13)
        };
        let single = run_report(1, &fleet).unwrap();
        let parallel = run_report(4, &fleet).unwrap();
        assert_eq!(single, parallel, "population fleets must stay worker-count deterministic");
        assert!(
            single.stats.faulted_epochs > 0,
            "a heavy-fault cohort must see fault-exposed epochs"
        );
        let breakdown = single.routine_breakdown();
        assert!(!breakdown.is_empty());
        assert_eq!(breakdown.iter().map(|g| g.devices as u64).sum::<u64>(), single.len());
        assert!(breakdown.iter().all(|g| !g.routine.starts_with("dwell-")));
        let text = single.to_table_string();
        for group in &breakdown {
            assert!(text.contains(&group.routine), "missing {} in:\n{text}", group.routine);
        }
    }

    #[test]
    fn mixed_backend_fleets_are_bit_identical_across_worker_counts() {
        let fleet = FleetSpec {
            population: PopulationSpec::legacy()
                .with_backend(crate::scenario::BackendSpec::half_int8()),
            lockstep_devices: 4,
            ..FleetSpec::new(12, 24.0, 21)
        };
        let single = run_report(1, &fleet).unwrap();
        let parallel = run_report(4, &fleet).unwrap();
        assert_eq!(single, parallel, "mixed-backend fleets must stay worker-count deterministic");
        let backends: Vec<&str> = single.stats.backends.keys().map(String::as_str).collect();
        assert_eq!(
            backends,
            vec!["f64", "int8"],
            "a half-int8 cohort of 12 devices should realize both backends"
        );
        let breakdown = single.backend_breakdown();
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown.iter().map(|g| g.devices as u64).sum::<u64>(), single.len());
        assert!(breakdown.iter().all(|g| g.epochs > 0));
        let text = single.to_table_string();
        assert!(text.contains("per-backend breakdown:"), "missing backend section in:\n{text}");
        assert!(text.contains("int8"), "missing int8 group in:\n{text}");
    }

    #[test]
    fn cascade_cohort_fleets_are_bit_identical_across_worker_counts() {
        let fleet = FleetSpec {
            population: PopulationSpec::legacy()
                .with_backend(crate::scenario::BackendSpec::half_cascade()),
            lockstep_devices: 4,
            ..FleetSpec::new(12, 24.0, 21)
        };
        let single = run_report(1, &fleet).unwrap();
        let parallel = run_report(4, &fleet).unwrap();
        assert_eq!(single, parallel, "cascade cohorts must stay worker-count deterministic");
        assert_eq!(single.encode(), parallel.encode(), "encodings must match bytewise");
        let backends: Vec<&str> = single.stats.backends.keys().map(String::as_str).collect();
        assert_eq!(backends, vec!["cascade", "f64"]);
        // Every cascade epoch lands in exactly one stage counter.
        let cascade_epochs = single.stats.backends["cascade"].epochs;
        assert_eq!(
            single.total_early_exit_epochs() + single.total_escalated_epochs(),
            cascade_epochs,
            "stage counters must partition the cascade group's epochs"
        );
        assert!(cascade_epochs > 0);
        let text = single.to_table_string();
        assert!(text.contains("cascade: exit rate"), "missing cascade section in:\n{text}");
    }

    #[test]
    fn cascade_fleet_devices_match_standalone_cascade_simulations() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec {
            population: PopulationSpec::legacy()
                .with_backend(crate::scenario::BackendSpec::Uniform(BackendKind::Cascade)),
            ..FleetSpec::new(3, 20.0, 3)
        };
        let run = run_rows(2, &fleet).unwrap();
        for device in &run.summaries {
            assert_eq!(device.backend, "cascade");
            assert_eq!(
                device.early_exit_epochs + device.escalated_epochs,
                device.epochs,
                "every cascade epoch exits at exactly one stage"
            );
            assert!(device.early_exit_correct <= device.early_exit_epochs);
            assert!(device.escalated_correct <= device.escalated_epochs);
            assert_eq!(device.early_exit_correct + device.escalated_correct, device.correct_epochs);
            let scenario = ScenarioSpec::random(fleet.setting, fleet.duration_s, device.seed);
            let standalone = Simulator::new(spec, system)
                .with_controller(fleet.controller)
                .with_classifier(system.cascade_classifier())
                .run(scenario)
                .unwrap();
            assert_eq!(device.accuracy, standalone.accuracy());
            assert_eq!(device.average_current_ua, standalone.average_current_ua());
        }
    }

    #[test]
    fn int8_fleet_devices_match_standalone_quantized_simulations() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec {
            population: PopulationSpec::legacy()
                .with_backend(crate::scenario::BackendSpec::Uniform(BackendKind::Int8)),
            ..FleetSpec::new(3, 20.0, 3)
        };
        let run = run_rows(2, &fleet).unwrap();
        for device in &run.summaries {
            assert_eq!(device.backend, "int8");
            let scenario = ScenarioSpec::random(fleet.setting, fleet.duration_s, device.seed);
            let standalone = Simulator::new(spec, system)
                .with_controller(fleet.controller)
                .with_classifier(system.quantized_classifier())
                .run(scenario)
                .unwrap();
            assert_eq!(device.accuracy, standalone.accuracy());
            assert_eq!(device.average_current_ua, standalone.average_current_ua());
        }
    }

    #[test]
    fn backend_assignment_does_not_perturb_the_rest_of_the_device_stream() {
        // Switching a cohort's backend must change classifications only —
        // seeds, routines and schedules (and thus durations) stay identical.
        let base = FleetSpec::new(6, 20.0, 17);
        let f64_fleet = run_rows(0, &base).unwrap();
        let int8_fleet = run_rows(
            0,
            &FleetSpec {
                population: PopulationSpec::legacy()
                    .with_backend(crate::scenario::BackendSpec::Uniform(BackendKind::Int8)),
                ..base
            },
        )
        .unwrap();
        for (a, b) in f64_fleet.summaries.iter().zip(&int8_fleet.summaries) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.routine, b.routine);
            assert_eq!(a.duration_s, b.duration_s);
            assert_eq!(a.epochs, b.epochs);
        }
    }

    #[test]
    fn empty_fleet_table_prints_dashes_not_fabricated_zeros() {
        let empty = FleetReport::new("none");
        let text = empty.to_table_string();
        assert!(text.contains('-'), "NaN statistics must render as `-`:\n{text}");
        assert!(!text.contains("NaN"), "raw NaN must not leak into the table:\n{text}");
        assert!(!text.contains("0.0"), "an empty fleet must not fabricate zeros:\n{text}");
        assert!(empty.backend_breakdown().is_empty());
    }

    #[test]
    fn invalid_backend_mixes_are_rejected() {
        let mut fleet = FleetSpec::new(2, 20.0, 1);
        fleet.population.backend = crate::scenario::BackendSpec::Mixed { int8_fraction: 1.5 };
        assert!(run_report(0, &fleet).is_err());
    }

    #[test]
    fn legacy_population_reproduces_the_historic_fleet() {
        let fleet = FleetSpec::new(4, 20.0, 3);
        assert_eq!(fleet.population, crate::scenario::PopulationSpec::legacy());
        let run = run_rows(2, &fleet).unwrap();
        for device in &run.summaries {
            assert_eq!(device.routine, "dwell-Medium");
            assert_eq!(device.faulted_epochs, 0, "legacy populations are fault-free");
        }
    }

    #[test]
    fn invalid_populations_are_rejected() {
        let mut fleet = FleetSpec::new(4, 30.0, 1);
        fleet.population.prior.mix = vec![(crate::scenario::RoutinePreset::OfficeDay, -2.0)];
        assert!(run_report(0, &fleet).is_err());
    }

    #[test]
    fn report_rendering_mentions_every_spot_state() {
        let (spec, system) = shared_system();
        let report = FleetScheduler::new(spec, system)
            .with_threads(2)
            .builder()
            .spec(&FleetSpec::new(4, 20.0, 9))
            .run();
        let text = report.unwrap().report.to_table_string();
        for config in SensorConfig::paper_pareto_front() {
            assert!(text.contains(&config.label()), "missing {config} in:\n{text}");
        }
    }

    #[test]
    fn builder_without_a_spec_is_rejected() {
        let (spec, system) = shared_system();
        let err = FleetScheduler::new(spec, system).builder().run().unwrap_err();
        assert!(err.to_string().contains("fleet spec"), "unexpected error: {err}");
    }

    #[test]
    fn builder_composes_shard_sink_and_collect() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec::new(6, 20.0, 7);
        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let whole = scheduler.builder().spec(&fleet).collect().run().unwrap();

        // Sharded + collected + spooled in one run.
        let range = ShardRange { start: 2, end: 5 };
        let mut spool = Vec::new();
        let shard = {
            let mut sink = crate::shard::SpoolWriter::new(&mut spool).unwrap();
            let run = scheduler
                .builder()
                .spec(&fleet)
                .shard(range)
                .sink(&mut sink)
                .collect()
                .run()
                .unwrap();
            sink.finish().unwrap();
            run
        };
        assert_eq!(shard.summaries.len(), 3);
        let expected: Vec<DeviceSummary> = whole
            .summaries
            .iter()
            .filter(|row| (range.start..range.end).contains(&row.device_id))
            .cloned()
            .collect();
        assert_eq!(shard.summaries, expected, "collected rows are the shard's, in id order");
        let spooled: Vec<DeviceSummary> =
            crate::shard::SpoolReader::new(&spool[..]).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(spooled.len(), 3, "the sink saw the same rows");
        assert_eq!(
            shard.report,
            scheduler.builder().spec(&fleet).shard(range).run().unwrap().report
        );
    }

    #[test]
    fn feed_and_intake_fleets_validate_the_whole_spec() {
        let (spec, system) = shared_system();
        let scheduler = FleetScheduler::new(spec, system);
        let feed_only = FleetSpec { devices: 0, tx_ratio: Some(0), ..FleetSpec::new(1, 12.0, 5) };
        let (_, source) = telemetry_channel(1);
        let err = scheduler.builder().spec(&feed_only).feed(ExternalDevice::new(7, source)).run();
        assert!(err.unwrap_err().to_string().contains("tx_ratio"), "feed-only fleets are checked");
        let (_, intake) = std::sync::mpsc::channel();
        assert!(scheduler.builder().spec(&feed_only).intake(intake).run().is_err());
        // The duration bounds scenario devices only.
        let short = FleetSpec { tx_ratio: None, duration_s: 0.0, ..feed_only };
        let (_, source) = telemetry_channel(1);
        assert!(scheduler
            .builder()
            .spec(&short)
            .feed(ExternalDevice::new(7, source))
            .run()
            .is_ok());
    }

    #[test]
    fn scenario_feed_and_intake_cohorts_share_one_run() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec { lockstep_devices: 3, ..FleetSpec::new(4, 20.0, 29) };
        let feed_only = FleetSpec { devices: 0, ..fleet.clone() };
        let feeds = || replayed_feeds(&fleet, 0..3, 100);
        let arrivals = || {
            let (sender, intake) = std::sync::mpsc::channel();
            for device in replayed_feeds(&fleet, 1..4, 200) {
                sender.send(device).unwrap();
            }
            intake
        };
        let combined = |threads| {
            let scheduler = FleetScheduler::new(spec, system).with_threads(threads);
            scheduler.builder().spec(&fleet).feeds(feeds()).intake(arrivals()).collect().run()
        };
        let single = combined(1).unwrap();
        let ids: Vec<u64> = single.summaries.iter().map(|row| row.device_id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 100, 101, 102, 201, 202, 203], "scenario, feed, intake order");
        assert_eq!(combined(4).unwrap().report.encode(), single.report.encode());

        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let mut merged = scheduler.builder().spec(&fleet).run().unwrap().report;
        let fed = scheduler.builder().spec(&feed_only).feeds(feeds()).run().unwrap().report;
        let joined = scheduler.builder().spec(&feed_only).intake(arrivals()).run().unwrap().report;
        merged.merge(&fed).unwrap();
        merged.merge(&joined).unwrap();
        assert_eq!(merged.encode(), single.report.encode(), "one run must equal the merged parts");
    }

    #[test]
    fn fault_exposure_reaches_every_scenario_row() {
        let (spec, system) = shared_system();
        let fleet = FleetSpec {
            population: PopulationSpec::single(RoutinePreset::OfficeDay, FaultLevel::Heavy),
            lockstep_devices: 3,
            ..FleetSpec::new(6, 30.0, 41)
        };
        let scheduler = FleetScheduler::new(spec, system).with_threads(2);
        let run = scheduler.builder().spec(&fleet).collect().run().unwrap();
        for row in &run.summaries {
            let plan = fleet.device_plan(row.device_id);
            let source = scheduler.device_source(&fleet, &plan);
            let duration_s = plan.scenario.duration_s();
            let mut standalone =
                DeviceRuntime::for_source(spec, system, fleet.controller, source, duration_s)
                    .unwrap()
                    .with_classifier(system.backend(plan.backend));
            standalone.run_to_completion();
            assert_eq!(row.faulted_epochs, standalone.source().faulted_captures());
        }
        assert!(run.summaries.iter().any(|row| row.faulted_epochs > 0), "heavy faults must show");
    }
}
