//! The streaming per-device closed loop of AdaSense (Figs. 1 & 3).
//!
//! [`DeviceRuntime`] is the paper's loop — buffer → features → classify →
//! controller → reconfigure — extracted from the batch simulator so it can advance
//! **one tick at a time**.  The same runtime serves three drivers:
//!
//! * batch simulation ([`Simulator`](crate::simulation::Simulator) is now a thin
//!   loop over [`DeviceRuntime::step`]),
//! * the fleet scheduler ([`crate::fleet`]), which ticks many devices in lockstep
//!   and batches their classifier calls, and
//! * future streaming ingestion / hardware replay, by implementing
//!   [`SampleSource`] over a live sample feed.
//!
//! The runtime is allocation-free per tick: the sensed window, the per-axis
//! feature scratch and the feature vector all live in reusable buffers, and
//! per-configuration residency is accounted in a fixed array indexed by
//! [`SensorConfig::index`] instead of a map keyed by label strings.

use adasense_data::{Activity, ActivityTrace};
use adasense_dsp::{IntensityEstimator, ProjectionScratch, SparseProjection};
use adasense_ml::{CascadeStage, Classifier, Prediction};
use adasense_sensor::{
    Accelerometer, Charge, EnergyModel, NoiseModel, RadioModel, Sample3, SensorConfig, TxPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::controller::{ControllerInput, ControllerKind, SensorController};
use crate::error::AdaSenseError;
use crate::simulation::{EpochRecord, ScenarioSpec, SimulationReport};
use crate::training::{ExperimentSpec, TrainedSystem};

/// The classification window every runtime senses per tick, in seconds (the
/// paper buffers 2 seconds).  [`crate::fleet::FleetSpec::validate`] checks
/// against the same constant.
pub const WINDOW_S: f64 = 2.0;

/// The epoch (tick) length, in seconds (the paper classifies once per second).
pub const EPOCH_S: f64 = 1.0;

/// Offset subtracted from an epoch's end time when querying its ground truth,
/// re-exported from the data substrate so trace recorders and label exporters
/// sample the exact instants the runtime scores against.
pub use adasense_data::EPOCH_LABEL_OFFSET_S;

/// Provides the sensor data a [`DeviceRuntime`] consumes.
///
/// Implementors are the "world" a device lives in: the closed-loop simulator uses
/// [`ScenarioSource`] (a scheduled activity timeline played through the simulated
/// accelerometer); a hardware-replay source would page recorded IMU data instead.
///
/// # Examples
///
/// A source can be as small as a constant signal with a constant ground truth —
/// useful for hardware bring-up tests:
///
/// ```
/// use adasense::runtime::SampleSource;
/// use adasense_data::Activity;
/// use adasense_sensor::{Sample3, SensorConfig};
///
/// struct StillSubject;
///
/// impl SampleSource for StillSubject {
///     fn capture_window(
///         &mut self,
///         config: SensorConfig,
///         t_end: f64,
///         window_s: f64,
///         out: &mut Vec<Sample3>,
///     ) {
///         out.clear();
///         let n = (window_s * config.frequency.hz()) as usize;
///         let dt = 1.0 / config.frequency.hz();
///         out.extend((0..n).map(|i| Sample3::new(t_end - window_s + i as f64 * dt, 0.0, 0.0, 1.0)));
///     }
///
///     fn ground_truth(&self, _t_s: f64) -> Option<Activity> {
///         Some(Activity::LieDown)
///     }
/// }
///
/// let mut source = StillSubject;
/// let mut window = Vec::new();
/// source.capture_window(SensorConfig::paper_pareto_front()[0], 2.0, 2.0, &mut window);
/// assert_eq!(window.len(), 200); // 2 s at 100 Hz
/// assert_eq!(source.ground_truth(1.0), Some(Activity::LieDown));
/// ```
pub trait SampleSource {
    /// Senses the window `[t_end - window_s, t_end)` under `config` into `out`.
    ///
    /// `out` is cleared first and its allocation reused across ticks.
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    );

    /// The ground-truth activity at time `t_s` (used to score predictions).
    ///
    /// The runtime queries an instant just *inside* the epoch
    /// (`t_end - `[`EPOCH_LABEL_OFFSET_S`]), so sources defined over
    /// `[0, duration)` never see an out-of-range query while being driven.
    /// Must return `Some` for every driven tick.
    fn ground_truth(&self, t_s: f64) -> Option<Activity>;

    /// The source's delivery status, checked by the runtime at the *start* of
    /// every tick.
    ///
    /// Once a source reports [`SourceStatus::Exhausted`], the runtime
    /// finishes the epoch gracefully — [`DeviceRuntime::begin_tick`] returns
    /// [`TickPhase::Exhausted`] without accounting charge or residency for a
    /// tick that never happened, and [`DeviceRuntime::is_complete`] turns
    /// `true` — instead of padding the remaining timeline with silence.
    ///
    /// Live-feed sources (a [`ChannelSource`](crate::ingest::ChannelSource),
    /// whether an in-process producer or the ingestion reactor fills it)
    /// report [`SourceStatus::Ready`] while the peer may still deliver and
    /// [`SourceStatus::Exhausted`] once end-of-stream has been signalled and
    /// every delivered window consumed; the method takes `&mut self` so they
    /// may block on — and stash — the next frame to learn whether one exists.
    /// Purely synthetic sources like [`ScenarioSource`] report
    /// [`SourceStatus::Endless`] instead of `Ready`: they fabricate a window
    /// for any requested instant, so only the runtime's own tick budget can
    /// bound a run over them (a safety property
    /// [`DeviceRuntime::run_to_completion`] checks up front).
    ///
    /// The default is [`SourceStatus::Ready`] — a plain source that delivers
    /// whatever it is asked for, for as long as it is driven.
    fn status(&mut self) -> SourceStatus {
        SourceStatus::Ready
    }
}

/// What a [`SampleSource`] reports about its ability to keep delivering
/// windows — the return of [`SampleSource::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// The source can deliver more windows (or is willing to wait for them).
    Ready,
    /// The source has permanently run out of windows: the runtime finishes
    /// the epoch gracefully and stops.
    Exhausted,
    /// The source synthesizes a window for any requested instant and can
    /// never exhaust; open-ended loops over it would spin forever.
    Endless,
}

impl<S: SampleSource + ?Sized> SampleSource for Box<S> {
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        (**self).capture_window(config, t_end, window_s, out);
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        (**self).ground_truth(t_s)
    }

    fn status(&mut self) -> SourceStatus {
        (**self).status()
    }
}

/// A [`SampleSource`] that plays a [`ScenarioSpec`] through the simulated
/// accelerometer — the source behind every closed-loop simulation.
#[derive(Debug, Clone)]
pub struct ScenarioSource {
    trace: ActivityTrace,
    noise_rng: StdRng,
    energy: EnergyModel,
    noise: NoiseModel,
}

impl ScenarioSource {
    /// Realizes `scenario` with the subject-variation and noise seeds derived from
    /// `scenario.seed`, using the sensor models of `spec`.
    pub fn new(spec: &ExperimentSpec, scenario: &ScenarioSpec) -> Self {
        let mut trace_rng = StdRng::seed_from_u64(scenario.seed.wrapping_add(1));
        let trace = ActivityTrace::from_schedule(scenario.schedule.clone(), &mut trace_rng);
        let noise_rng = StdRng::seed_from_u64(scenario.seed.wrapping_add(2));
        Self {
            trace,
            noise_rng,
            energy: spec.dataset.energy_model,
            noise: spec.dataset.noise_model,
        }
    }
}

impl SampleSource for ScenarioSource {
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        let accel =
            Accelerometer::new(config).with_energy_model(self.energy).with_noise_model(self.noise);
        accel.capture_into(&self.trace, t_end - window_s, window_s, &mut self.noise_rng, out);
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        self.trace.activity_at(t_s)
    }

    fn status(&mut self) -> SourceStatus {
        SourceStatus::Endless
    }
}

/// What one call to [`DeviceRuntime::step`] produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickResult {
    /// End time of the tick, in seconds.
    pub t_s: f64,
    /// Sensor configuration active during the tick.
    pub config: SensorConfig,
    /// Sensor charge consumed during the tick.
    pub charge: Charge,
    /// The classification record, or `None` while the first window is filling.
    pub record: Option<EpochRecord>,
}

/// Outcome of [`DeviceRuntime::begin_tick`]: either the tick completed without a
/// classification (first window still filling), or a window was sensed and the
/// caller must supply a prediction via [`DeviceRuntime::complete_tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TickPhase {
    /// The tick is already complete — no classification was due.
    Idle(TickResult),
    /// A window was sensed and featurized; classification is pending.  Read the
    /// features with [`DeviceRuntime::pending_features`] and finish the tick with
    /// [`DeviceRuntime::complete_tick`].
    Classify,
    /// The source reported end-of-stream before the tick started: nothing was
    /// sensed or accounted, and the runtime is now
    /// [complete](DeviceRuntime::is_complete).
    Exhausted,
}

/// A classification awaiting its prediction between `begin_tick` and
/// `complete_tick`.
#[derive(Debug, Clone, Copy)]
struct PendingTick {
    config: SensorConfig,
    t_end: f64,
    charge: Charge,
}

/// Transmission configuration for a device, opted into with
/// [`DeviceRuntime::with_tx`].  Without it the runtime models sensing energy
/// only, exactly as before — every existing driver is unaffected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxSetup {
    /// The radio energy model pricing every transmitted payload.
    pub radio: RadioModel,
    /// Compression ratio of the sparse random projection behind
    /// [`TxPolicy::Compressed`] payloads (samples per transmitted coefficient).
    pub ratio: u32,
    /// Base seed mixed with the tick index to derive each window's projection
    /// seed (use the device seed so fleet devices project independently).
    pub seed: u64,
}

impl TxSetup {
    /// Transmission over the calibrated BLE radio with projection `ratio`.
    pub fn ble(ratio: u32) -> Self {
        Self { radio: RadioModel::ble(), ratio, seed: 0 }
    }

    /// Replaces the base projection seed (mixed per window).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-policy accounting of what a transmission-enabled device sent: epochs,
/// payload bytes and radio charge, each indexed by [`TxPolicy::index`].  Plain
/// counter addition makes the tally mergeable across devices and shards, like
/// [`CascadeTally`].  All counters stay zero when the device has no
/// [`TxSetup`], so the tally doubles as a "did this device transmit" marker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TxTally {
    /// Classified epochs transmitted under each policy.
    pub epochs: [u64; TxPolicy::COUNT],
    /// Payload bytes (length prefix + frame) sent under each policy.
    pub bytes: [u64; TxPolicy::COUNT],
    /// Radio charge in µC spent under each policy.
    pub charge_uc: [f64; TxPolicy::COUNT],
}

/// Scratch state of a transmission-enabled device: the tally plus reusable
/// projection buffers, so the compressed path allocates nothing per tick once
/// warmed up.
#[derive(Debug, Default)]
struct TxState {
    tally: TxTally,
    axis: Vec<f64>,
    measurements: Vec<f64>,
    recon: Vec<f64>,
    scratch: ProjectionScratch,
}

/// The per-second closed loop of one simulated wearable, advanced tick by tick.
///
/// Construct with [`DeviceRuntime::for_scenario`] (finite, scenario-driven) or
/// [`DeviceRuntime::new`] (open-ended, any [`SampleSource`]), then either call
/// [`step`](DeviceRuntime::step) in a loop, or split each tick into
/// [`begin_tick`](DeviceRuntime::begin_tick) /
/// [`complete_tick`](DeviceRuntime::complete_tick) to batch classifier calls
/// across many devices (see [`crate::fleet`]).
///
/// The inference backend defaults to the trained system's full-precision
/// unified [`Mlp`](adasense_ml::Mlp); swap in any other object-safe
/// [`Classifier`] — for example the int8
/// [`QuantizedMlp`](adasense_ml::QuantizedMlp) — with
/// [`with_classifier`](DeviceRuntime::with_classifier).
pub struct DeviceRuntime<'a, S: SampleSource> {
    source: S,
    system: &'a TrainedSystem,
    classifier: &'a dyn Classifier,
    controller: Box<dyn SensorController>,
    controller_label: String,
    intensity_estimator: IntensityEstimator,
    energy: EnergyModel,
    use_bank: bool,
    window_s: f64,
    epoch_s: f64,
    total_ticks: Option<usize>,
    record_epochs: bool,
    // Per-tick state and reusable buffers.
    ticks: usize,
    exhausted: bool,
    pending: Option<PendingTick>,
    window: Vec<Sample3>,
    features: Vec<f64>,
    tx_setup: Option<TxSetup>,
    tx: TxState,
    // Accumulators.
    records: Vec<EpochRecord>,
    epochs: usize,
    correct: usize,
    cascade: CascadeTally,
    total_charge: Charge,
    residency_s: [f64; SensorConfig::COUNT],
}

/// Per-stage accounting of an early-exit cascade backend: how many epochs
/// exited at the cheap first stage versus escalated to the full model, and how
/// many of each were classified correctly.  All four counters stay zero for
/// single-stage backends (every epoch reports [`CascadeStage::Single`]), so
/// the tally doubles as a "did this device run a cascade" marker.  Plain
/// counter addition makes the tally mergeable across devices and shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CascadeTally {
    /// Epochs the first stage answered (margin at or above the threshold).
    pub early_exit_epochs: usize,
    /// Early-exit epochs classified correctly.
    pub early_exit_correct: usize,
    /// Epochs escalated to the full second stage.
    pub escalated_epochs: usize,
    /// Escalated epochs classified correctly.
    pub escalated_correct: usize,
}

impl CascadeTally {
    /// Folds one classified epoch into the tally.
    fn observe(&mut self, stage: CascadeStage, correct: bool) {
        match stage {
            CascadeStage::Single => {}
            CascadeStage::EarlyExit => {
                self.early_exit_epochs += 1;
                self.early_exit_correct += usize::from(correct);
            }
            CascadeStage::Escalated => {
                self.escalated_epochs += 1;
                self.escalated_correct += usize::from(correct);
            }
        }
    }
}

impl<'a, S: SampleSource> DeviceRuntime<'a, S> {
    /// Creates an open-ended runtime over `source` with the paper's 2-second
    /// window and 1-second epoch.  The runtime reports completion only when the
    /// source reports [`SourceStatus::Exhausted`]); drive it
    /// with [`step`](DeviceRuntime::step) for as long as the source has data.
    pub fn new(
        spec: &'a ExperimentSpec,
        system: &'a TrainedSystem,
        controller: ControllerKind,
        source: S,
    ) -> Self {
        let mut built = controller.build(spec);
        built.reset();
        Self {
            source,
            system,
            classifier: system.unified_classifier(),
            controller: built,
            controller_label: controller.label(),
            intensity_estimator: IntensityEstimator::calibrated(),
            energy: spec.dataset.energy_model,
            use_bank: matches!(controller, ControllerKind::IntensityBased),
            window_s: WINDOW_S,
            epoch_s: EPOCH_S,
            total_ticks: None,
            record_epochs: true,
            ticks: 0,
            exhausted: false,
            pending: None,
            window: Vec::new(),
            features: Vec::new(),
            tx_setup: None,
            tx: TxState::default(),
            records: Vec::new(),
            epochs: 0,
            correct: 0,
            cascade: CascadeTally::default(),
            total_charge: Charge::ZERO,
            residency_s: [0.0; SensorConfig::COUNT],
        }
    }

    /// Creates a *finite* runtime over any [`SampleSource`], running for
    /// `duration_s` simulated seconds.  This is how decorated sources (for
    /// example a [`crate::scenario::FaultInjector`] wrapping a
    /// [`ScenarioSource`]) are driven to completion by the fleet scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Simulation`] if `duration_s` is shorter than one
    /// classification window.
    pub fn for_source(
        spec: &'a ExperimentSpec,
        system: &'a TrainedSystem,
        controller: ControllerKind,
        source: S,
        duration_s: f64,
    ) -> Result<Self, AdaSenseError> {
        let mut runtime = Self::new(spec, system, controller, source);
        if duration_s < runtime.window_s {
            return Err(AdaSenseError::simulation(format!(
                "the source lasts {duration_s} s which is shorter than one {} s window",
                runtime.window_s
            )));
        }
        runtime.total_ticks = Some((duration_s / runtime.epoch_s).floor() as usize);
        Ok(runtime)
    }

    /// Enables or disables storing per-epoch [`EpochRecord`]s (enabled by
    /// default).  Fleet-scale runs disable recording to keep memory per device
    /// constant; the accuracy/power/residency accumulators are unaffected.
    pub fn with_recording(mut self, record_epochs: bool) -> Self {
        self.record_epochs = record_epochs;
        self
    }

    /// Replaces the inference backend this device classifies with (the trained
    /// system's full-precision unified classifier by default).  The intensity
    /// baseline ignores this and keeps its per-configuration bank.
    pub fn with_classifier(mut self, classifier: &'a dyn Classifier) -> Self {
        self.classifier = classifier;
        self
    }

    /// Enables transmission modelling: every classified epoch the controller's
    /// [`TxPolicy`](crate::controller::SensorController::tx_policy) prices a
    /// payload against `setup.radio`, the charge joins the tick's energy and
    /// the per-policy [`TxTally`] counters, and
    /// [`TxPolicy::Compressed`] epochs classify the window *as the host would
    /// see it* — projected through the seeded sparse random projection and
    /// reconstructed — so the accuracy cost of compression is part of the
    /// closed loop, not an afterthought.
    pub fn with_tx(mut self, setup: TxSetup) -> Self {
        self.tx_setup = Some(setup);
        self
    }

    /// The sample source this runtime is consuming (for example to read fault
    /// exposure counters off a [`crate::scenario::FaultInjector`] after a run).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Number of ticks advanced so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Simulated time elapsed, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.ticks as f64 * self.epoch_s
    }

    /// Whether the runtime has finished: a finite runtime has consumed all its
    /// ticks, or the source reported end-of-stream
    /// (see [`SampleSource::status`]).
    pub fn is_complete(&self) -> bool {
        self.exhausted || self.total_ticks.is_some_and(|n| self.ticks >= n)
    }

    /// Number of classified epochs so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Number of correctly classified epochs so far.
    pub fn correct_epochs(&self) -> usize {
        self.correct
    }

    /// Per-stage exit and accuracy counters of this device's cascade epochs
    /// (all zero when the backend has no cascade structure).
    pub fn cascade_tally(&self) -> CascadeTally {
        self.cascade
    }

    /// Per-policy transmission counters (all zero without
    /// [`with_tx`](DeviceRuntime::with_tx)).
    pub fn tx_tally(&self) -> TxTally {
        self.tx.tally
    }

    /// Total sensor charge consumed so far.
    pub fn total_charge(&self) -> Charge {
        self.total_charge
    }

    /// Seconds spent in each configuration, indexed by [`SensorConfig::index`].
    pub fn residency_seconds(&self) -> &[f64; SensorConfig::COUNT] {
        &self.residency_s
    }

    /// The label of the controller driving this device.
    pub fn controller_label(&self) -> &str {
        &self.controller_label
    }

    /// Whether this device classifies every window with its unified inference
    /// backend — i.e. whether its pending classification may be batched with
    /// other devices of the same backend through
    /// [`Classifier::predict_batch_into`].  The intensity-based baseline
    /// switches among per-configuration bank classifiers and must be
    /// classified per device.
    pub fn batches_with_unified(&self) -> bool {
        !self.use_bank
    }

    /// Phase 1 of a tick: accounts charge and residency for the configuration the
    /// controller selected, senses the last window (once the first window has
    /// filled) and extracts its features.
    ///
    /// # Panics
    ///
    /// Panics if the previous tick's classification is still pending.
    pub fn begin_tick(&mut self) -> TickPhase {
        assert!(self.pending.is_none(), "complete_tick must resolve the previous tick first");
        if self.exhausted || self.source.status() == SourceStatus::Exhausted {
            // A finite external feed ran dry: finish the epoch gracefully —
            // no charge, residency or silent padding for a tick that never
            // happened.
            self.exhausted = true;
            return TickPhase::Exhausted;
        }
        let config = self.controller.config();
        let mut charge = self.energy.charge_over(config, self.epoch_s);
        self.residency_s[config.index()] += self.epoch_s;

        self.ticks += 1;
        let t_end = self.ticks as f64 * self.epoch_s;
        if t_end + 1e-9 < self.window_s {
            // Still filling the first buffer.
            self.total_charge += charge;
            return TickPhase::Idle(TickResult { t_s: t_end, config, charge, record: None });
        }

        self.source.capture_window(config, t_end, self.window_s, &mut self.window);
        if let Some(setup) = self.tx_setup {
            charge += self.transmit_window(&setup);
        }
        self.total_charge += charge;
        self.system.extractor().extract_into(
            &self.window,
            config.frequency.hz(),
            &mut self.features,
        );
        self.pending = Some(PendingTick { config, t_end, charge });
        TickPhase::Classify
    }

    /// Prices the captured window under the controller's transmission policy,
    /// folds the payload into the per-policy tally, and — for compressed
    /// payloads — replaces the window with what the host reconstructs from the
    /// projected measurements, so the classifier judges exactly the data the
    /// receiving side would.  Returns the radio charge of the payload.
    fn transmit_window(&mut self, setup: &TxSetup) -> Charge {
        let policy = self.controller.tx_policy();
        let n = self.window.len();
        let bytes = match policy {
            TxPolicy::Raw => crate::ingest::raw_tx_bytes(n),
            TxPolicy::Features => crate::ingest::features_tx_bytes(),
            TxPolicy::Compressed => crate::ingest::compressed_tx_bytes(n, setup.ratio),
        };
        let tx_charge = setup.radio.tx_charge(bytes);
        self.tx.tally.epochs[policy.index()] += 1;
        self.tx.tally.bytes[policy.index()] += bytes as u64;
        self.tx.tally.charge_uc[policy.index()] += tx_charge.micro_coulombs();
        if policy == TxPolicy::Compressed && n > 0 {
            let seed = crate::ingest::compressed_frame_seed(setup.seed, self.ticks as u64);
            let projection = SparseProjection::new(seed, n, setup.ratio);
            self.tx.axis.resize(n, 0.0);
            self.tx.measurements.resize(projection.output_len(), 0.0);
            self.tx.recon.resize(n, 0.0);
            for axis_index in 0..3 {
                for (slot, sample) in self.tx.axis.iter_mut().zip(self.window.iter()) {
                    *slot = match axis_index {
                        0 => sample.x,
                        1 => sample.y,
                        _ => sample.z,
                    };
                }
                projection.project_into(&self.tx.axis, &mut self.tx.measurements);
                projection.reconstruct_into(
                    &self.tx.measurements,
                    self.window_s,
                    &mut self.tx.recon,
                    &mut self.tx.scratch,
                );
                for (sample, value) in self.window.iter_mut().zip(self.tx.recon.iter()) {
                    match axis_index {
                        0 => sample.x = *value,
                        1 => sample.y = *value,
                        _ => sample.z = *value,
                    }
                }
            }
        }
        tx_charge
    }

    /// The feature vector of the pending classification.
    ///
    /// # Panics
    ///
    /// Panics if no classification is pending.
    pub fn pending_features(&self) -> &[f64] {
        assert!(self.pending.is_some(), "no classification is pending");
        &self.features
    }

    /// The inference backend that must judge the pending window: the device's
    /// unified backend, or the per-configuration bank model when simulating
    /// the intensity baseline.
    ///
    /// # Panics
    ///
    /// Panics if no classification is pending.
    pub fn active_classifier(&self) -> &dyn Classifier {
        let pending = self.pending.as_ref().expect("no classification is pending");
        if self.use_bank {
            self.system
                .bank_classifier(pending.config)
                .map(|m| &m.model as &dyn Classifier)
                .unwrap_or(self.classifier)
        } else {
            self.classifier
        }
    }

    /// Phase 2 of a tick: scores `prediction` against the ground truth and feeds
    /// the result to the controller, which picks the configuration for the next
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if no classification is pending, or if the source cannot provide
    /// ground truth for the driven instant.
    pub fn complete_tick(&mut self, prediction: Prediction) -> TickResult {
        self.complete_tick_staged(prediction, CascadeStage::Single)
    }

    /// [`complete_tick`](DeviceRuntime::complete_tick) with the cascade stage
    /// that produced `prediction`, so per-stage exit-rate and accuracy
    /// counters ([`cascade_tally`](DeviceRuntime::cascade_tally)) stay exact.
    /// The stage never influences the closed loop — only the accounting.
    ///
    /// # Panics
    ///
    /// Panics if no classification is pending, or if the source cannot provide
    /// ground truth for the driven instant.
    pub fn complete_tick_staged(
        &mut self,
        prediction: Prediction,
        stage: CascadeStage,
    ) -> TickResult {
        let PendingTick { config, t_end, charge } =
            self.pending.take().expect("begin_tick must return TickPhase::Classify first");
        let predicted = Activity::from_index(prediction.class).unwrap_or(Activity::Sit);
        let actual = self
            .source
            .ground_truth(t_end - EPOCH_LABEL_OFFSET_S)
            .expect("the sample source provides ground truth for every driven tick");
        let correct = predicted == actual;
        let record = EpochRecord {
            t_s: t_end,
            config,
            current_ua: self.energy.current_ua(config),
            predicted,
            actual,
            confidence: prediction.confidence,
            correct,
        };
        self.epochs += 1;
        if correct {
            self.correct += 1;
        }
        self.cascade.observe(stage, correct);
        if self.record_epochs {
            self.records.push(record);
        }
        self.controller.observe(&ControllerInput {
            predicted,
            confidence: prediction.confidence,
            intensity_g_per_s: self.intensity_estimator.intensity(&self.window),
            escalated: stage == CascadeStage::Escalated,
        });
        TickResult { t_s: t_end, config, charge, record: Some(record) }
    }

    /// Advances the closed loop by one epoch: sense, classify, score, let the
    /// controller reconfigure the sensor.  Returns `None` — without sensing or
    /// accounting anything — once the source reports end-of-stream (the
    /// runtime is then [complete](DeviceRuntime::is_complete)).
    pub fn step(&mut self) -> Option<TickResult> {
        match self.begin_tick() {
            TickPhase::Exhausted => None,
            TickPhase::Idle(result) => Some(result),
            TickPhase::Classify => {
                let (prediction, stage) =
                    self.active_classifier().predict_with_stage(&self.features);
                Some(self.complete_tick_staged(prediction, stage))
            }
        }
    }

    /// Steps the runtime until [`DeviceRuntime::is_complete`]: a finite
    /// runtime runs down its tick budget, and any runtime stops early when its
    /// source reports end-of-stream.
    ///
    /// # Panics
    ///
    /// Panics if the runtime is open-ended over a source that declares
    /// itself [`SourceStatus::Endless`] ([`ScenarioSource`] and any decorator
    /// around it) — such a loop would spin forever; bound the runtime with
    /// [`for_source`](DeviceRuntime::for_source) instead.
    pub fn run_to_completion(&mut self) {
        assert!(
            self.total_ticks.is_some() || self.source.status() != SourceStatus::Endless,
            "run_to_completion requires a tick budget or an exhaustible source"
        );
        while !self.is_complete() {
            if self.step().is_none() {
                break;
            }
        }
    }

    /// Classification accuracy over the epochs classified so far (0–1).
    pub fn accuracy(&self) -> f64 {
        if self.epochs == 0 {
            return 0.0;
        }
        self.correct as f64 / self.epochs as f64
    }

    /// Average sensor current over the elapsed time, in µA.
    pub fn average_current_ua(&self) -> f64 {
        self.total_charge.average_current_ua(self.elapsed_s())
    }

    /// Snapshots the run so far as a [`SimulationReport`].
    pub fn report(&self) -> SimulationReport {
        SimulationReport {
            controller: self.controller_label.clone(),
            records: self.records.clone(),
            total_charge: self.total_charge,
            duration_s: self.elapsed_s(),
            seconds_in_config: crate::simulation::residency_map(&self.residency_s),
        }
    }

    /// Consumes the runtime, returning the final [`SimulationReport`].
    pub fn into_report(self) -> SimulationReport {
        SimulationReport {
            controller: self.controller_label,
            records: self.records,
            total_charge: self.total_charge,
            duration_s: self.ticks as f64 * self.epoch_s,
            seconds_in_config: crate::simulation::residency_map(&self.residency_s),
        }
    }
}

impl<'a> DeviceRuntime<'a, ScenarioSource> {
    /// Creates a finite runtime that plays `scenario` through the simulated
    /// accelerometer — the configuration behind every closed-loop simulation and
    /// every fleet device.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Simulation`] if the scenario is empty or shorter
    /// than one classification window.
    pub fn for_scenario(
        spec: &'a ExperimentSpec,
        system: &'a TrainedSystem,
        controller: ControllerKind,
        scenario: &ScenarioSpec,
    ) -> Result<Self, AdaSenseError> {
        if scenario.schedule.is_empty() {
            return Err(AdaSenseError::simulation("the scenario schedule is empty"));
        }
        let source = ScenarioSource::new(spec, scenario);
        Self::for_source(spec, system, controller, source, scenario.duration_s())
    }
}

impl<S: SampleSource + std::fmt::Debug> std::fmt::Debug for DeviceRuntime<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceRuntime")
            .field("source", &self.source)
            .field("controller", &self.controller_label)
            .field("ticks", &self.ticks)
            .field("total_ticks", &self.total_ticks)
            .field("epochs", &self.epochs)
            .field("correct", &self.correct)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{tests::shared_system, Simulator};

    #[test]
    fn stepping_a_runtime_matches_the_batch_simulator() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(12.0, 12.0);
        let controller = ControllerKind::Spot { stability_threshold: 3 };

        let batch = Simulator::new(spec, system).with_controller(controller).run(scenario.clone());
        let batch = batch.expect("simulation runs");

        let mut runtime = DeviceRuntime::for_scenario(spec, system, controller, &scenario)
            .expect("runtime builds");
        let mut tick_records = Vec::new();
        while !runtime.is_complete() {
            let tick = runtime.step().expect("scenario sources never exhaust");
            if let Some(record) = tick.record {
                tick_records.push(record);
            }
        }
        let streamed = runtime.into_report();

        assert_eq!(streamed, batch, "streaming must be bit-identical to the batch run");
        assert_eq!(tick_records, batch.records, "per-tick records must match the report");
    }

    #[test]
    fn split_phase_ticking_matches_step() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(8.0, 8.0);
        let controller = ControllerKind::SpotWithConfidence {
            stability_threshold: 2,
            confidence_threshold: 0.85,
        };

        let mut stepped = DeviceRuntime::for_scenario(spec, system, controller, &scenario).unwrap();
        stepped.run_to_completion();

        let mut split = DeviceRuntime::for_scenario(spec, system, controller, &scenario).unwrap();
        while !split.is_complete() {
            match split.begin_tick() {
                TickPhase::Exhausted => unreachable!("scenario sources never exhaust"),
                TickPhase::Idle(tick) => assert!(tick.record.is_none()),
                TickPhase::Classify => {
                    assert!(split.batches_with_unified());
                    let features = split.pending_features().to_vec();
                    let prediction = system.unified_classifier().predict(&features);
                    let tick = split.complete_tick(prediction);
                    assert!(tick.record.is_some());
                }
            }
        }
        assert_eq!(split.into_report(), stepped.into_report());
    }

    #[test]
    fn recording_can_be_disabled_without_changing_the_aggregates() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(10.0, 10.0);
        let controller = ControllerKind::Spot { stability_threshold: 2 };

        let mut with = DeviceRuntime::for_scenario(spec, system, controller, &scenario).unwrap();
        with.run_to_completion();
        let mut without = DeviceRuntime::for_scenario(spec, system, controller, &scenario)
            .unwrap()
            .with_recording(false);
        without.run_to_completion();

        assert_eq!(with.epochs(), without.epochs());
        assert_eq!(with.correct_epochs(), without.correct_epochs());
        assert_eq!(with.total_charge(), without.total_charge());
        assert_eq!(with.residency_seconds(), without.residency_seconds());
        assert_eq!(with.accuracy(), without.accuracy());
        assert_eq!(with.average_current_ua(), without.average_current_ua());
        assert!(without.into_report().records.is_empty());
    }

    #[test]
    fn intensity_baseline_uses_the_bank_and_cannot_batch() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(6.0, 6.0);
        let runtime =
            DeviceRuntime::for_scenario(spec, system, ControllerKind::IntensityBased, &scenario)
                .unwrap();
        assert!(!runtime.batches_with_unified());
    }

    /// A source that serves a fixed number of constant windows and then
    /// signals end-of-stream, like a finite external feed.
    struct FiniteFeed {
        windows_left: usize,
    }

    impl SampleSource for FiniteFeed {
        fn capture_window(
            &mut self,
            config: SensorConfig,
            t_end: f64,
            window_s: f64,
            out: &mut Vec<Sample3>,
        ) {
            assert!(self.windows_left > 0, "the runtime must not capture past exhaustion");
            self.windows_left -= 1;
            out.clear();
            let n = (window_s * config.frequency.hz()) as usize;
            let dt = 1.0 / config.frequency.hz();
            out.extend(
                (0..n).map(|i| Sample3::new(t_end - window_s + i as f64 * dt, 0.0, 0.0, 1.0)),
            );
        }

        fn ground_truth(&self, _t_s: f64) -> Option<Activity> {
            Some(Activity::LieDown)
        }

        fn status(&mut self) -> SourceStatus {
            if self.windows_left == 0 {
                SourceStatus::Exhausted
            } else {
                SourceStatus::Ready
            }
        }
    }

    #[test]
    fn exhausted_sources_finish_the_epoch_gracefully() {
        let (spec, system) = shared_system();
        let controller = ControllerKind::Spot { stability_threshold: 3 };

        // 5 windows feed ticks 2..=6 (tick 1 fills the first buffer), so the
        // runtime must stop after 6 ticks without padding with silence.
        let mut runtime =
            DeviceRuntime::new(spec, system, controller, FiniteFeed { windows_left: 5 });
        assert!(!runtime.is_complete());
        runtime.run_to_completion();
        assert!(runtime.is_complete());
        assert_eq!(runtime.ticks(), 6, "ticks stop at the last delivered window");
        assert_eq!(runtime.epochs(), 5, "every delivered window is classified exactly once");
        assert_eq!(runtime.elapsed_s(), 6.0);

        // Once exhausted, further stepping is a no-op that keeps reporting
        // completion — no charge or residency is accounted for phantom ticks.
        let charge = runtime.total_charge();
        assert_eq!(runtime.step(), None);
        assert!(matches!(runtime.begin_tick(), TickPhase::Exhausted));
        assert_eq!(runtime.total_charge(), charge);
        assert_eq!(runtime.ticks(), 6);
        let report = runtime.into_report();
        assert_eq!(report.duration_s, 6.0);
        assert_eq!(report.records.len(), 5);
    }

    #[test]
    fn an_immediately_exhausted_source_yields_an_empty_run() {
        let (spec, system) = shared_system();
        let mut runtime = DeviceRuntime::new(
            spec,
            system,
            ControllerKind::StaticHigh,
            FiniteFeed { windows_left: 0 },
        );
        runtime.run_to_completion();
        assert!(runtime.is_complete());
        assert_eq!(runtime.ticks(), 0);
        assert_eq!(runtime.epochs(), 0);
        assert_eq!(runtime.total_charge(), Charge::ZERO);
    }

    #[test]
    #[should_panic(expected = "tick budget or an exhaustible source")]
    fn open_ended_scenario_runtimes_refuse_run_to_completion() {
        // ScenarioSource synthesizes windows forever; running it open-ended
        // to "completion" would spin, so it must panic up front.
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(6.0, 6.0);
        let source = ScenarioSource::new(spec, &scenario);
        DeviceRuntime::new(spec, system, ControllerKind::StaticHigh, source).run_to_completion();
    }

    #[test]
    fn exhaustion_also_ends_a_finite_runtime_early() {
        let (spec, system) = shared_system();
        // A 20 s budget over a feed that dries up after 3 windows: the runtime
        // must finish at tick 4, not at the budget.
        let mut runtime = DeviceRuntime::for_source(
            spec,
            system,
            ControllerKind::StaticHigh,
            FiniteFeed { windows_left: 3 },
            20.0,
        )
        .expect("runtime builds");
        runtime.run_to_completion();
        assert_eq!(runtime.ticks(), 4);
        assert_eq!(runtime.epochs(), 3);
    }

    #[test]
    fn tx_disabled_runtimes_report_a_zero_tally() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(8.0, 8.0);
        let controller = ControllerKind::Spot { stability_threshold: 2 };
        let mut runtime = DeviceRuntime::for_scenario(spec, system, controller, &scenario).unwrap();
        runtime.run_to_completion();
        assert_eq!(runtime.tx_tally(), TxTally::default());
    }

    #[test]
    fn tx_charges_every_classified_epoch_exactly_once() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(10.0, 10.0);
        let controller = ControllerKind::Spot { stability_threshold: 2 };

        let mut plain = DeviceRuntime::for_scenario(spec, system, controller, &scenario).unwrap();
        plain.run_to_completion();

        let setup = TxSetup::ble(4).with_seed(99);
        let mut tx = DeviceRuntime::for_scenario(spec, system, controller, &scenario)
            .unwrap()
            .with_tx(setup);
        tx.run_to_completion();

        let tally = tx.tx_tally();
        assert_eq!(tally.epochs.iter().sum::<u64>(), tx.epochs() as u64);
        let radio_uc: f64 = tally.charge_uc.iter().sum();
        assert!(radio_uc > 0.0);
        // Radio charge is what separates the two total-charge figures as long
        // as every epoch stayed on Raw/Features payloads (identical windows);
        // with compressed epochs the trajectories may diverge, so only check
        // the exact split when none occurred.
        if tally.epochs[TxPolicy::Compressed.index()] == 0 {
            let sensing_uc = tx.total_charge().micro_coulombs() - radio_uc;
            assert!((sensing_uc - plain.total_charge().micro_coulombs()).abs() < 1e-6);
        }
    }

    #[test]
    fn spot_transmission_settles_off_raw_payloads() {
        let (spec, system) = shared_system();
        // A long single-activity scenario: SPOT settles, so the raw-payload
        // epochs must be a small prefix and cheaper policies must dominate.
        let scenario = ScenarioSpec::sit_then_walk(60.0, 1.0);
        let controller = ControllerKind::Spot { stability_threshold: 2 };
        let mut runtime = DeviceRuntime::for_scenario(spec, system, controller, &scenario)
            .unwrap()
            .with_tx(TxSetup::ble(4).with_seed(7));
        runtime.run_to_completion();
        let tally = runtime.tx_tally();
        let raw = tally.epochs[TxPolicy::Raw.index()];
        let local =
            tally.epochs[TxPolicy::Features.index()] + tally.epochs[TxPolicy::Compressed.index()];
        assert!(raw > 0, "the pessimistic prior starts on raw payloads");
        assert!(local > raw, "a settled stream must mostly ship local payloads");
        // Per-epoch byte cost must be ordered raw > features > compressed.
        let mean = |policy: TxPolicy| {
            let i = policy.index();
            if tally.epochs[i] == 0 {
                return f64::NAN;
            }
            tally.bytes[i] as f64 / tally.epochs[i] as f64
        };
        let raw_mean = mean(TxPolicy::Raw);
        for cheaper in [mean(TxPolicy::Features), mean(TxPolicy::Compressed)] {
            if cheaper.is_finite() {
                assert!(cheaper < raw_mean);
            }
        }
    }

    #[test]
    fn tx_runs_are_deterministic() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(20.0, 20.0);
        let controller = ControllerKind::SpotWithConfidence {
            stability_threshold: 2,
            confidence_threshold: 0.85,
        };
        let run = |seed: u64| {
            let mut runtime = DeviceRuntime::for_scenario(spec, system, controller, &scenario)
                .unwrap()
                .with_tx(TxSetup::ble(2).with_seed(seed));
            runtime.run_to_completion();
            (runtime.tx_tally(), runtime.report())
        };
        let (tally_a, report_a) = run(5);
        let (tally_b, report_b) = run(5);
        assert_eq!(tally_a, tally_b);
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn degenerate_scenarios_are_rejected() {
        let (spec, system) = shared_system();
        let controller = ControllerKind::StaticHigh;
        let empty = ScenarioSpec::from_schedule(adasense_data::ActivitySchedule::default(), 0);
        assert!(DeviceRuntime::for_scenario(spec, system, controller, &empty).is_err());
        let short = ScenarioSpec::sit_then_walk(0.5, 0.5);
        assert!(DeviceRuntime::for_scenario(spec, system, controller, &short).is_err());
    }
}
