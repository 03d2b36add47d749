//! # adasense
//!
//! Reproduction of **AdaSense: Adaptive Low-Power Sensing and Activity Recognition
//! for Wearable Devices** (Neseem, Nelson, Reda — DAC 2020).
//!
//! AdaSense reduces the power consumption of a wearable's accelerometer by
//! dynamically switching among sensor configurations (sampling frequency ×
//! averaging window) as a function of how *stable* the user's activity is, while a
//! single classifier — fed by a configuration-independent feature vector — keeps
//! recognizing the activity.
//!
//! This crate is the top of the reproduction stack.  It combines the substrates
//! ([`adasense_sensor`], [`adasense_data`], [`adasense_dsp`], [`adasense_ml`]) into:
//!
//! * [`pipeline`] — the HAR pipeline of Fig. 1: buffer → unified feature extraction
//!   → classifier.
//! * [`training`] — dataset construction and training of the unified classifier and
//!   of per-configuration classifier banks (used by the baselines).
//! * [`controller`] — the adaptive sensing policies: SPOT, SPOT with confidence,
//!   the static high-power baseline and the intensity-based approach of NK et
//!   al. \[8\].
//! * [`pareto`] / [`dse`] — the sensor-configuration design-space exploration of
//!   Fig. 2 and Pareto-front extraction.
//! * [`simulation`] — the closed-loop simulator: a scheduled user activity stream is
//!   sensed under the controller-selected configuration, classified every second,
//!   and the sensor's charge consumption is accounted per configuration residency.
//! * [`scenario`] — the scenario library: daily-routine scripts, population-level
//!   activity priors and sensor-fault injection, wired through the fleet scheduler
//!   via [`FleetSpec::population`](fleet::FleetSpec::population).
//! * [`ingest`] — live telemetry ingestion: the versioned binary wire format
//!   (`docs/WIRE_FORMAT.md`), the channel-backed [`SampleSource`] that both
//!   in-process producers and the socket reactor feed, and trace
//!   recording/replay, so the same closed loop runs over real device feeds.
//! * [`shard`] — sharded million-device fleets: order-independent exact sums and
//!   mergeable quantile sketches behind [`FleetReport`],
//!   chunk-aligned device-range shard plans, and the on-disk device-summary
//!   spool that keeps fleet memory bounded (the `fleet_shard` coordinator
//!   proves sharded == monolithic byte-for-byte).
//! * [`experiments`] — one runner per paper table/figure (Table I, Fig. 2, Fig. 5,
//!   Fig. 6a/6b, Fig. 7, and the memory comparison), producing printable reports.
//!
//! # Quick start
//!
//! ```
//! use adasense::prelude::*;
//!
//! # fn main() -> Result<(), AdaSenseError> {
//! // Train the HAR system on a small synthetic dataset (use
//! // `ExperimentSpec::paper()` for the full-size configuration).
//! let spec = ExperimentSpec::quick();
//! let system = TrainedSystem::train(&spec)?;
//!
//! // Simulate two minutes of "sit then walk" under the SPOT controller.
//! let report = Simulator::new(&spec, &system)
//!     .with_controller(ControllerKind::Spot { stability_threshold: 9 })
//!     .run(ScenarioSpec::sit_then_walk(60.0, 60.0))?;
//!
//! println!(
//!     "accuracy {:.1}%, average sensor current {:.1} µA",
//!     100.0 * report.accuracy(),
//!     report.average_current_ua()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod codec;
pub mod controller;
pub mod dse;
pub mod error;
pub mod experiments;
pub mod export;
pub mod fleet;
pub mod ingest;
pub mod pareto;
pub mod pipeline;
pub mod runtime;
pub mod scenario;
pub mod shard;
pub mod simulation;
pub mod training;

pub use controller::{ControllerInput, ControllerKind, SensorController, SpotController};
pub use dse::{
    ConfigEvaluation, DesignSpaceExploration, DseReport, TxDseReport, TxEvaluation, TxExploration,
};
pub use error::AdaSenseError;
pub use fleet::{
    BackendBreakdown, DeviceSummary, ExternalDevice, FleetReport, FleetRun, FleetRunBuilder,
    FleetScheduler, FleetSpec, RoutineBreakdown,
};
#[cfg(unix)]
pub use ingest::{
    reactor::{IngestReactor, ReactorHandle, ReactorStats, UNIX_ADDR_SCHEME},
    serve::{ServeStats, TelemetryServe},
};
pub use ingest::{
    telemetry_channel, ChannelSource, FrameDecoder, FrameEncoder, FrameKind, ReconnectPolicy,
    StreamParser, TelemetrySender, TelemetryTrace, TraceRecorder,
};
pub use pareto::pareto_front;
pub use pipeline::{ClassifiedBatch, HarPipeline};
pub use runtime::{
    DeviceRuntime, SampleSource, ScenarioSource, SourceStatus, TickPhase, TickResult, TxSetup,
    TxTally,
};
pub use scenario::{
    BackendSpec, DeviceProfile, FaultInjector, FaultLevel, FaultPlan, FaultProfile, FaultWindow,
    PopulationPrior, PopulationSpec, RoutinePreset, RoutineScript,
};
pub use shard::{
    DiscardSink, ExactSum, FleetStats, GroupStat, MetricStat, QuantileSketch, ShardRange,
    SpoolReader, SpoolWriter, SummarySink,
};
pub use simulation::{EpochRecord, ScenarioSpec, SimulationReport, Simulator};
pub use training::{ExperimentSpec, TrainedSystem};

/// Convenience re-exports of the most commonly used items, including the substrate
/// types needed to drive them.
pub mod prelude {
    pub use crate::controller::{
        ControllerInput, ControllerKind, IntensityBasedController, SensorController,
        SpotController, StaticController,
    };
    pub use crate::dse::{
        ConfigEvaluation, DesignSpaceExploration, DseReport, TxDseReport, TxEvaluation,
        TxExploration,
    };
    pub use crate::error::AdaSenseError;
    pub use crate::experiments;
    pub use crate::fleet::{
        BackendBreakdown, DeviceSummary, ExternalDevice, FleetReport, FleetRun, FleetRunBuilder,
        FleetScheduler, FleetSpec, RoutineBreakdown,
    };
    #[cfg(unix)]
    pub use crate::ingest::{
        reactor::{IngestReactor, ReactorHandle, ReactorStats, UNIX_ADDR_SCHEME},
        serve::{ServeStats, TelemetryServe},
    };
    pub use crate::ingest::{
        telemetry_channel, ChannelSource, FrameDecoder, FrameEncoder, FrameKind, ReconnectPolicy,
        StreamParser, TelemetrySender, TelemetryTrace, TraceRecorder,
    };
    pub use crate::pareto::pareto_front;
    pub use crate::pipeline::{ClassifiedBatch, HarPipeline};
    pub use crate::runtime::{
        DeviceRuntime, SampleSource, ScenarioSource, SourceStatus, TickPhase, TickResult, TxSetup,
        TxTally,
    };
    pub use crate::scenario::{
        BackendSpec, DeviceProfile, FaultInjector, FaultLevel, FaultPlan, FaultProfile,
        FaultWindow, PopulationPrior, PopulationSpec, RoutinePreset, RoutineScript,
    };
    pub use crate::shard::{
        DiscardSink, ExactSum, FleetStats, QuantileSketch, ShardRange, SpoolReader, SpoolWriter,
        SummarySink,
    };
    pub use crate::simulation::{EpochRecord, ScenarioSpec, SimulationReport, Simulator};
    pub use crate::training::{ExperimentSpec, TrainedSystem};
    pub use adasense_data::prelude::*;
    pub use adasense_dsp::prelude::*;
    pub use adasense_ml::prelude::*;
    pub use adasense_sensor::prelude::*;
}
