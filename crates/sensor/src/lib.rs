//! # adasense-sensor
//!
//! Simulated accelerometer front-end for the AdaSense (DAC 2020) reproduction.
//!
//! The paper evaluates AdaSense on a Bosch BMI160 inertial measurement unit driven by
//! a TI CC2640R2F MCU.  That hardware is not available here, so this crate provides a
//! behavioural model of the relevant parts of such an IMU:
//!
//! * [`config`] — the sensor *configurations*: sampling frequency × averaging window
//!   combinations (Table I of the paper), and the operation mode (normal vs
//!   low-power) each combination implies.
//! * [`energy`] — a duty-cycle current model: in low-power mode the sensor only wakes
//!   long enough to take `averaging_window` internal samples per output sample, so
//!   both the sampling frequency *and* the averaging window determine current draw.
//! * [`noise`] — an averaging-dependent measurement noise model: smaller averaging
//!   windows give noisier outputs.
//! * [`sample`] — the 3-axis sample type and helpers.
//! * [`fault`] — transient fault transforms (dropout, stuck axes, noise bursts)
//!   applied to captured windows by the scenario layer's fault injector.
//! * [`telemetry`] — the decoded telemetry frame payload ([`TelemetryBatch`]):
//!   one configuration-tagged, ground-truth-labelled sample window per
//!   classification epoch, as streamed off-device by the ingestion layer.
//! * [`accelerometer`] — the simulated sensor itself: given a continuous analog
//!   [`SignalSource`] it produces the digital sample stream that a real IMU would,
//!   including under-sampling, averaging and noise.
//!
//! # Example
//!
//! ```
//! use adasense_sensor::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! /// A constant-gravity source: the device is lying flat.
//! struct Flat;
//! impl SignalSource for Flat {
//!     fn sample(&self, _t: f64) -> [f64; 3] {
//!         [0.0, 0.0, 1.0]
//!     }
//! }
//!
//! let config = SensorConfig::new(SamplingFrequency::F100, AveragingWindow::A128);
//! let accel = Accelerometer::new(config);
//! let mut rng = StdRng::seed_from_u64(7);
//! let samples = accel.capture(&Flat, 0.0, 2.0, &mut rng);
//! assert_eq!(samples.len(), 200); // 2 seconds at 100 Hz
//! assert!(accel.current_ua() > 100.0); // normal-mode current
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accelerometer;
pub mod config;
pub mod energy;
pub mod fault;
pub mod noise;
pub mod sample;
pub mod telemetry;

pub use accelerometer::{box_average_by_sampling, Accelerometer, SignalSource};
pub use config::{AveragingWindow, OperationMode, SamplingFrequency, SensorConfig};
pub use energy::{Charge, EnergyModel, RadioModel, TxPolicy, SUPPLY_VOLTS};
pub use fault::FaultKind;
pub use noise::NoiseModel;
pub use sample::Sample3;
pub use telemetry::{ClassLabel, TelemetryBatch};

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::accelerometer::{Accelerometer, SignalSource};
    pub use crate::config::{AveragingWindow, OperationMode, SamplingFrequency, SensorConfig};
    pub use crate::energy::{Charge, EnergyModel, RadioModel, TxPolicy, SUPPLY_VOLTS};
    pub use crate::fault::FaultKind;
    pub use crate::noise::NoiseModel;
    pub use crate::sample::Sample3;
    pub use crate::telemetry::{ClassLabel, TelemetryBatch};
}
