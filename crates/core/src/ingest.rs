//! Live telemetry ingestion: the binary wire format and the [`SampleSource`]s
//! that replay it into a [`DeviceRuntime`](crate::runtime::DeviceRuntime).
//!
//! The closed loop of the paper is driven by *whatever implements
//! [`SampleSource`]*.  Until now that was only the simulated
//! [`ScenarioSource`](crate::runtime::ScenarioSource); this module adds the
//! production path — real device traffic streamed off-device for scoring and
//! adaptation, as in compressed-sensing telemetry pipelines for remote health
//! monitoring:
//!
//! * **Wire format** — a compact, versioned, little-endian binary framing of
//!   [`TelemetryBatch`]es (spec in `docs/WIRE_FORMAT.md`): [`FrameEncoder`]
//!   writes header / batch / end-of-stream frames into a reused buffer,
//!   [`FrameDecoder`] reads them back from a blocking reader with full
//!   validation, [`StreamParser`] does the same for bytes pushed in
//!   fragments, and [`TelemetryTrace`] bundles a whole recorded session.
//!   Both decode frames through one function that reads every field with the
//!   crate's bounds-checked byte cursor (the same cursor reads ADSR reports
//!   and ADSP spools).
//! * **[`ChannelSource`]** — a bounded in-process ring buffer
//!   ([`telemetry_channel`]): the producer half ([`TelemetrySender`]) blocks
//!   when the ring is full, giving natural backpressure; dropping it signals
//!   end-of-stream.  Every live device runtime reads one of these, whether
//!   an in-process producer or the reactor fills it.
//! * **[`TraceRecorder`]** — a decorator that records everything a wrapped
//!   source delivers (windows *and* the ground-truth labels the runtime will
//!   score against) so any simulated run — including fault-injected ones —
//!   can be exported and replayed bit-identically.
//! * **[`reactor`]** *(Unix)* — the socket ingestion path: one thread
//!   readiness-polls thousands of nonblocking TCP or Unix-domain sockets,
//!   decodes frames incrementally with [`StreamParser`], hands complete
//!   batches to channel-fed fleet devices, and rides out torn connections
//!   with the RESUME handshake under a [`ReconnectPolicy`].
//! * **[`serve`]** *(Unix)* — the matching server: one thread serves a whole
//!   simulated fleet's recorded traces as live per-device socket streams
//!   (the `telemetry_serve` binary), with server-side frame resume.
//!
//! The acceptance bar for this layer is **determinism**: replaying a recorded
//! trace through the reactor must reproduce the originating run's
//! [`DeviceSummary`](crate::fleet::DeviceSummary) rows bit for bit (gated in
//! CI by the `telemetry_replay` binary).  That works because the runtime's
//! control decisions are pure functions of the sample stream, and the wire
//! format preserves every `f64` bit pattern exactly.

use std::io::{Read, Write};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Duration;

use adasense_data::{Activity, EPOCH_LABEL_OFFSET_S};
use adasense_dsp::{ProjectionScratch, SparseProjection, FEATURE_DIM};
use adasense_sensor::{Sample3, SensorConfig, TelemetryBatch};

use crate::codec::{ByteCursor, Format};
use crate::error::AdaSenseError;
use crate::runtime::{SampleSource, SourceStatus};

#[cfg(unix)]
pub mod reactor;
#[cfg(unix)]
pub mod serve;

/// Magic bytes opening every telemetry stream.
pub const WIRE_MAGIC: [u8; 4] = *b"ADSN";

/// Wire-format version this build writes (see `docs/WIRE_FORMAT.md` for the
/// versioning rules).  v2 added the RESUME frame kind; v3 added the
/// COMPRESSED batch frame (a seeded sparse-projection payload); v4 added the
/// JOIN handshake frame (device id + initial configuration + start epoch)
/// that opens a served device stream for fleet-churn bookkeeping.  Streams of
/// older versions — which by construction contain none of the newer frame
/// kinds — decode identically, so readers accept all of them.
pub const WIRE_VERSION: u16 = 4;

/// Wire-format versions readers accept.  Every frame an older stream can
/// carry means the same thing in v4, so accepting all of them costs nothing;
/// anything else is rejected (no minor-version negotiation).
const ACCEPTED_VERSIONS: [u16; 4] = [1, 2, 3, WIRE_VERSION];

/// The ADSN telemetry format, as its cursor and header check see it.
static ADSN: Format = Format {
    magic: WIRE_MAGIC,
    versions: &ACCEPTED_VERSIONS,
    error: |reason| AdaSenseError::Ingest { reason },
};

/// Frame-kind tag of a sample batch.
const KIND_BATCH: u8 = 0x01;
/// Frame-kind tag of the end-of-stream marker.
const KIND_END: u8 = 0x02;
/// Frame-kind tag of a shard's encoded fleet report (the shard→coordinator
/// transport of the `fleet_shard` binary).
const KIND_REPORT: u8 = 0x03;
/// Frame-kind tag of a resume request (client→server on reconnect; v2).
const KIND_RESUME: u8 = 0x04;
/// Frame-kind tag of a compressed sample batch: a seeded sparse random
/// projection of the window instead of its raw samples (v3).
const KIND_COMPRESSED: u8 = 0x05;
/// Frame-kind tag of the JOIN handshake that opens a served device stream
/// (v4): device id, the device's initial sensor configuration, and the fleet
/// epoch at which the device joined the cohort.
const KIND_JOIN: u8 = 0x06;

/// Exact payload length of a RESUME frame: kind byte + `device_id` + the
/// index of the next batch the client wants.
const RESUME_PAYLOAD_LEN: usize = 1 + 8 + 8;
/// Exact payload length of a JOIN frame: kind byte + `device_id` + the
/// configuration tag + `start_epoch`.
const JOIN_PAYLOAD_LEN: usize = 1 + 8 + 1 + 8;

/// Fixed part of a batch payload: kind, config, label, reserved byte, two
/// `f64` times and the `u32` sample count.
const BATCH_HEAD_LEN: usize = 4 + 8 + 8 + 4;
/// Encoded size of one sample (four little-endian `f64`s).
const SAMPLE_LEN: usize = 32;
/// Fixed part of a compressed-batch payload: the batch head fields plus the
/// `u32` per-axis measurement count and the `u64` projection seed.
const COMPRESSED_HEAD_LEN: usize = BATCH_HEAD_LEN + 4 + 8;
/// Encoded size of one per-axis measurement triple (three little-endian
/// `f64`s — timestamps are not transmitted; the decoder regenerates a uniform
/// grid from `t_end`, `window_s` and the sample count).
const MEASUREMENT_LEN: usize = 24;
/// Upper bound on a frame payload, enforced by the decoder (rejecting
/// corrupt length prefixes before any allocation) and by the encoder
/// (refusing to produce a frame the decoder would reject).  The largest
/// legitimate batch (2 s at 100 Hz) is ~6.3 KiB; 1 MiB leaves two orders of
/// magnitude of headroom for future formats.
pub const MAX_FRAME_LEN: usize = 1 << 20;
/// Upper bound on a report frame payload.  An encoded
/// [`FleetReport`](crate::fleet::FleetReport) scales with the population's
/// *diversity* (sketch buckets × routine/backend groups), not its device
/// count — a million-device report measures well under a megabyte — so
/// 64 MiB rejects corrupt length prefixes while leaving orders of magnitude
/// of headroom.
pub const MAX_REPORT_FRAME_LEN: usize = 64 << 20;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes wire-format frames into an internal buffer that is reused across
/// calls, so a steady-state producer allocates nothing per frame.
///
/// # Examples
///
/// Encode a stream and decode it back:
///
/// ```
/// use adasense::ingest::{FrameDecoder, FrameEncoder, FrameKind};
/// use adasense_sensor::{Sample3, SensorConfig, TelemetryBatch};
///
/// let batch = TelemetryBatch::new(
///     SensorConfig::paper_pareto_front()[0],
///     2.0,
///     2.0,
///     0,
///     vec![Sample3::new(0.0, 0.0, 0.0, 1.0)],
/// );
///
/// let mut encoder = FrameEncoder::new();
/// let mut stream = Vec::new();
/// stream.extend_from_slice(encoder.header());
/// stream.extend_from_slice(encoder.batch(&batch));
/// stream.extend_from_slice(encoder.end(1));
///
/// let mut decoder = FrameDecoder::new();
/// let mut reader = &stream[..];
/// decoder.read_header(&mut reader).unwrap();
/// let mut decoded = TelemetryBatch::placeholder();
/// assert_eq!(decoder.read_frame(&mut reader, &mut decoded).unwrap(), FrameKind::Batch);
/// assert_eq!(decoded, batch);
/// assert_eq!(
///     decoder.read_frame(&mut reader, &mut decoded).unwrap(),
///     FrameKind::End { batches: 1 }
/// );
/// ```
#[derive(Debug, Default)]
pub struct FrameEncoder {
    buf: Vec<u8>,
    /// Per-axis scratch for [`compressed`](FrameEncoder::compressed): the
    /// de-interleaved axis samples and their projected measurements.
    axis: Vec<f64>,
    measurements: Vec<f64>,
}

impl FrameEncoder {
    /// Creates an encoder with an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the 8-byte stream header (magic, version, flags).
    pub fn header(&mut self) -> &[u8] {
        self.buf.clear();
        self.buf.extend_from_slice(&WIRE_MAGIC);
        self.buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        self.buf.extend_from_slice(&0u16.to_le_bytes());
        &self.buf
    }

    /// Encodes one length-prefixed batch frame.
    ///
    /// # Panics
    ///
    /// Panics if the encoded payload would exceed [`MAX_FRAME_LEN`]: the
    /// decoder rejects such frames, so encoding one would break the
    /// encode→decode identity contract (and far beyond it, the `u32` length
    /// prefix would silently truncate).  The largest legitimate batch is
    /// three orders of magnitude below the cap.
    pub fn batch(&mut self, batch: &TelemetryBatch) -> &[u8] {
        let payload_len = BATCH_HEAD_LEN + batch.samples.len() * SAMPLE_LEN;
        assert!(
            payload_len <= MAX_FRAME_LEN,
            "batch of {} samples encodes to {payload_len} B, above the {MAX_FRAME_LEN} B frame \
             cap the decoder enforces",
            batch.samples.len()
        );
        self.buf.clear();
        self.buf.reserve(4 + payload_len);
        self.buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.buf.push(KIND_BATCH);
        self.buf.push(batch.config.index() as u8);
        self.buf.push(batch.label);
        self.buf.push(0); // reserved
        self.buf.extend_from_slice(&batch.t_end.to_le_bytes());
        self.buf.extend_from_slice(&batch.window_s.to_le_bytes());
        self.buf.extend_from_slice(&(batch.samples.len() as u32).to_le_bytes());
        for sample in &batch.samples {
            self.buf.extend_from_slice(&sample.t.to_le_bytes());
            self.buf.extend_from_slice(&sample.x.to_le_bytes());
            self.buf.extend_from_slice(&sample.y.to_le_bytes());
            self.buf.extend_from_slice(&sample.z.to_le_bytes());
        }
        &self.buf
    }

    /// Encodes the end-of-stream frame carrying the number of batch frames
    /// sent before it (an integrity check for the reader).
    pub fn end(&mut self, batches: u64) -> &[u8] {
        self.buf.clear();
        self.buf.extend_from_slice(&9u32.to_le_bytes());
        self.buf.push(KIND_END);
        self.buf.extend_from_slice(&batches.to_le_bytes());
        &self.buf
    }

    /// Encodes one length-prefixed report frame: shard `shard`'s canonically
    /// encoded fleet report, as produced by
    /// [`FleetReport::encode`](crate::fleet::FleetReport::encode).  This is
    /// the shard→coordinator transport of the `fleet_shard` binary.
    ///
    /// # Panics
    ///
    /// Panics if the payload would exceed [`MAX_REPORT_FRAME_LEN`]: the
    /// decoder rejects such frames, so encoding one would break the
    /// encode→decode identity contract.
    pub fn report(&mut self, shard: u32, report: &[u8]) -> &[u8] {
        let payload_len = 5 + report.len();
        assert!(
            payload_len <= MAX_REPORT_FRAME_LEN,
            "encoded report of {} B exceeds the {MAX_REPORT_FRAME_LEN} B frame cap the decoder \
             enforces",
            report.len()
        );
        self.buf.clear();
        self.buf.reserve(4 + payload_len);
        self.buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.buf.push(KIND_REPORT);
        self.buf.extend_from_slice(&shard.to_le_bytes());
        self.buf.extend_from_slice(report);
        &self.buf
    }

    /// Encodes one resume-request frame: on reconnect after a torn
    /// connection, the client tells the server which device stream it was
    /// consuming and the index of the next batch it has *not* yet received,
    /// so the server can replay from exactly there (see `docs/WIRE_FORMAT.md`
    /// § RESUME).
    pub fn resume(&mut self, device_id: u64, next_batch: u64) -> &[u8] {
        self.buf.clear();
        self.buf.extend_from_slice(&(RESUME_PAYLOAD_LEN as u32).to_le_bytes());
        self.buf.push(KIND_RESUME);
        self.buf.extend_from_slice(&device_id.to_le_bytes());
        self.buf.extend_from_slice(&next_batch.to_le_bytes());
        &self.buf
    }

    /// Encodes one join-handshake frame (v4): the first frame of a served
    /// device stream, announcing which device the stream carries, the
    /// device's initial sensor configuration, and the fleet epoch at which
    /// the device joined the cohort (`0` for a device present from run
    /// start).  Resumed streams repeat the JOIN so a reconnecting consumer
    /// re-learns the same metadata (see `docs/WIRE_FORMAT.md` § JOIN).
    pub fn join(&mut self, device_id: u64, config: SensorConfig, start_epoch: u64) -> &[u8] {
        self.buf.clear();
        self.buf.extend_from_slice(&(JOIN_PAYLOAD_LEN as u32).to_le_bytes());
        self.buf.push(KIND_JOIN);
        self.buf.extend_from_slice(&device_id.to_le_bytes());
        self.buf.push(config.index() as u8);
        self.buf.extend_from_slice(&start_epoch.to_le_bytes());
        &self.buf
    }

    /// Encodes one length-prefixed compressed-batch frame (v3): the window is
    /// replaced by a seeded sparse random projection of each axis, compressed
    /// roughly `ratio`× (see [`SparseProjection`]).  The decoder reconstructs
    /// the window deterministically from the carried seed, so compressed
    /// frames flow through every consumer as ordinary batches.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch (there is nothing to project) or if the
    /// encoded payload would exceed [`MAX_FRAME_LEN`] — impossible for any
    /// batch the raw encoder accepts, since a compressed frame is strictly
    /// smaller than its raw counterpart.
    pub fn compressed(&mut self, batch: &TelemetryBatch, ratio: u32, seed: u64) -> &[u8] {
        let samples = batch.samples.len();
        assert!(samples > 0, "cannot compress an empty batch");
        let projection = SparseProjection::new(seed, samples, ratio);
        let coeffs = projection.output_len();
        let payload_len = COMPRESSED_HEAD_LEN + coeffs * MEASUREMENT_LEN;
        assert!(
            payload_len <= MAX_FRAME_LEN,
            "compressed batch of {coeffs} measurements encodes to {payload_len} B, above the \
             {MAX_FRAME_LEN} B frame cap the decoder enforces"
        );
        self.buf.clear();
        self.buf.reserve(4 + payload_len);
        self.buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.buf.push(KIND_COMPRESSED);
        self.buf.push(batch.config.index() as u8);
        self.buf.push(batch.label);
        self.buf.push(0); // reserved
        self.buf.extend_from_slice(&batch.t_end.to_le_bytes());
        self.buf.extend_from_slice(&batch.window_s.to_le_bytes());
        self.buf.extend_from_slice(&(samples as u32).to_le_bytes());
        self.buf.extend_from_slice(&(coeffs as u32).to_le_bytes());
        self.buf.extend_from_slice(&seed.to_le_bytes());
        // Measurements are written axis-major (all x, all y, all z) so the
        // decoder can reconstruct one axis at a time from a contiguous slice.
        self.axis.resize(samples, 0.0);
        self.measurements.resize(coeffs, 0.0);
        for extract in
            [(|s: &Sample3| s.x) as fn(&Sample3) -> f64, |s: &Sample3| s.y, |s: &Sample3| s.z]
        {
            for (slot, sample) in self.axis.iter_mut().zip(&batch.samples) {
                *slot = extract(sample);
            }
            projection.project_into(&self.axis, &mut self.measurements);
            for value in &self.measurements {
                self.buf.extend_from_slice(&value.to_le_bytes());
            }
        }
        &self.buf
    }
}

// ---------------------------------------------------------------------------
// Per-policy transmission sizes
// ---------------------------------------------------------------------------

/// On-wire size of one raw batch frame carrying `samples` samples (length
/// prefix included) — what a transmit-raw device sends per epoch.
pub fn raw_tx_bytes(samples: usize) -> usize {
    4 + BATCH_HEAD_LEN + samples * SAMPLE_LEN
}

/// On-wire size of one feature-vector payload (length prefix and batch-style
/// head included) — what a transmit-features device sends per epoch.  With
/// the unified 15-dimensional feature vector this is 148 B, within rounding
/// of the 144 B time-domain payload measured by Pagán et al.
pub fn features_tx_bytes() -> usize {
    4 + BATCH_HEAD_LEN + FEATURE_DIM * 8
}

/// On-wire size of one compressed batch frame for a `samples`-sample window
/// at roughly `ratio`× compression (length prefix included) — what a
/// transmit-compressed device sends per epoch.  Matches
/// [`FrameEncoder::compressed`] byte for byte.
pub fn compressed_tx_bytes(samples: usize, ratio: u32) -> usize {
    let coeffs = SparseProjection::new(0, samples.max(1), ratio).output_len();
    4 + COMPRESSED_HEAD_LEN + coeffs * MEASUREMENT_LEN
}

/// The canonical per-frame projection seed: a splitmix64-style mix of the
/// device id and the batch index, so every frame of every device projects
/// through a different — but fully reproducible — matrix.  The seed travels
/// in the frame, so decoders never need to recompute it; this helper only
/// keeps the *encoding* sides (server, tests, sweeps) in agreement.
pub fn compressed_frame_seed(device_id: u64, batch_index: u64) -> u64 {
    let mut z = device_id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(batch_index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// What [`FrameDecoder::read_frame`] decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A sample batch was decoded into the caller's [`TelemetryBatch`].
    Batch,
    /// The end-of-stream marker; `batches` is the producer's batch count.
    End {
        /// Number of batch frames the producer claims to have sent.
        batches: u64,
    },
    /// A shard's encoded fleet report; the bytes are available from
    /// [`FrameDecoder::report_payload`] until the next `read_frame` call.
    Report {
        /// The sending shard's index in the coordinator's shard plan.
        shard: u32,
    },
    /// A resume request (client→server after a reconnect): replay the named
    /// device's stream starting at batch index `next_batch`.
    Resume {
        /// The device whose stream the client was consuming.
        device_id: u64,
        /// Index of the first batch the client has not yet received.
        next_batch: u64,
    },
    /// The join handshake opening a served device stream (v4): metadata the
    /// consuming fleet needs to account a churned device correctly.
    Join {
        /// The device this stream carries.
        device_id: u64,
        /// The device's initial sensor configuration.
        config: SensorConfig,
        /// Fleet epoch at which the device joined the cohort (0 = from run
        /// start).
        start_epoch: u64,
    },
}

/// Decodes wire-format frames from any [`Read`], validating every field and
/// reusing one internal payload buffer (and the caller's [`TelemetryBatch`])
/// across frames.
///
/// See [`FrameEncoder`] for a round-trip example.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    payload: Vec<u8>,
    /// Whether `payload` currently holds a report frame (gates
    /// [`report_payload`](FrameDecoder::report_payload)).
    holds_report: bool,
}

impl FrameDecoder {
    /// Creates a decoder with an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads and validates the 8-byte stream header.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] on bad magic, an unsupported version,
    /// non-zero flags or a truncated header.
    pub fn read_header<R: Read + ?Sized>(&mut self, reader: &mut R) -> Result<(), AdaSenseError> {
        let mut head = [0u8; 8];
        read_exact(reader, &mut head, "stream header")?;
        ADSN.cursor(&head).header()
    }

    /// Reads the next frame.  Batch frames are decoded into `batch` in place
    /// (its sample allocation is reused).
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] on a truncated stream, an oversized
    /// or inconsistent length prefix, an unknown frame kind, or an invalid
    /// sensor-configuration / label tag.
    pub fn read_frame<R: Read + ?Sized>(
        &mut self,
        reader: &mut R,
        batch: &mut TelemetryBatch,
    ) -> Result<FrameKind, AdaSenseError> {
        let mut len_bytes = [0u8; 4];
        read_exact(reader, &mut len_bytes, "frame length prefix")?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        // The generous report cap gates the allocation; the tighter batch cap
        // is enforced once the kind byte is known.
        if len == 0 || len > MAX_REPORT_FRAME_LEN {
            return Err(AdaSenseError::ingest(format!(
                "frame length {len} is outside 1..={MAX_REPORT_FRAME_LEN}"
            )));
        }
        self.holds_report = false;
        self.payload.resize(len, 0);
        read_exact(reader, &mut self.payload, "frame payload")?;
        let kind = decode_frame_payload(&self.payload, batch)?;
        if matches!(kind, FrameKind::Report { .. }) {
            self.holds_report = true;
        }
        Ok(kind)
    }

    /// The encoded report bytes of the most recently decoded
    /// [`FrameKind::Report`] frame (pass them to
    /// [`FleetReport::decode`](crate::fleet::FleetReport::decode)).  Empty
    /// unless the last [`read_frame`](FrameDecoder::read_frame) returned a
    /// report.
    pub fn report_payload(&self) -> &[u8] {
        if self.holds_report {
            &self.payload[5..]
        } else {
            &[]
        }
    }
}

/// Classifies and decodes one complete frame payload — the shared core of
/// [`FrameDecoder::read_frame`] and [`StreamParser::next_frame`].  Batch
/// frames are decoded into `batch`; report payload bytes stay with the
/// caller's buffer.
fn decode_frame_payload(
    payload: &[u8],
    batch: &mut TelemetryBatch,
) -> Result<FrameKind, AdaSenseError> {
    let len = payload.len();
    let exact = |expected: usize, what: &str| {
        if len == expected {
            Ok(())
        } else {
            Err(AdaSenseError::ingest(format!(
                "{what} frame has length {len}, expected {expected}"
            )))
        }
    };
    let mut cursor = ADSN.cursor(payload);
    match cursor.u8()? {
        kind @ (KIND_BATCH | KIND_COMPRESSED) => {
            if len > MAX_FRAME_LEN {
                return Err(AdaSenseError::ingest(format!(
                    "batch frame length {len} exceeds the {MAX_FRAME_LEN} B cap"
                )));
            }
            if kind == KIND_BATCH {
                decode_batch_payload(&mut cursor, batch)?;
            } else {
                decode_compressed_payload(&mut cursor, batch)?;
            }
            Ok(FrameKind::Batch)
        }
        KIND_END => {
            exact(9, "end-of-stream")?;
            Ok(FrameKind::End { batches: cursor.u64()? })
        }
        KIND_REPORT => Ok(FrameKind::Report { shard: cursor.u32()? }),
        KIND_RESUME => {
            exact(RESUME_PAYLOAD_LEN, "resume")?;
            let device_id = cursor.u64()?;
            let next_batch = cursor.u64()?;
            Ok(FrameKind::Resume { device_id, next_batch })
        }
        KIND_JOIN => {
            exact(JOIN_PAYLOAD_LEN, "join")?;
            let device_id = cursor.u64()?;
            let config = decode_config(&mut cursor)?;
            let start_epoch = cursor.u64()?;
            Ok(FrameKind::Join { device_id, config, start_epoch })
        }
        kind => Err(AdaSenseError::ingest(format!("unknown frame kind {kind:#04x}"))),
    }
}

/// Reads and validates a sensor-configuration tag.
fn decode_config(cursor: &mut ByteCursor<'_>) -> Result<SensorConfig, AdaSenseError> {
    let tag = cursor.u8()?;
    SensorConfig::from_index(tag as usize)
        .ok_or_else(|| AdaSenseError::ingest(format!("invalid sensor-configuration tag {tag}")))
}

/// Reads the head a raw and a compressed batch share — configuration,
/// label, reserved byte, the window's end and length, the sample count —
/// validates it and resets `batch` to it.  Returns the sample count.
fn decode_batch_head(
    cursor: &mut ByteCursor<'_>,
    batch: &mut TelemetryBatch,
) -> Result<usize, AdaSenseError> {
    let config = decode_config(cursor)?;
    let label = cursor.u8()?;
    if label as usize >= Activity::COUNT {
        return Err(AdaSenseError::ingest(format!(
            "invalid class label {label} (must be < {})",
            Activity::COUNT
        )));
    }
    cursor.u8()?; // reserved
    let t_end = cursor.f64()?;
    let window_s = cursor.f64()?;
    if !t_end.is_finite() || !window_s.is_finite() || window_s <= 0.0 {
        return Err(AdaSenseError::ingest(format!(
            "batch times are not sane (t_end {t_end}, window {window_s})"
        )));
    }
    let samples = cursor.u32()? as usize;
    batch.reset(config, t_end, window_s, label);
    Ok(samples)
}

/// Decodes a batch payload (after its kind byte) into `batch`.
fn decode_batch_payload(
    cursor: &mut ByteCursor<'_>,
    batch: &mut TelemetryBatch,
) -> Result<(), AdaSenseError> {
    let count = decode_batch_head(cursor, batch)?;
    if count.checked_mul(SAMPLE_LEN) != Some(cursor.remaining()) {
        return Err(AdaSenseError::ingest(format!(
            "batch frame length {} does not match its sample count {count}",
            BATCH_HEAD_LEN + cursor.remaining()
        )));
    }
    let rows = cursor.f64_rows(count)?;
    batch.samples.extend(rows.map(|[t, x, y, z]| Sample3::new(t, x, y, z)));
    Ok(())
}

/// Decodes a compressed-batch payload (after its kind byte) into `batch`,
/// reconstructing the window from its sparse-projection measurements (see
/// `docs/WIRE_FORMAT.md` § COMPRESSED).  Reconstruction is a pure function
/// of the carried seed and measurements, so replaying a compressed stream is
/// as deterministic as replaying a raw one.  Timestamps are regenerated on a
/// uniform grid ending at `t_end`.
fn decode_compressed_payload(
    cursor: &mut ByteCursor<'_>,
    batch: &mut TelemetryBatch,
) -> Result<(), AdaSenseError> {
    let samples = decode_batch_head(cursor, batch)?;
    let coeffs = cursor.u32()? as usize;
    if samples == 0 || coeffs == 0 || coeffs > samples {
        return Err(AdaSenseError::ingest(format!(
            "compressed frame carries {coeffs} measurements for {samples} samples"
        )));
    }
    if samples > MAX_FRAME_LEN / SAMPLE_LEN {
        return Err(AdaSenseError::ingest(format!(
            "compressed frame claims {samples} samples, above the raw-frame bound"
        )));
    }
    let seed = cursor.u64()?;
    if cursor.remaining() != coeffs * MEASUREMENT_LEN {
        return Err(AdaSenseError::ingest(format!(
            "compressed frame length {} does not match its measurement count {coeffs}",
            COMPRESSED_HEAD_LEN + cursor.remaining()
        )));
    }
    let projection = SparseProjection::with_lengths(seed, samples, coeffs);
    let mut measurements = vec![0.0; coeffs];
    let mut axis = vec![0.0; samples];
    let mut scratch = ProjectionScratch::default();

    let step = batch.window_s / samples as f64;
    let t0 = batch.t_end - batch.window_s;
    batch.samples.reserve(samples);
    for i in 0..samples {
        batch.samples.push(Sample3::new(t0 + (i + 1) as f64 * step, 0.0, 0.0, 0.0));
    }
    // Measurements are axis-major: all x, then all y, then all z.
    for axis_index in 0..3 {
        for (slot, [value]) in measurements.iter_mut().zip(cursor.f64_rows(coeffs)?) {
            *slot = value;
        }
        projection.reconstruct_into(&measurements, batch.window_s, &mut axis, &mut scratch);
        for (sample, &value) in batch.samples.iter_mut().zip(&axis) {
            match axis_index {
                0 => sample.x = value,
                1 => sample.y = value,
                _ => sample.z = value,
            }
        }
    }
    Ok(())
}

/// Reads exactly `buf.len()` bytes, mapping I/O errors (including EOF) to
/// [`AdaSenseError::Ingest`] with `what` naming the missing piece.
fn read_exact<R: Read + ?Sized>(
    reader: &mut R,
    buf: &mut [u8],
    what: &str,
) -> Result<(), AdaSenseError> {
    reader
        .read_exact(buf)
        .map_err(|e| AdaSenseError::ingest(format!("stream ended inside {what}: {e}")))
}

// ---------------------------------------------------------------------------
// Incremental (push) parsing
// ---------------------------------------------------------------------------

/// Incremental push-parser for wire-format streams: feed it whatever bytes a
/// nonblocking read produced, then drain complete frames.
///
/// This is the reactor-side counterpart of [`FrameDecoder`], which *pulls*
/// from a blocking [`Read`].  A readiness-polled connection delivers
/// arbitrary byte fragments — half a length prefix, three frames at once —
/// so the parser accumulates them and only decodes once a complete header or
/// frame is buffered.  It never blocks and it never panics on bad input:
/// corrupt bytes are an [`AdaSenseError`], so a reactor multiplexing
/// thousands of feeds can disconnect one bad client instead of taking down
/// the process.
///
/// # Examples
///
/// ```
/// use adasense::ingest::{FrameEncoder, FrameKind, StreamParser};
/// use adasense_sensor::TelemetryBatch;
///
/// let mut encoder = FrameEncoder::new();
/// let mut stream = Vec::new();
/// stream.extend_from_slice(encoder.header());
/// stream.extend_from_slice(encoder.end(0));
///
/// let mut parser = StreamParser::telemetry();
/// let mut batch = TelemetryBatch::placeholder();
/// // Feed one byte at a time: no fragmentation can confuse the parser.
/// let mut frames = Vec::new();
/// for byte in stream {
///     parser.feed(&[byte]);
///     while let Some(kind) = parser.next_frame(&mut batch).unwrap() {
///         frames.push(kind);
///     }
/// }
/// assert_eq!(frames, vec![FrameKind::End { batches: 0 }]);
/// ```
#[derive(Debug)]
pub struct StreamParser {
    buf: Vec<u8>,
    start: usize,
    header_seen: bool,
    /// Frame-length cap enforced as soon as the length prefix is buffered,
    /// *before* waiting for (or buffering) the payload.
    cap: usize,
}

impl StreamParser {
    /// A parser accepting any frame the wire format allows, including report
    /// frames up to [`MAX_REPORT_FRAME_LEN`].
    pub fn new() -> Self {
        Self { buf: Vec::new(), start: 0, header_seen: false, cap: MAX_REPORT_FRAME_LEN }
    }

    /// A parser for device telemetry feeds: frames above [`MAX_FRAME_LEN`]
    /// are rejected as soon as their length prefix arrives, so a corrupt or
    /// hostile peer cannot make the reactor buffer megabytes before the
    /// per-kind caps would catch it.
    pub fn telemetry() -> Self {
        Self { cap: MAX_FRAME_LEN, ..Self::new() }
    }

    /// Appends freshly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is consumed.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the 8-byte stream header has been parsed and validated.
    pub fn header_seen(&self) -> bool {
        self.header_seen
    }

    /// Tries to parse the next complete frame out of the buffered bytes.
    /// Batch frames are decoded into `batch` in place.  Returns `Ok(None)`
    /// when the buffer holds only a partial header or frame — feed more bytes
    /// and try again.
    ///
    /// Report frames are classified (so a consumer can reject them with
    /// context) but their payload bytes are not retained; they belong on the
    /// blocking shard→coordinator path, which uses [`FrameDecoder`].
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] on a bad stream header, a length
    /// prefix of 0 or above this parser's cap, an unknown frame kind, or any
    /// of the per-kind validation failures [`FrameDecoder::read_frame`]
    /// rejects.  The parser is poisoned in no special way — but a stream that
    /// erred once has lost framing, so callers should disconnect.
    pub fn next_frame(
        &mut self,
        batch: &mut TelemetryBatch,
    ) -> Result<Option<FrameKind>, AdaSenseError> {
        let mut cursor = ADSN.cursor(&self.buf[self.start..]);
        if !self.header_seen {
            if cursor.remaining() < 8 {
                return Ok(None);
            }
            cursor.header()?;
            self.start += 8;
            self.header_seen = true;
        }
        if cursor.remaining() < 4 {
            return Ok(None);
        }
        let len = cursor.u32()? as usize;
        if len == 0 || len > self.cap {
            return Err(AdaSenseError::ingest(format!(
                "frame length {len} is outside 1..={}",
                self.cap
            )));
        }
        if cursor.remaining() < len {
            return Ok(None);
        }
        let kind = decode_frame_payload(cursor.take(len)?, batch)?;
        self.start += 4 + len;
        Ok(Some(kind))
    }
}

impl Default for StreamParser {
    /// Equivalent to [`StreamParser::new`].
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// A whole recorded telemetry session: every batch a device's runtime
/// consumed, in delivery order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryTrace {
    /// The recorded batches, oldest first.
    pub batches: Vec<TelemetryBatch>,
}

impl TelemetryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the trace holds no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Writes the trace as one complete wire-format stream (header, batch
    /// frames, end-of-stream marker).
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] when the writer fails.
    pub fn encode_to<W: Write + ?Sized>(&self, writer: &mut W) -> Result<(), AdaSenseError> {
        let io = |e: std::io::Error| AdaSenseError::ingest(format!("writing trace failed: {e}"));
        let mut encoder = FrameEncoder::new();
        writer.write_all(encoder.header()).map_err(io)?;
        for batch in &self.batches {
            writer.write_all(encoder.batch(batch)).map_err(io)?;
        }
        writer.write_all(encoder.end(self.batches.len() as u64)).map_err(io)?;
        Ok(())
    }

    /// The trace as one complete wire-format byte stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Reads one complete stream from `reader` (header through end-of-stream
    /// marker), leaving the reader positioned just past the marker.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] on any malformed frame, on a stream
    /// that ends without the end-of-stream marker, or when the marker's batch
    /// count disagrees with the batches actually read.
    pub fn decode_from<R: Read + ?Sized>(reader: &mut R) -> Result<Self, AdaSenseError> {
        let mut decoder = FrameDecoder::new();
        decoder.read_header(reader)?;
        let mut trace = TelemetryTrace::new();
        let mut batch = TelemetryBatch::placeholder();
        loop {
            match decoder.read_frame(reader, &mut batch)? {
                FrameKind::Batch => trace.batches.push(batch.clone()),
                FrameKind::Report { shard } => {
                    return Err(AdaSenseError::ingest(format!(
                        "telemetry trace contains a fleet-report frame (shard {shard})"
                    )));
                }
                FrameKind::Resume { device_id, .. } => {
                    return Err(AdaSenseError::ingest(format!(
                        "telemetry trace contains a resume frame (device {device_id}); resume \
                         requests belong on live client→server links only"
                    )));
                }
                FrameKind::Join { device_id, .. } => {
                    return Err(AdaSenseError::ingest(format!(
                        "telemetry trace contains a join frame (device {device_id}); join \
                         handshakes belong on live server→client links only"
                    )));
                }
                FrameKind::End { batches } => {
                    if batches != trace.batches.len() as u64 {
                        return Err(AdaSenseError::ingest(format!(
                            "end-of-stream marker claims {batches} batches, read {}",
                            trace.batches.len()
                        )));
                    }
                    return Ok(trace);
                }
            }
        }
    }

    /// Decodes one complete stream from a byte slice, rejecting trailing
    /// garbage after the end-of-stream marker.
    ///
    /// # Errors
    ///
    /// See [`TelemetryTrace::decode_from`].
    pub fn decode(mut bytes: &[u8]) -> Result<Self, AdaSenseError> {
        let trace = Self::decode_from(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(AdaSenseError::ingest(format!(
                "{} trailing bytes after the end-of-stream marker",
                bytes.len()
            )));
        }
        Ok(trace)
    }
}

/// A [`SampleSource`] decorator that records everything the wrapped source
/// delivers — sample windows *and* the ground-truth label of each classified
/// epoch — as a [`TelemetryTrace`] for later replay.
///
/// Recording sits *outside* any fault decorator, so a fault-injected run is
/// recorded exactly as the runtime saw it and replays bit-identically.
#[derive(Debug, Clone)]
pub struct TraceRecorder<S> {
    inner: S,
    trace: TelemetryTrace,
}

impl<S> TraceRecorder<S> {
    /// Wraps `inner`, recording every window it delivers.
    pub fn new(inner: S) -> Self {
        Self { inner, trace: TelemetryTrace::new() }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &TelemetryTrace {
        &self.trace
    }

    /// Consumes the recorder, returning the wrapped source and the trace.
    pub fn into_parts(self) -> (S, TelemetryTrace) {
        (self.inner, self.trace)
    }
}

impl<S: SampleSource> SampleSource for TraceRecorder<S> {
    /// Captures through the wrapped source, then records the window together
    /// with the epoch's ground-truth label.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped source cannot provide ground truth for the
    /// captured epoch (the runtime would hit the same contract violation one
    /// phase later).
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        self.inner.capture_window(config, t_end, window_s, out);
        let label = self
            .inner
            .ground_truth(t_end - EPOCH_LABEL_OFFSET_S)
            .expect("the recorded source provides ground truth for every captured epoch");
        self.trace.batches.push(TelemetryBatch::new(
            config,
            t_end,
            window_s,
            label.index() as u8,
            out.clone(),
        ));
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        self.inner.ground_truth(t_s)
    }

    fn status(&mut self) -> SourceStatus {
        self.inner.status()
    }
}

// ---------------------------------------------------------------------------
// ChannelSource
// ---------------------------------------------------------------------------

/// What a [`ChannelSource`] remembers of the batch it delivered last: enough
/// to answer the runtime's ground-truth query for the epoch just captured.
#[derive(Debug, Clone, Copy, Default)]
struct LastEpoch {
    t_end: f64,
    window_s: f64,
    label: Option<Activity>,
}

impl LastEpoch {
    fn remember(&mut self, batch: &TelemetryBatch) {
        self.t_end = batch.t_end;
        self.window_s = batch.window_s;
        self.label = Activity::from_index(batch.label as usize);
    }

    fn label_at(&self, t_s: f64) -> Option<Activity> {
        let label = self.label?;
        (t_s <= self.t_end && t_s > self.t_end - self.window_s).then_some(label)
    }
}

/// Panics with a precise message if a delivered batch does not match what the
/// runtime asked for.  The stream and the controller must agree tick for
/// tick; any divergence means the trace belongs to a different run (or the
/// producer reordered frames), and silently serving it would corrupt every
/// later control decision.
fn check_batch(batch: &TelemetryBatch, config: SensorConfig, t_end: f64, window_s: f64) {
    assert!(
        batch.config == config && batch.t_end == t_end && batch.window_s == window_s,
        "ChannelSource: stream is out of step with the runtime — delivered \
         ({}, t_end {}, window {} s) but the runtime asked for ({}, t_end {}, window {} s)",
        batch.config,
        batch.t_end,
        batch.window_s,
        config,
        t_end,
        window_s
    );
    assert!(
        (batch.label as usize) < Activity::COUNT,
        "ChannelSource: batch carries invalid class label {}",
        batch.label
    );
}

/// Creates a bounded in-process telemetry ring: a [`TelemetrySender`] for the
/// producer and a [`ChannelSource`] for the consuming device runtime.
///
/// `capacity` is the number of batches the ring buffers; a producer that gets
/// ahead of the runtime by more than that blocks (backpressure).
///
/// # Panics
///
/// Panics if `capacity` is zero (a rendezvous ring would deadlock the
/// lockstep fleet scheduler, which ticks many devices from one thread).
///
/// # Examples
///
/// ```
/// use adasense::ingest::telemetry_channel;
/// use adasense::runtime::{SampleSource, SourceStatus};
/// use adasense_data::Activity;
/// use adasense_sensor::{Sample3, SensorConfig, TelemetryBatch};
///
/// let (mut tx, mut source) = telemetry_channel(4);
/// let config = SensorConfig::paper_pareto_front()[0];
/// let samples = vec![Sample3::new(1.5, 0.0, 0.0, 1.0)];
/// tx.send(TelemetryBatch::new(config, 2.0, 2.0, Activity::Sit.index() as u8, samples)).unwrap();
/// drop(tx); // end of stream
///
/// let mut window = Vec::new();
/// assert_eq!(source.status(), SourceStatus::Ready);
/// source.capture_window(config, 2.0, 2.0, &mut window);
/// assert_eq!(window.len(), 1);
/// assert_eq!(source.ground_truth(2.0 - 1e-6), Some(Activity::Sit));
/// assert_eq!(source.status(), SourceStatus::Exhausted);
/// ```
pub fn telemetry_channel(capacity: usize) -> (TelemetrySender, ChannelSource) {
    assert!(capacity > 0, "a telemetry ring needs capacity for at least one batch");
    let (tx, rx) = sync_channel(capacity);
    (
        TelemetrySender { tx, sent: 0 },
        ChannelSource { rx, pending: None, done: false, last: LastEpoch::default(), delivered: 0 },
    )
}

/// The producer half of a [`telemetry_channel`]: pushes batches into the
/// bounded ring, blocking while it is full.  Dropping the sender signals
/// end-of-stream to the [`ChannelSource`].
#[derive(Debug)]
pub struct TelemetrySender {
    tx: SyncSender<TelemetryBatch>,
    sent: u64,
}

impl TelemetrySender {
    /// Sends one batch, blocking while the ring is full.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] if the consumer went away.
    pub fn send(&mut self, batch: TelemetryBatch) -> Result<(), AdaSenseError> {
        self.tx
            .send(batch)
            .map_err(|_| AdaSenseError::ingest("the telemetry consumer disconnected"))?;
        self.sent += 1;
        Ok(())
    }

    /// Sends one batch without blocking.  Returns `Ok(None)` when the batch
    /// was queued, or `Ok(Some(batch))` handing the batch back when the ring
    /// is full — the caller decides how to apply backpressure (the ingest
    /// reactor parks the connection instead of stalling its event loop).
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] if the consumer went away.
    pub fn try_send(
        &mut self,
        batch: TelemetryBatch,
    ) -> Result<Option<TelemetryBatch>, AdaSenseError> {
        use std::sync::mpsc::TrySendError;
        match self.tx.try_send(batch) {
            Ok(()) => {
                self.sent += 1;
                Ok(None)
            }
            Err(TrySendError::Full(batch)) => Ok(Some(batch)),
            Err(TrySendError::Disconnected(_)) => {
                Err(AdaSenseError::ingest("the telemetry consumer disconnected"))
            }
        }
    }

    /// Sends every batch of `trace` in order.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] if the consumer went away.
    pub fn send_trace(&mut self, trace: &TelemetryTrace) -> Result<(), AdaSenseError> {
        for batch in &trace.batches {
            self.send(batch.clone())?;
        }
        Ok(())
    }

    /// Number of batches sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

/// A [`SampleSource`] fed through a bounded in-process ring buffer — the
/// transport for channel-fed fleet cohorts and tests.
///
/// Exhaustion is signalled by dropping the [`TelemetrySender`]; the source
/// reports [`SourceStatus::Exhausted`] once the ring is drained after that.
#[derive(Debug)]
pub struct ChannelSource {
    rx: Receiver<TelemetryBatch>,
    pending: Option<TelemetryBatch>,
    done: bool,
    last: LastEpoch,
    delivered: u64,
}

impl ChannelSource {
    /// Number of batches delivered to the runtime so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Blocks until a batch is buffered or the stream has ended.
    fn poll(&mut self) {
        if self.pending.is_none() && !self.done {
            match self.rx.recv() {
                Ok(batch) => self.pending = Some(batch),
                Err(_) => self.done = true,
            }
        }
    }
}

impl SampleSource for ChannelSource {
    /// Delivers the next buffered batch as the sensed window.
    ///
    /// # Panics
    ///
    /// Panics if the stream has ended (the runtime checks
    /// [`status`](SampleSource::status) first, so this is a
    /// driver bug) or if the delivered batch does not match the requested
    /// `(config, t_end, window_s)` — an out-of-step stream must fail loudly
    /// rather than corrupt the closed loop.
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        self.poll();
        let mut batch = self
            .pending
            .take()
            .expect("capture_window called past end-of-stream (check status first)");
        check_batch(&batch, config, t_end, window_s);
        self.last.remember(&batch);
        out.clear();
        std::mem::swap(out, &mut batch.samples);
        self.delivered += 1;
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        self.last.label_at(t_s)
    }

    fn status(&mut self) -> SourceStatus {
        self.poll();
        if self.done && self.pending.is_none() {
            SourceStatus::Exhausted
        } else {
            SourceStatus::Ready
        }
    }
}

// ---------------------------------------------------------------------------
// Reconnect policy
// ---------------------------------------------------------------------------

/// How the ingestion [`reactor`] (re)dials a feed: the first connect, and
/// every redial after a connection is torn mid-stream.
///
/// Each disconnect gets a fresh budget of `attempts` dials, `delay` apart.
/// A redial resumes the stream where it broke: the reactor sends a RESUME
/// frame naming the next batch it has not yet received, so a torn stream is
/// delivered without gaps or duplicates (see `docs/WIRE_FORMAT.md` §
/// RESUME).  A feed whose budget runs out fails alone; every other feed
/// keeps streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Dial attempts per disconnect before the feed fails (at least 1).
    pub attempts: u32,
    /// Delay between consecutive attempts.
    pub delay: Duration,
}

impl ReconnectPolicy {
    /// A single attempt, no retries.
    pub fn once() -> Self {
        Self { attempts: 1, delay: Duration::ZERO }
    }
}

impl Default for ReconnectPolicy {
    /// 25 attempts, 200 ms apart — rides out a replay server that needs a few
    /// seconds to come up.
    fn default() -> Self {
        Self { attempts: 25, delay: Duration::from_millis(200) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerKind;
    use crate::runtime::{DeviceRuntime, ScenarioSource};
    use crate::simulation::tests::shared_system;
    use crate::simulation::ScenarioSpec;

    fn sample_batch(t_end: f64) -> TelemetryBatch {
        let config = SensorConfig::paper_pareto_front()[2];
        let samples = (0..25)
            .map(|i| Sample3::new(t_end - 2.0 + i as f64 * 0.08, 0.01, -0.02, 0.98))
            .collect();
        TelemetryBatch::new(config, t_end, 2.0, Activity::Walk.index() as u8, samples)
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let trace = TelemetryTrace { batches: (2..40).map(|t| sample_batch(t as f64)).collect() };
        let encoded = trace.encode();
        let decoded = TelemetryTrace::decode(&encoded).expect("round trip decodes");
        assert_eq!(decoded, trace);
    }

    #[test]
    fn special_float_bit_patterns_survive() {
        // Replay must preserve *bits*, not values: -0.0 and subnormals count.
        let mut batch = sample_batch(2.0);
        batch.samples[0] = Sample3::new(2.0, -0.0, f64::MIN_POSITIVE / 2.0, 1.0 + f64::EPSILON);
        let trace = TelemetryTrace { batches: vec![batch.clone()] };
        let decoded = TelemetryTrace::decode(&trace.encode()).unwrap();
        let s = decoded.batches[0].samples[0];
        assert_eq!(s.x.to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.y.to_bits(), (f64::MIN_POSITIVE / 2.0).to_bits());
        assert_eq!(s.z.to_bits(), (1.0 + f64::EPSILON).to_bits());
    }

    #[test]
    fn every_strict_prefix_of_a_stream_is_rejected() {
        let trace = TelemetryTrace { batches: vec![sample_batch(2.0), sample_batch(3.0)] };
        let encoded = trace.encode();
        for cut in 0..encoded.len() {
            assert!(
                TelemetryTrace::decode(&encoded[..cut]).is_err(),
                "a stream truncated at byte {cut}/{} must not decode",
                encoded.len()
            );
        }
    }

    #[test]
    fn corrupt_streams_are_rejected_not_panicked() {
        let good = TelemetryTrace { batches: vec![sample_batch(2.0)] }.encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(TelemetryTrace::decode(&bad_magic).is_err());

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(TelemetryTrace::decode(&bad_version).is_err());

        let mut bad_flags = good.clone();
        bad_flags[6] = 1;
        assert!(TelemetryTrace::decode(&bad_flags).is_err());

        let mut bad_kind = good.clone();
        bad_kind[12] = 0x7f; // frame kind byte of the first frame
        assert!(TelemetryTrace::decode(&bad_kind).is_err());

        let mut bad_config = good.clone();
        bad_config[13] = 200; // config tag
        assert!(TelemetryTrace::decode(&bad_config).is_err());

        let mut bad_label = good.clone();
        bad_label[14] = 17; // label tag
        assert!(TelemetryTrace::decode(&bad_label).is_err());

        let mut oversized = good.clone();
        oversized[8..12].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(TelemetryTrace::decode(&oversized).is_err());

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(TelemetryTrace::decode(&trailing).is_err());

        assert!(TelemetryTrace::decode(&good).is_ok(), "the uncorrupted stream stays valid");
    }

    #[test]
    fn oversized_batches_are_refused_at_encode_time() {
        // An encoder that emitted a frame above MAX_FRAME_LEN would produce a
        // stream the decoder rejects — a recorded trace that cannot be
        // replayed.  It must refuse up front instead.
        let mut huge = sample_batch(2.0);
        huge.samples = vec![Sample3::new(0.0, 0.0, 0.0, 1.0); MAX_FRAME_LEN / SAMPLE_LEN + 1];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut encoder = FrameEncoder::new();
            encoder.batch(&huge).len()
        }));
        assert!(result.is_err(), "encoding an over-cap batch must panic");

        // The largest batch that fits the cap still round-trips.
        let mut largest = sample_batch(2.0);
        largest.samples =
            vec![Sample3::new(0.0, 0.0, 0.0, 1.0); (MAX_FRAME_LEN - BATCH_HEAD_LEN) / SAMPLE_LEN];
        let trace = TelemetryTrace { batches: vec![largest] };
        assert_eq!(TelemetryTrace::decode(&trace.encode()).unwrap(), trace);
    }

    #[test]
    fn report_frames_round_trip_and_respect_their_own_cap() {
        use crate::fleet::FleetReport;

        let mut report = FleetReport::new("spot");
        report.observe(&crate::fleet::DeviceSummary {
            device_id: 3,
            seed: 9,
            routine: "office_day".to_string(),
            backend: "f64".to_string(),
            faulted_epochs: 0,
            epochs: 10,
            correct_epochs: 9,
            early_exit_epochs: 0,
            early_exit_correct: 0,
            escalated_epochs: 0,
            escalated_correct: 0,
            accuracy: 0.9,
            average_current_ua: 41.5,
            total_charge_uc: 830.0,
            duration_s: 20.0,
            residency_s: vec![20.0],
            tx_epochs: vec![0, 10, 0],
            tx_bytes: vec![0, 1480, 0],
            tx_charge_uc: vec![0.0, 5970.0, 0.0],
            start_epoch: 0,
            departed: false,
        });
        let bytes = report.encode();

        let mut encoder = FrameEncoder::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(encoder.header());
        stream.extend_from_slice(encoder.report(2, &bytes));

        let mut decoder = FrameDecoder::new();
        let mut reader = &stream[..];
        decoder.read_header(&mut reader).unwrap();
        let mut scratch = TelemetryBatch::placeholder();
        assert_eq!(decoder.report_payload(), &[] as &[u8], "no report before one is decoded");
        let kind = decoder.read_frame(&mut reader, &mut scratch).unwrap();
        assert_eq!(kind, FrameKind::Report { shard: 2 });
        assert_eq!(decoder.report_payload(), &bytes[..], "payload must survive framing intact");
        assert_eq!(FleetReport::decode(decoder.report_payload()).unwrap(), report);

        // A batch-kind frame claiming a length above the batch cap is
        // rejected even though the generous report cap admits the bytes.
        let mut oversized = Vec::new();
        oversized.extend_from_slice(encoder.header());
        oversized.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        oversized.push(0x01); // KIND_BATCH
        oversized.resize(oversized.len() + MAX_FRAME_LEN, 0);
        let mut reader = &oversized[..];
        let mut decoder = FrameDecoder::new();
        decoder.read_header(&mut reader).unwrap();
        let error = decoder.read_frame(&mut reader, &mut scratch).unwrap_err();
        assert!(
            error.to_string().contains("exceeds"),
            "over-cap batch must fail on the batch cap, got: {error}"
        );

        // A report frame shorter than its shard-index header is rejected.
        let mut stub = Vec::new();
        stub.extend_from_slice(encoder.header());
        stub.extend_from_slice(&2u32.to_le_bytes());
        stub.push(0x03); // KIND_REPORT
        stub.push(0);
        let mut reader = &stub[..];
        decoder.read_header(&mut reader).unwrap();
        assert!(decoder.read_frame(&mut reader, &mut scratch).is_err());
    }

    #[test]
    fn end_marker_count_mismatch_is_rejected() {
        let trace = TelemetryTrace { batches: vec![sample_batch(2.0)] };
        let mut encoded = Vec::new();
        let mut encoder = FrameEncoder::new();
        encoded.extend_from_slice(encoder.header());
        encoded.extend_from_slice(encoder.batch(&trace.batches[0]));
        encoded.extend_from_slice(encoder.end(5));
        assert!(TelemetryTrace::decode(&encoded).is_err());
    }

    #[test]
    fn resume_frames_round_trip_and_are_rejected_off_live_links() {
        let mut encoder = FrameEncoder::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(encoder.header());
        stream.extend_from_slice(encoder.resume(77, 1234));

        let mut decoder = FrameDecoder::new();
        let mut reader = &stream[..];
        decoder.read_header(&mut reader).unwrap();
        let mut scratch = TelemetryBatch::placeholder();
        assert_eq!(
            decoder.read_frame(&mut reader, &mut scratch).unwrap(),
            FrameKind::Resume { device_id: 77, next_batch: 1234 }
        );

        // A resume frame inside a telemetry trace is corrupt.
        let mut trace_stream = Vec::new();
        trace_stream.extend_from_slice(encoder.header());
        trace_stream.extend_from_slice(encoder.resume(77, 0));
        trace_stream.extend_from_slice(encoder.end(0));
        assert!(TelemetryTrace::decode(&trace_stream).is_err());

        // A resume frame with the wrong payload length is corrupt.
        let mut short = Vec::new();
        short.extend_from_slice(encoder.header());
        short.extend_from_slice(&9u32.to_le_bytes());
        short.push(0x04); // KIND_RESUME
        short.extend_from_slice(&77u64.to_le_bytes());
        let mut reader = &short[..];
        decoder.read_header(&mut reader).unwrap();
        assert!(decoder.read_frame(&mut reader, &mut scratch).is_err());
    }

    #[test]
    fn join_frames_round_trip_and_are_rejected_off_live_links() {
        let config = SensorConfig::from_index(3).expect("valid configuration index");
        let mut encoder = FrameEncoder::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(encoder.header());
        stream.extend_from_slice(encoder.join(42, config, 17));

        let mut decoder = FrameDecoder::new();
        let mut reader = &stream[..];
        decoder.read_header(&mut reader).unwrap();
        let mut scratch = TelemetryBatch::placeholder();
        assert_eq!(
            decoder.read_frame(&mut reader, &mut scratch).unwrap(),
            FrameKind::Join { device_id: 42, config, start_epoch: 17 }
        );

        // A join frame inside a recorded telemetry trace is corrupt.
        let mut trace_stream = Vec::new();
        trace_stream.extend_from_slice(encoder.header());
        trace_stream.extend_from_slice(encoder.join(42, config, 0));
        trace_stream.extend_from_slice(encoder.end(0));
        assert!(TelemetryTrace::decode(&trace_stream).is_err());

        // A join frame with the wrong payload length is corrupt.
        let mut short = Vec::new();
        short.extend_from_slice(encoder.header());
        short.extend_from_slice(&10u32.to_le_bytes());
        short.push(0x06); // KIND_JOIN
        short.extend_from_slice(&42u64.to_le_bytes());
        short.push(0);
        let mut reader = &short[..];
        decoder.read_header(&mut reader).unwrap();
        assert!(decoder.read_frame(&mut reader, &mut scratch).is_err());

        // An out-of-range configuration tag is corrupt.
        let mut bad_config = Vec::new();
        bad_config.extend_from_slice(encoder.header());
        let frame = encoder.join(42, config, 17).to_vec();
        bad_config.extend_from_slice(&frame);
        let tag_at = bad_config.len() - frame.len() + 4 + 1 + 8;
        bad_config[tag_at] = 0xEE;
        let mut reader = &bad_config[..];
        decoder.read_header(&mut reader).unwrap();
        assert!(decoder.read_frame(&mut reader, &mut scratch).is_err());
    }

    #[test]
    fn v1_streams_still_decode() {
        let trace = TelemetryTrace { batches: vec![sample_batch(2.0)] };
        let mut encoded = trace.encode();
        encoded[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(TelemetryTrace::decode(&encoded).unwrap(), trace);
    }

    #[test]
    fn stream_parser_handles_arbitrary_fragmentation() {
        let trace = TelemetryTrace { batches: (2..12).map(|t| sample_batch(t as f64)).collect() };
        let encoded = trace.encode();

        // Feed the stream in every (chunk-size) fragmentation from 1 byte to
        // whole-stream; the parse must be identical each time.
        for chunk in [1, 3, 7, 64, encoded.len()] {
            let mut parser = StreamParser::telemetry();
            let mut batch = TelemetryBatch::placeholder();
            let mut got = TelemetryTrace::new();
            let mut ended = false;
            for piece in encoded.chunks(chunk) {
                parser.feed(piece);
                while let Some(kind) = parser.next_frame(&mut batch).expect("well-formed stream") {
                    match kind {
                        FrameKind::Batch => got.batches.push(batch.clone()),
                        FrameKind::End { batches } => {
                            assert_eq!(batches, got.batches.len() as u64);
                            ended = true;
                        }
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
            }
            assert!(ended, "chunk size {chunk} never produced the end-of-stream marker");
            assert_eq!(got, trace, "chunk size {chunk} diverged");
            assert_eq!(parser.buffered(), 0);
        }
    }

    #[test]
    fn stream_parser_rejects_corrupt_bytes_with_errors_not_panics() {
        let mut batch = TelemetryBatch::placeholder();

        // Bad magic fails as soon as 8 bytes are buffered.
        let mut parser = StreamParser::telemetry();
        parser.feed(b"NOPE\x01\x00\x00\x00");
        assert!(parser.next_frame(&mut batch).is_err());

        // A zero length prefix is rejected.
        let mut parser = StreamParser::telemetry();
        let mut encoder = FrameEncoder::new();
        let mut stream = encoder.header().to_vec();
        stream.extend_from_slice(&0u32.to_le_bytes());
        parser.feed(&stream);
        assert!(parser.next_frame(&mut batch).is_err());

        // The telemetry cap rejects an oversized prefix *before* its payload
        // arrives (a generic parser would wait for 64 MiB first).
        let mut parser = StreamParser::telemetry();
        let mut stream = encoder.header().to_vec();
        stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        parser.feed(&stream);
        assert!(parser.next_frame(&mut batch).is_err());

        // An unknown kind is rejected once the frame is complete.
        let mut parser = StreamParser::telemetry();
        let mut stream = encoder.header().to_vec();
        stream.extend_from_slice(&1u32.to_le_bytes());
        stream.push(0x7f);
        parser.feed(&stream);
        assert!(parser.next_frame(&mut batch).is_err());

        // Incomplete input is never an error, just "not yet".
        let trace = TelemetryTrace { batches: vec![sample_batch(2.0)] };
        let encoded = trace.encode();
        let mut parser = StreamParser::telemetry();
        parser.feed(&encoded[..encoded.len() - 1]);
        assert!(matches!(parser.next_frame(&mut batch), Ok(Some(FrameKind::Batch))));
        assert!(matches!(parser.next_frame(&mut batch), Ok(None)));
    }

    #[test]
    fn recorded_scenario_replays_bit_identically_through_a_channel() {
        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(10.0, 10.0);
        let controller = ControllerKind::Spot { stability_threshold: 3 };

        // Original run, recorded.
        let recorder = TraceRecorder::new(ScenarioSource::new(spec, &scenario));
        let mut original =
            DeviceRuntime::for_source(spec, system, controller, recorder, scenario.duration_s())
                .unwrap();
        original.run_to_completion();
        let trace = original.source().trace().clone();
        let original = original.into_report();
        assert_eq!(trace.len(), original.records.len());

        // Replay through the bounded ring from a feeder thread.
        let (mut tx, source) = telemetry_channel(3);
        let feeder = std::thread::spawn(move || tx.send_trace(&trace));
        let mut replay = DeviceRuntime::new(spec, system, controller, source);
        replay.run_to_completion();
        feeder.join().expect("feeder thread").expect("all batches accepted");
        assert_eq!(replay.into_report(), original, "channel replay must be bit-identical");
    }

    #[test]
    fn channel_capture_past_end_of_stream_panics() {
        let (tx, mut source) = telemetry_channel(1);
        drop(tx);
        assert_eq!(source.status(), SourceStatus::Exhausted);
        let mut out = Vec::new();
        let config = SensorConfig::paper_pareto_front()[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            source.capture_window(config, 2.0, 2.0, &mut out);
        }));
        assert!(result.is_err(), "capturing past end-of-stream must panic");
    }

    #[test]
    fn out_of_step_streams_fail_loudly() {
        let (mut tx, mut source) = telemetry_channel(1);
        tx.send(sample_batch(5.0)).unwrap();
        let mut out = Vec::new();
        let config = SensorConfig::paper_pareto_front()[0]; // batch was captured under [2]
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            source.capture_window(config, 5.0, 2.0, &mut out);
        }));
        assert!(result.is_err(), "a config mismatch must panic, not silently corrupt the run");
    }

    #[test]
    fn zero_capacity_rings_are_rejected() {
        assert!(std::panic::catch_unwind(|| telemetry_channel(0)).is_err());
    }

    /// Encodes a full compressed stream (header, one compressed frame per
    /// batch, END) from raw batches.
    fn compressed_stream(batches: &[TelemetryBatch], ratio: u32) -> Vec<u8> {
        let mut encoder = FrameEncoder::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(encoder.header());
        for (index, batch) in batches.iter().enumerate() {
            stream.extend_from_slice(encoder.compressed(
                batch,
                ratio,
                compressed_frame_seed(7, index as u64),
            ));
        }
        stream.extend_from_slice(encoder.end(batches.len() as u64));
        stream
    }

    #[test]
    fn compressed_frames_decode_as_deterministic_batches() {
        let batches: Vec<_> = (2..6).map(|t| sample_batch(t as f64)).collect();
        let stream = compressed_stream(&batches, 2);
        let first = TelemetryTrace::decode(&stream).expect("compressed stream decodes");
        let second = TelemetryTrace::decode(&stream).expect("second decode succeeds");
        assert_eq!(first.len(), batches.len());
        for (restored, original) in first.batches.iter().zip(&batches) {
            assert_eq!(restored.config, original.config);
            assert_eq!(restored.label, original.label);
            assert_eq!(restored.t_end.to_bits(), original.t_end.to_bits());
            assert_eq!(restored.window_s.to_bits(), original.window_s.to_bits());
            assert_eq!(restored.samples.len(), original.samples.len());
        }
        // Reconstruction is a pure function of the frame bytes: two decodes
        // of the same stream agree bit for bit.
        for (a, b) in first.batches.iter().zip(&second.batches) {
            for (x, y) in a.samples.iter().zip(&b.samples) {
                assert_eq!(x.t.to_bits(), y.t.to_bits());
                assert_eq!(x.x.to_bits(), y.x.to_bits());
                assert_eq!(x.y.to_bits(), y.y.to_bits());
                assert_eq!(x.z.to_bits(), y.z.to_bits());
            }
        }
    }

    #[test]
    fn compressed_frames_are_smaller_and_sized_as_promised() {
        let batch = sample_batch(2.0);
        let mut encoder = FrameEncoder::new();
        for ratio in [2u32, 4, 8] {
            let frame = encoder.compressed(&batch, ratio, 99).to_vec();
            assert_eq!(frame.len(), compressed_tx_bytes(batch.samples.len(), ratio));
            assert!(frame.len() < raw_tx_bytes(batch.samples.len()));
        }
        // Above ~2× compression the byte saving is real, which is what makes
        // local processing competitive with transmit-raw.
        assert!(compressed_tx_bytes(200, 2) * 2 < raw_tx_bytes(200) + 100);
    }

    #[test]
    fn every_strict_prefix_of_a_compressed_stream_is_rejected() {
        let batches: Vec<_> = (2..4).map(|t| sample_batch(t as f64)).collect();
        let stream = compressed_stream(&batches, 4);
        for cut in 0..stream.len() {
            assert!(
                TelemetryTrace::decode(&stream[..cut]).is_err(),
                "a compressed stream truncated at byte {cut}/{} must not decode",
                stream.len()
            );
        }
    }

    #[test]
    fn corrupt_compressed_frames_are_rejected_not_panicked() {
        let good = compressed_stream(&[sample_batch(2.0)], 2);

        // Measurement count above the sample count (coeffs field lives at
        // payload offset 24; header 8 B + length prefix 4 B before it).
        let mut bad_coeffs = good.clone();
        bad_coeffs[36..40].copy_from_slice(&1000u32.to_le_bytes());
        assert!(TelemetryTrace::decode(&bad_coeffs).is_err());

        // Zero samples (samples field at payload offset 20).
        let mut bad_samples = good.clone();
        bad_samples[32..36].copy_from_slice(&0u32.to_le_bytes());
        assert!(TelemetryTrace::decode(&bad_samples).is_err());

        // Bad configuration tag.
        let mut bad_config = good.clone();
        bad_config[13] = 200;
        assert!(TelemetryTrace::decode(&bad_config).is_err());

        assert!(TelemetryTrace::decode(&good).is_ok(), "the uncorrupted stream stays valid");
    }

    #[test]
    fn compressed_batches_reconstruct_close_to_the_original() {
        // A smooth gravity-plus-oscillation window must survive 2×
        // compression with small relative error — the property the
        // transmit-compressed policy's accuracy claim rests on.
        let config = SensorConfig::paper_pareto_front()[0];
        let samples: Vec<Sample3> = (0..200)
            .map(|i| {
                let t = i as f64 / 100.0;
                Sample3::new(
                    t,
                    0.05 * (std::f64::consts::TAU * 1.3 * t).sin(),
                    -0.04 * (std::f64::consts::TAU * 0.7 * t).cos(),
                    1.0 + 0.3 * (std::f64::consts::TAU * 2.1 * t).sin(),
                )
            })
            .collect();
        let batch = TelemetryBatch::new(config, 2.0, 2.0, 0, samples);
        let stream = compressed_stream(std::slice::from_ref(&batch), 2);
        let decoded = TelemetryTrace::decode(&stream).expect("stream decodes");
        let restored = &decoded.batches[0];
        let mut err = 0.0;
        let mut norm = 0.0;
        for (a, b) in batch.samples.iter().zip(&restored.samples) {
            err += (a.z - b.z).powi(2);
            norm += a.z * a.z;
        }
        assert!(err / norm < 0.05, "z-axis relative error {} too high", err / norm);
    }
}
