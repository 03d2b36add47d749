//! Decoder fuzzing: random byte flips, truncations and rewritten `u32`
//! length prefixes applied to valid ADSN streams, ADSR reports and ADSP
//! spools.  Every decoder must answer `Ok` or `Err` — never panic — whatever
//! bytes a peer or a damaged file hands it.

use std::sync::OnceLock;

use adasense::ingest::{compressed_frame_seed, MAX_FRAME_LEN};
use adasense::prelude::*;
use proptest::prelude::*;

/// The binary formats under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Adsn,
    Adsr,
    Adsp,
}

/// One valid input and the offsets of its `u32` frame length prefixes
/// (ADSR has none).
struct Input {
    format: Format,
    bytes: Vec<u8>,
    prefixes: Vec<usize>,
}

impl Input {
    fn new(format: Format, bytes: Vec<u8>) -> Self {
        let prefixes = if format == Format::Adsr { Vec::new() } else { frame_offsets(&bytes) };
        Self { format, bytes, prefixes }
    }
}

fn batch(t_end: f64, label: u8) -> TelemetryBatch {
    let config = SensorConfig::paper_pareto_front()[1];
    let samples = (0..25)
        .map(|i| Sample3::new(t_end - 2.0 + i as f64 * 0.08, 0.02 * i as f64, -0.01, 0.97))
        .collect();
    TelemetryBatch::new(config, t_end, 2.0, label, samples)
}

fn summary(device_id: u64, routine: &str, backend: &str) -> DeviceSummary {
    DeviceSummary {
        device_id,
        seed: device_id * 31,
        routine: routine.to_string(),
        backend: backend.to_string(),
        faulted_epochs: 2,
        epochs: 40,
        correct_epochs: 35,
        early_exit_epochs: 30,
        early_exit_correct: 28,
        escalated_epochs: 10,
        escalated_correct: 7,
        accuracy: 0.875,
        average_current_ua: 61.25 + device_id as f64,
        total_charge_uc: 2450.0,
        duration_s: 40.0,
        residency_s: vec![10.0; SensorConfig::COUNT],
        tx_epochs: vec![4, 30, 6],
        tx_bytes: vec![3700, 4440, 1200],
        tx_charge_uc: vec![100.5, 20.25, 8.0],
        start_epoch: device_id % 3,
        departed: device_id.is_multiple_of(2),
    }
}

/// Offsets of the length prefixes of a header-then-frames stream.
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 8;
    while at + 4 <= bytes.len() {
        offsets.push(at);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len;
    }
    offsets
}

/// One valid input per stream shape: a recorded ADSN trace, a live ADSN
/// link, an ADSR report and an ADSP spool.
fn corpus() -> &'static [Input] {
    static CORPUS: OnceLock<Vec<Input>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut encoder = FrameEncoder::new();
        let walk = batch(4.0, Activity::Walk.index() as u8);

        // A recorded trace: raw and compressed batches, then END.
        let mut trace = encoder.header().to_vec();
        trace.extend_from_slice(encoder.batch(&batch(2.0, Activity::Sit.index() as u8)));
        trace.extend_from_slice(encoder.compressed(&walk, 2, compressed_frame_seed(3, 1)));
        trace.extend_from_slice(encoder.end(2));

        // A live link: the JOIN handshake, batches, a RESUME and END.
        let mut live = encoder.header().to_vec();
        live.extend_from_slice(encoder.join(3, walk.config, 5));
        live.extend_from_slice(encoder.batch(&walk));
        live.extend_from_slice(encoder.compressed(&walk, 4, compressed_frame_seed(3, 2)));
        live.extend_from_slice(encoder.resume(3, 2));
        live.extend_from_slice(encoder.end(2));

        let mut report = FleetReport::new("spot");
        for (id, routine, backend) in [(0, "office_day", "f64"), (1, "commute", "cascade")] {
            report.observe(&summary(id, routine, backend));
        }

        let mut spool = Vec::new();
        let mut writer = SpoolWriter::new(&mut spool).unwrap();
        for id in 0..3 {
            writer.push(&summary(id, "office_day", "int8")).unwrap();
        }
        writer.finish().unwrap();

        vec![
            Input::new(Format::Adsn, trace),
            Input::new(Format::Adsn, live),
            Input::new(Format::Adsr, report.encode()),
            Input::new(Format::Adsp, spool),
        ]
    })
}

/// Length values that sit on the decoders' boundaries.
const EDGE_LENGTHS: [u32; 8] =
    [0, 1, 5, 9, 17, MAX_FRAME_LEN as u32, MAX_FRAME_LEN as u32 + 1, u32::MAX];

/// One mutation: `(kind, position, value)`.
type Mutation = (u8, usize, u32);

fn mutate(bytes: &mut Vec<u8>, prefixes: &[usize], (kind, position, value): Mutation) {
    if bytes.is_empty() {
        return;
    }
    let len = bytes.len();
    match kind {
        // Flip bits of one byte (never a no-op).
        0 => bytes[position % len] ^= (value % 255 + 1) as u8,
        // Cut the input short.
        1 => bytes.truncate(position % len),
        // Rewrite a length prefix: an edge value or an arbitrary one.
        _ if len >= 4 => {
            let at = match prefixes {
                [] => position % (len - 3),
                _ => prefixes[position % prefixes.len()],
            };
            if at + 4 > len {
                return;
            }
            let length = if value % 4 == 0 { value } else { EDGE_LENGTHS[value as usize % 8] };
            bytes[at..at + 4].copy_from_slice(&length.to_le_bytes());
        }
        _ => {}
    }
}

/// Runs every decoder of `format` over `bytes` to completion, returning
/// whether each accepted the input.  A panic fails the calling test.
fn decode_all(format: Format, bytes: &[u8]) -> Vec<bool> {
    match format {
        Format::Adsn => {
            let mut parser = StreamParser::telemetry();
            let mut scratch = TelemetryBatch::placeholder();
            let mut parsed = Ok(());
            for byte in bytes {
                parser.feed(std::slice::from_ref(byte));
                parsed = loop {
                    match parser.next_frame(&mut scratch) {
                        Ok(Some(_)) => {}
                        Ok(None) => break Ok(()),
                        Err(error) => break Err(error),
                    }
                };
                if parsed.is_err() {
                    break;
                }
            }
            vec![TelemetryTrace::decode(bytes).is_ok(), parsed.is_ok()]
        }
        Format::Adsr => vec![FleetReport::decode(bytes).is_ok()],
        Format::Adsp => vec![SpoolReader::new(bytes)
            .and_then(|reader| reader.collect::<Result<Vec<_>, _>>())
            .is_ok()],
    }
}

#[test]
fn the_unmutated_corpus_decodes() {
    let accepted: Vec<_> =
        corpus().iter().map(|input| decode_all(input.format, &input.bytes)).collect();
    // A live link's JOIN and RESUME frames are not part of a recorded trace,
    // so only the push parser accepts it.
    assert_eq!(accepted, [vec![true, true], vec![false, true], vec![true], vec![true]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_inputs_decode_to_ok_or_err_never_a_panic(
        input in 0usize..4,
        mutations in prop::collection::vec((0u8..3, 0usize..1 << 20, 0u32..u32::MAX), 1..5),
    ) {
        let input = &corpus()[input];
        let mut bytes = input.bytes.clone();
        for &mutation in &mutations {
            mutate(&mut bytes, &input.prefixes, mutation);
        }
        // Reaching the end without a panic is the property.
        decode_all(input.format, &bytes);
    }
}
