//! Sharded fleet coordinator: splits a fleet into device-id-range shards, runs
//! them independently (in-process and as separate OS worker processes), merges
//! the per-shard [`FleetReport`]s in ascending shard order and proves the
//! merged report is **byte-identical** to the monolithic run.
//!
//! Run with `cargo run --release -p adasense-bench --bin fleet_shard`
//! (add `--quick` for the CI smoke cohort; `--devices N`, `--duration S`,
//! `--shards K` and `--backend <f64|int8|cascade|mixed|mixed-cascade>`
//! reshape the fleet).  Worker
//! processes are spawned from the same binary via `--worker`; each runs one
//! shard and streams its encoded report back over a loopback TCP connection
//! using the `docs/WIRE_FORMAT.md` report frame.  Exits non-zero on any byte
//! mismatch, torn spool or failed worker.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Command;

use adasense::prelude::*;
use adasense_bench::{int_arg, string_arg, train_system, RunScale};

/// The fleet shape shared by the coordinator and its workers.  Workers rebuild
/// it from forwarded command-line flags; training and fleet construction are
/// deterministic in the spec seed, so every process derives the same system.
struct Shape {
    scale: RunScale,
    fleet: FleetSpec,
    shards: usize,
    /// The raw `--backend` flag, kept so the coordinator can forward it to
    /// worker processes verbatim (workers re-parse the same flags).
    backend_flag: Option<String>,
}

fn parse_shape() -> Result<Shape, Box<dyn std::error::Error>> {
    let scale = RunScale::from_args();
    let mut fleet = FleetSpec::smoke();
    if let Some(devices) = int_arg("--devices")? {
        fleet.devices = devices;
    }
    if let Some(duration) = int_arg("--duration")? {
        fleet.duration_s = duration as f64;
    }
    let backend_flag = string_arg("--backend")?;
    if let Some(backend) = &backend_flag {
        fleet.population.backend = match backend.as_str() {
            "mixed" => BackendSpec::half_int8(),
            "mixed-cascade" => BackendSpec::half_cascade(),
            name => BackendSpec::Uniform(BackendKind::from_name(name).ok_or_else(|| {
                format!("unknown backend `{name}` (f64, int8, cascade, mixed or mixed-cascade)")
            })?),
        };
    }
    let shards = int_arg("--shards")?.unwrap_or(4) as usize;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(Shape { scale, fleet, shards, backend_flag })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--worker") {
        return worker();
    }
    coordinator()
}

// --- coordinator -----------------------------------------------------------

fn coordinator() -> Result<(), Box<dyn std::error::Error>> {
    let shape = parse_shape()?;
    let (spec, system) = train_system(shape.scale)?;
    let fleet = &shape.fleet;
    let (devices, duration_s, shards) = (fleet.devices, fleet.duration_s, shape.shards);

    let scheduler = FleetScheduler::new(&spec, &system);
    let threads = scheduler.worker_threads();
    eprintln!(
        "[fleet_shard] {devices} devices × {duration_s} s, {shards} shards, {threads} workers"
    );

    // 1. Monolithic reference: one streaming pass over the whole fleet.
    let start = std::time::Instant::now();
    let monolithic = scheduler.builder().spec(fleet).run()?.report;
    let wall = start.elapsed().as_secs_f64();
    let reference = monolithic.encode();
    let ticks = monolithic.total_epochs();
    println!(
        "monolithic: {} devices, {ticks} device-ticks in {wall:.2} s ({:.0} device-ticks/s)",
        monolithic.len(),
        ticks as f64 / wall.max(1e-9)
    );

    // 2. In-process shards, each spooling its rows to disk.
    let merged = run_shards_in_process(&scheduler, fleet, shards)?;
    check("in-process", shards, &merged, &reference)?;

    // 3. The same shards as separate OS worker processes, reports transported
    //    over loopback TCP in the wire format's report frames.
    let merged =
        run_shards_as_processes(fleet, shards, shape.scale, shape.backend_flag.as_deref())?;
    check("multi-process", shards, &merged, &reference)?;

    println!(
        "sharded == monolithic: byte-identical at {shards} shards (in-process and multi-process)"
    );
    Ok(())
}

/// Fails loudly unless `merged` encodes to exactly the reference bytes.
fn check(
    mode: &str,
    shards: usize,
    merged: &FleetReport,
    reference: &[u8],
) -> Result<(), Box<dyn std::error::Error>> {
    let bytes = merged.encode();
    if bytes != reference {
        return Err(format!(
            "{mode} {shards}-shard merge differs from the monolithic report \
             ({} vs {} bytes)",
            bytes.len(),
            reference.len()
        )
        .into());
    }
    println!("{mode}: {shards}-shard merge is byte-identical ({} B report)", bytes.len());
    Ok(())
}

fn spool_path(shard: usize) -> PathBuf {
    std::env::temp_dir().join(format!("adasense-shard-{}-{shard}.spool", std::process::id()))
}

fn run_shards_in_process(
    scheduler: &FleetScheduler<'_>,
    fleet: &FleetSpec,
    shards: usize,
) -> Result<FleetReport, Box<dyn std::error::Error>> {
    let mut merged = FleetReport::new(fleet.controller.label());
    let mut spooled = 0u64;
    for (index, range) in fleet.shards(shards).into_iter().enumerate() {
        let path = spool_path(index);
        let mut sink = SpoolWriter::new(BufWriter::new(File::create(&path)?))?;
        let report = scheduler.builder().spec(fleet).shard(range).sink(&mut sink).run()?.report;
        sink.finish()?.flush()?;

        // The spool must hold exactly the shard's rows, and folding them back
        // must reproduce the shard's own report — the on-disk path loses
        // nothing the in-memory path kept.
        let mut replayed = FleetReport::new(fleet.controller.label());
        for row in SpoolReader::new(BufReader::new(File::open(&path)?))? {
            replayed.observe(&row?);
        }
        std::fs::remove_file(&path).ok();
        if replayed != report {
            return Err(format!("shard {index} {range}: spool replay diverges from report").into());
        }
        spooled += replayed.len();
        merged.merge(&report)?;
    }
    if spooled != fleet.devices {
        return Err(format!("spools hold {spooled} rows, expected {}", fleet.devices).into());
    }
    Ok(merged)
}

fn run_shards_as_processes(
    fleet: &FleetSpec,
    shards: usize,
    scale: RunScale,
    backend_flag: Option<&str>,
) -> Result<FleetReport, Box<dyn std::error::Error>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let port = listener.local_addr()?.port();
    let exe = std::env::current_exe()?;

    let mut children = Vec::new();
    for (index, range) in fleet.shards(shards).into_iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker")
            .arg("--shard-index")
            .arg(index.to_string())
            .arg("--shard-start")
            .arg(range.start.to_string())
            .arg("--shard-end")
            .arg(range.end.to_string())
            .arg("--connect")
            .arg(format!("127.0.0.1:{port}"))
            .arg("--devices")
            .arg(fleet.devices.to_string())
            .arg("--duration")
            .arg((fleet.duration_s as u64).to_string())
            .arg("--shards")
            .arg(shards.to_string());
        if let Some(backend) = backend_flag {
            cmd.arg("--backend").arg(backend);
        }
        if scale == RunScale::Quick {
            cmd.arg("--quick");
        }
        children.push((index, cmd.spawn()?));
    }

    // Accept one report per worker, in whatever order they finish.
    let mut reports: Vec<Option<FleetReport>> = (0..shards).map(|_| None).collect();
    for _ in 0..shards {
        let (stream, _) = listener.accept()?;
        let (shard, report) = receive_report(stream)?;
        if shard as usize >= shards || reports[shard as usize].is_some() {
            return Err(format!("unexpected or duplicate report for shard {shard}").into());
        }
        reports[shard as usize] = Some(report);
    }
    for (index, mut child) in children {
        let status = child.wait()?;
        if !status.success() {
            return Err(format!("worker for shard {index} exited with {status}").into());
        }
    }

    // Canonical merge order: ascending shard index.
    let mut merged = FleetReport::new(fleet.controller.label());
    for (index, report) in reports.into_iter().enumerate() {
        let report = report.ok_or(format!("no report for shard {index}"))?;
        merged.merge(&report)?;
    }
    Ok(merged)
}

/// Reads one framed stream (header, report frame, end marker) off a worker
/// connection.
fn receive_report(stream: TcpStream) -> Result<(u32, FleetReport), Box<dyn std::error::Error>> {
    let mut reader = BufReader::new(stream);
    let mut decoder = FrameDecoder::new();
    decoder.read_header(&mut reader)?;
    let mut scratch = TelemetryBatch::placeholder();
    let shard = match decoder.read_frame(&mut reader, &mut scratch)? {
        FrameKind::Report { shard } => shard,
        other => return Err(format!("expected a report frame, got {other:?}").into()),
    };
    let report = FleetReport::decode(decoder.report_payload())?;
    match decoder.read_frame(&mut reader, &mut scratch)? {
        FrameKind::End { batches: 0 } => {}
        other => return Err(format!("expected the end-of-stream marker, got {other:?}").into()),
    }
    Ok((shard, report))
}

// --- worker ----------------------------------------------------------------

fn worker() -> Result<(), Box<dyn std::error::Error>> {
    let shape = parse_shape()?;
    let index = int_arg("--shard-index")?.ok_or("--worker requires --shard-index")?;
    let start = int_arg("--shard-start")?.ok_or("--worker requires --shard-start")?;
    let end = int_arg("--shard-end")?.ok_or("--worker requires --shard-end")?;
    let connect = string_arg("--connect")?.ok_or("--worker requires --connect")?;
    let range = ShardRange { start, end };

    let (spec, system) = train_system(shape.scale)?;
    let scheduler = FleetScheduler::new(&spec, &system);
    eprintln!("[fleet_shard worker {index}] running {range}…");
    let report = scheduler.builder().spec(&shape.fleet).shard(range).run()?.report;

    let stream = TcpStream::connect(&connect)?;
    let mut writer = BufWriter::new(stream);
    let mut encoder = FrameEncoder::new();
    writer.write_all(encoder.header())?;
    writer.write_all(encoder.report(index as u32, &report.encode()))?;
    writer.write_all(encoder.end(0))?;
    writer.flush()?;
    Ok(())
}
