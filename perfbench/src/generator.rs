//! The load generator: one process, one serving thread, replaying
//! pre-recorded traces through `TelemetryServe`.
//!
//! The benchmark process records the traces during set-up and writes them to
//! a feed file, which a fresh generator (`perfbench serve`) reads for every
//! measured pass; the measuring process keeps no copy.  The generator
//! announces its address on stdout, serves every device's stream to
//! completion, prints its `ServeStats` and exits.  Dropping a [`Generator`]
//! before that kills and reaps the process, so a failed pass leaves nothing
//! running.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use adasense::prelude::*;

/// One served device: id, JOIN start-epoch and its recorded trace.
pub type Served = (u64, u64, TelemetryTrace);

/// With chaos on, the generator tears the first stream of devices below this
/// id ...
pub const KILL_BELOW: u64 = 64;
/// ... at this response byte, forcing the RESUME path.
pub const KILL_AT: usize = 20_000;

/// Serializes the served devices for the generator's feed file: a device count,
/// then per device `id`, `start_epoch` and the length-prefixed ADSN trace,
/// all little-endian `u64`.
pub fn encode_feeds(feeds: &[Served]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(feeds.len() as u64).to_le_bytes());
    for (device_id, start_epoch, trace) in feeds {
        let bytes = trace.encode();
        out.extend_from_slice(&device_id.to_le_bytes());
        out.extend_from_slice(&start_epoch.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Parses what [`encode_feeds`] wrote.
pub fn decode_feeds(mut bytes: &[u8]) -> Result<Vec<Served>, String> {
    fn take<'b>(bytes: &mut &'b [u8], n: usize) -> Result<&'b [u8], String> {
        if bytes.len() < n {
            return Err(format!("feed list truncated: wanted {n} bytes, {} left", bytes.len()));
        }
        let (head, rest) = bytes.split_at(n);
        *bytes = rest;
        Ok(head)
    }
    fn word(bytes: &mut &[u8]) -> Result<u64, String> {
        let head = take(bytes, 8)?;
        Ok(u64::from_le_bytes(head.try_into().map_err(|_| "short word".to_string())?))
    }
    let count = word(&mut bytes)?;
    let mut feeds = Vec::new();
    for _ in 0..count {
        let device_id = word(&mut bytes)?;
        let start_epoch = word(&mut bytes)?;
        let len = usize::try_from(word(&mut bytes)?).map_err(|e| e.to_string())?;
        let trace = TelemetryTrace::decode(take(&mut bytes, len)?).map_err(|e| e.to_string())?;
        feeds.push((device_id, start_epoch, trace));
    }
    if !bytes.is_empty() {
        return Err(format!("{} trailing bytes after the feed list", bytes.len()));
    }
    Ok(feeds)
}

/// The `perfbench serve` entry point, run in the generator process.
/// `listen` is `tcp` (an ephemeral loopback port) or `unix:<path>`; `feeds`
/// is a file written from [`encode_feeds`]; `chaos` tears streams as
/// [`KILL_AT`] and [`KILL_BELOW`] say.
pub fn serve_main(listen: &str, feeds: &Path, chaos: bool) -> Result<(), String> {
    let input = std::fs::read(feeds).map_err(|e| format!("reading {}: {e}", feeds.display()))?;
    let feeds = decode_feeds(&input)?;
    drop(input);
    let streams = feeds.len() as u64;
    let epochs: Vec<(u64, u64)> = feeds.iter().map(|(id, epoch, _)| (*id, *epoch)).collect();
    let traces = feeds.into_iter().map(|(id, _, trace)| (id, trace)).collect();
    let (mut serve, addr) = match listen.strip_prefix(UNIX_ADDR_SCHEME) {
        Some(path) => {
            (TelemetryServe::bind_unix(path, traces).map_err(|e| e.to_string())?, listen.into())
        }
        None if listen == "tcp" => {
            let serve = TelemetryServe::bind("127.0.0.1:0", traces).map_err(|e| e.to_string())?;
            let addr = serve.local_addr().to_string();
            (serve, addr)
        }
        None => return Err(format!("unknown listen address `{listen}`")),
    };
    for (device_id, start_epoch) in epochs {
        serve.set_start_epoch(device_id, start_epoch);
    }
    if chaos {
        serve = serve.with_kill_at(KILL_AT).with_kill_below(KILL_BELOW);
    }
    let mut out = std::io::stdout().lock();
    writeln!(out, "addr {addr}").and_then(|()| out.flush()).map_err(|e| e.to_string())?;
    // `serve_streams`, plus an exit when the benchmark process is gone, so a
    // killed benchmark never leaves its generator behind.
    let parent = std::os::unix::process::parent_id();
    while serve.stats().streams_completed < streams {
        serve.poll_once(100).map_err(|e| e.to_string())?;
        if std::os::unix::process::parent_id() != parent {
            return Err("the benchmark process exited; generator stopping".into());
        }
    }
    let s = serve.stats();
    writeln!(
        out,
        "stats {} {} {} {} {} {} {} {}",
        s.accepted,
        s.streams_completed,
        s.resume_requests,
        s.rejected_requests,
        s.killed_streams,
        s.peak_open,
        s.parked,
        s.dropped
    )
    .and_then(|()| out.flush())
    .map_err(|e| e.to_string())
}

/// A running generator process, killed and reaped on drop.
#[derive(Debug)]
pub struct Generator {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The address the generator serves on.
    pub addr: String,
}

impl Generator {
    /// Starts `perfbench serve` on `listen` over the feed file `feeds`
    /// (from [`encode_feeds`]) and waits until it is listening.
    pub fn spawn(feeds: &Path, listen: &str, chaos: bool) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
        let mut command = Command::new(exe);
        command.args(["serve", "--listen", listen]).arg("--feeds").arg(feeds);
        if chaos {
            command.arg("--chaos");
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the generator: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("generator pipe missing".into());
        };
        let mut generator = Self { child, stdout: BufReader::new(stdout), addr: String::new() };
        let line = generator.line()?;
        generator.addr = line
            .strip_prefix("addr ")
            .ok_or_else(|| format!("generator said `{line}` instead of its address"))?
            .to_string();
        Ok(generator)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(|e| format!("reading the generator: {e}"))?;
        if line.is_empty() {
            return Err("the generator exited early".into());
        }
        Ok(line.trim_end().to_string())
    }

    /// Waits for the generator to finish serving and returns its counters.
    pub fn finish(mut self) -> Result<ServeStats, String> {
        let line = self.line()?;
        let fields: Vec<u64> = line
            .strip_prefix("stats ")
            .ok_or_else(|| format!("generator said `{line}` instead of its stats"))?
            .split(' ')
            .map(|f| f.parse().map_err(|_| format!("bad stats field `{f}`")))
            .collect::<Result<_, _>>()?;
        if fields.len() != 8 {
            return Err(format!("generator stats have {} fields, expected 8", fields.len()));
        }
        let status = self.child.wait().map_err(|e| format!("reaping the generator: {e}"))?;
        if !status.success() {
            return Err(format!("the generator exited with {status}"));
        }
        Ok(ServeStats {
            accepted: fields[0],
            streams_completed: fields[1],
            resume_requests: fields[2],
            rejected_requests: fields[3],
            killed_streams: fields[4],
            peak_open: fields[5],
            parked: fields[6],
            dropped: fields[7],
        })
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        // Already reaped after `finish`; otherwise stop it now.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_lists_round_trip_and_reject_truncation() {
        let batch = TelemetryBatch::new(
            SensorConfig::paper_pareto_front()[2],
            2.0,
            2.0,
            1,
            vec![Sample3::new(0.5, 0.1, 0.2, 0.9); 25],
        );
        let feeds = vec![
            (3, 0, TelemetryTrace { batches: vec![batch.clone(), batch] }),
            (9, 4, TelemetryTrace::new()),
        ];
        let bytes = encode_feeds(&feeds);
        assert_eq!(decode_feeds(&bytes).unwrap(), feeds);
        assert!(decode_feeds(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_feeds(&trailing).is_err());
    }
}
