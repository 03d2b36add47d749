//! The event-driven ingestion reactor: one thread readiness-polls thousands
//! of nonblocking sockets, decodes wire-format frames incrementally, and
//! hands complete [`TelemetryBatch`]es to channel-fed fleet devices.
//!
//! # Data flow
//!
//! ```text
//!  telemetry_serve / device gateways            one reactor thread
//!  ┌──────────┐  TCP   ┌───────────────────────────────────────────┐
//!  │ stream 0 │───────▶│ poll(2) ─ readable fds ─▶ StreamParser ──┐│
//!  │ stream 1 │───────▶│   ▲                                      ││
//!  │   ...    │        │   └─ park fd while its ring is full      ││
//!  │ stream N │───────▶│                  TelemetrySender.try_send◀┘│
//!  └──────────┘        └──────────────┬────────────────────────────┘
//!                                     │ bounded telemetry_channel rings
//!                            ┌────────▼─────────┐
//!                            │ FleetScheduler   │  ChannelSource feeds
//!                            │ (lockstep ticks) │  via FleetRunBuilder
//!                            └──────────────────┘
//! ```
//!
//! Each subscription ([`IngestReactor::subscribe`]) dials one stream and
//! returns the [`ChannelSource`] end of a bounded
//! [`telemetry_channel`](crate::ingest::telemetry_channel()); the scheduler
//! consumes it like any other [`ExternalDevice`](crate::fleet::ExternalDevice)
//! feed.  Backpressure never blocks the event loop: when a device's ring is
//! full the decoded batch waits in a small overflow queue and the connection
//! is *parked* (dropped from the poll set) until the runtime drains it.
//!
//! # Dialing
//!
//! Dials interleave with the poll loop instead of preceding it.  A
//! connection is *unanswered* from its handshake write until its first byte
//! arrives or it ends; each pass dials only while its address has fewer than
//! `MAX_UNANSWERED` (64) unanswered connections, and the remaining feeds
//! wait in `Dialing` — spending no redial budget — until later passes, after
//! the connected feeds have been read.  64 is half of std's 128-entry TCP
//! listen backlog, so this reactor alone never overflows a listener's accept
//! queue (where the kernel drops SYNs and a blocking connect stalls for whole
//! 1 s retransmit timeouts).  The window is per address because the backlog
//! belongs to one listener: a peer that accepts and never answers fills only
//! its own window, and feeds on other addresses keep dialing.  The connect
//! itself still blocks, so a slow remote peer can cost one round-trip time
//! per dial; on loopback a connect with backlog room takes microseconds.
//!
//! # Failure handling
//!
//! * **Torn connection** (EOF or I/O error before the END frame): the
//!   reactor redials per its [`ReconnectPolicy`] and sends a RESUME frame
//!   naming the next batch index it has not yet received; the server replays
//!   the remainder.  Because every delivered batch is counted exactly once,
//!   a resumed fleet run is bit-identical to an uninterrupted one.
//! * **Corrupt frame** (bad header, bad length prefix, unknown kind, torn
//!   payload): the stream has lost framing, so the feed fails with an
//!   [`AdaSenseError`] recorded in [`ReactorStats::errors`]; its channel
//!   closes (the device simply ends early) and every other feed is
//!   untouched.  One bad client cannot take down the fleet.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

use polling::{poll_fds, PollFd, POLLIN};

use adasense_sensor::TelemetryBatch;

use super::{
    telemetry_channel, ChannelSource, FrameEncoder, FrameKind, ReconnectPolicy, StreamParser,
    TelemetrySender,
};
use crate::error::AdaSenseError;

/// Per-read scratch size: large enough to drain several frames per
/// readiness event, small enough to keep per-connection memory trivial.
const READ_BLOCK: usize = 8192;

/// Decoded-but-undelivered batches a feed may hold before its connection is
/// parked.  This is the reactor-side overflow on top of the channel ring.
const PARK_THRESHOLD: usize = 32;

/// Unanswered connections (dialed, no byte received yet) the reactor keeps
/// per feed address: half of std's 128-entry TCP listen backlog, so the
/// reactor alone can never overflow a listener's accept queue.
const MAX_UNANSWERED: usize = 64;

/// Counters and outcomes for one [`IngestReactor::run`], returned when every
/// feed has completed or failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Feeds subscribed.
    pub feeds: u64,
    /// Feeds whose stream completed (END frame, every batch delivered).
    pub completed: u64,
    /// Feeds that failed (corrupt stream, redials exhausted, or consumer
    /// gone before end-of-stream).
    pub failed: u64,
    /// Batches handed to device channels across all feeds.
    pub batches: u64,
    /// Successful reconnects after a torn connection.
    pub reconnects: u64,
    /// Feeds dropped because their stream lost framing (corrupt bytes).
    pub corrupt_streams: u64,
    /// Highest number of simultaneously connected feeds observed.
    pub peak_open: u64,
    /// Feeds subscribed while the reactor was already running (via
    /// [`ReactorHandle::subscribe`]).
    pub joined: u64,
    /// Feeds unsubscribed mid-run (via [`ReactorHandle::unsubscribe`]): their
    /// channels closed at the last delivered batch, so the device finalized
    /// at its last completed epoch.
    pub departed: u64,
    /// Per-feed failures: `(device_id, error)`.
    pub errors: Vec<(u64, AdaSenseError)>,
}

/// Lifecycle of one subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeedState {
    /// Needs a (re)connect.
    Dialing,
    /// Connected and reading frames.
    Streaming,
    /// END seen; delivering the overflow queue, then closing the channel.
    Draining,
    /// All batches delivered and the channel closed.
    Completed,
    /// Unsubscribed mid-run; the channel closed at the last delivered batch.
    Departed,
    /// Gave up; error recorded.
    Failed,
}

impl FeedState {
    /// Whether the feed is done: nothing left to dial, read or deliver.
    fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Departed | Self::Failed)
    }
}

/// One feed transport: loopback/remote TCP, or a Unix-domain socket for
/// local fleets that skip the TCP stack.  Address scheme: `unix:<path>`
/// dials a Unix socket, anything else is `host:port`.
#[derive(Debug)]
enum FeedSocket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// The `unix:<path>` address prefix selecting a Unix-domain-socket feed.
pub const UNIX_ADDR_SCHEME: &str = "unix:";

impl FeedSocket {
    /// Dials `addr`, honoring the `unix:` scheme.
    fn connect(addr: &str) -> std::io::Result<Self> {
        match addr.strip_prefix(UNIX_ADDR_SCHEME) {
            Some(path) => Ok(Self::Unix(UnixStream::connect(path)?)),
            None => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Self::Tcp(stream))
            }
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_nonblocking(nonblocking),
            Self::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for FeedSocket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for FeedSocket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

impl AsRawFd for FeedSocket {
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        match self {
            Self::Tcp(s) => s.as_raw_fd(),
            Self::Unix(s) => s.as_raw_fd(),
        }
    }
}

#[derive(Debug)]
struct Conn {
    stream: FeedSocket,
    parser: StreamParser,
    /// Batches received on *this* connection (END validates against it).
    received_this_stream: u64,
    /// Whether any byte has arrived; until then the connection counts
    /// against its address's dial window.
    answered: bool,
}

/// A churn command sent from a [`ReactorHandle`] to its running reactor.
enum Command {
    Subscribe { device_id: u64, addr: String, sender: TelemetrySender },
    Unsubscribe { device_id: u64 },
}

/// A cloneable handle for subscribing and unsubscribing feeds while the
/// reactor runs (see [`IngestReactor::handle`]).  The reactor keeps running
/// until every feed is terminal *and* every handle has been dropped, so hold
/// a handle only as long as the fleet may still churn.
#[derive(Clone)]
pub struct ReactorHandle {
    commands: Sender<Command>,
    capacity: usize,
}

impl ReactorHandle {
    /// Registers a new feed with the *running* reactor: device `device_id`
    /// served at `addr` (`host:port`, or `unix:<path>`), starting from batch
    /// `0`.  Returns the [`ChannelSource`] the device runtime consumes —
    /// typically handed to the fleet through
    /// [`FleetRunBuilder::intake`](crate::fleet::FleetRunBuilder::intake).
    /// If the reactor has already exited, the source reports end-of-stream
    /// immediately.
    pub fn subscribe(&self, addr: &str, device_id: u64) -> ChannelSource {
        let (sender, source) = telemetry_channel(self.capacity);
        let _ =
            self.commands.send(Command::Subscribe { device_id, addr: addr.to_string(), sender });
        source
    }

    /// Removes a live feed: its connection is dropped, undelivered batches
    /// are discarded and its channel closes, so the device finalizes at its
    /// last completed epoch.  Unknown or already-terminal device ids are
    /// ignored.
    pub fn unsubscribe(&self, device_id: u64) {
        let _ = self.commands.send(Command::Unsubscribe { device_id });
    }
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

struct Feed {
    device_id: u64,
    addr: Arc<str>,
    sender: Option<TelemetrySender>,
    conn: Option<Conn>,
    state: FeedState,
    /// Total batches received across all of this feed's connections — the
    /// RESUME index sent on reconnect.
    received_total: u64,
    /// Decoded batches waiting for room in the channel ring.
    overflow: VecDeque<TelemetryBatch>,
    /// Redials left for the current disconnect burst.
    redials_left: u32,
    /// When the last dial was attempted, pacing redials by the policy delay.
    last_dial: Option<Instant>,
    /// Whether any connection has ever been established (a later dial is a
    /// reconnect).
    ever_connected: bool,
    reconnects: u64,
}

impl std::fmt::Debug for Feed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Feed")
            .field("device_id", &self.device_id)
            .field("addr", &self.addr)
            .field("state", &self.state)
            .field("received_total", &self.received_total)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

/// The event-driven ingestion reactor.  Subscribe feeds, hand their
/// [`ChannelSource`]s to the fleet scheduler, then [`run`](Self::run) the
/// reactor on its own thread; it returns a [`ReactorStats`] once every feed
/// has either completed or failed.  See the [module docs](self).
///
/// One reactor thread comfortably sustains thousands of concurrent feeds:
/// per feed it keeps one nonblocking socket, one incremental parser and a
/// bounded overflow queue — no per-connection threads, no unbounded buffers —
/// and it dials them in windows of at most 64 unanswered connections per
/// address, so a thousand-feed fleet never overflows its server's accept
/// backlog (see [Dialing](self#dialing)).
#[derive(Debug)]
pub struct IngestReactor {
    /// Live feeds in subscription order; terminal feeds are compacted out
    /// once per pass, after every feed has been serviced.
    feeds: Vec<Feed>,
    policy: ReconnectPolicy,
    capacity: usize,
    stats: ReactorStats,
    /// Command intake from live [`ReactorHandle`]s, created on first
    /// [`handle`](Self::handle) call and dropped once every handle is gone
    /// during [`run`](Self::run): while present it keeps the reactor alive
    /// and the poll timeout short.
    commands: Option<Receiver<Command>>,
    /// The reactor's own sender, kept only until [`run`](Self::run) starts so
    /// `handle` can clone it; dropped at run start so intake disconnection
    /// means "every user handle is gone".
    handle_tx: Option<Sender<Command>>,
    /// Per-pass scratch: unanswered connections per feed address, recounted
    /// from feed state at the start of every pass.
    unanswered: HashMap<Arc<str>, usize>,
    /// Per-pass scratch: the `poll(2)` set and the feed index owning each
    /// slot.
    poll_set: Vec<PollFd>,
    poll_owners: Vec<usize>,
}

impl IngestReactor {
    /// A reactor with the default [`ReconnectPolicy`] and a per-feed channel
    /// ring of 8 batches.
    pub fn new() -> Self {
        Self {
            feeds: Vec::new(),
            policy: ReconnectPolicy::default(),
            capacity: 8,
            stats: ReactorStats::default(),
            commands: None,
            handle_tx: None,
            unanswered: HashMap::new(),
            poll_set: Vec::new(),
            poll_owners: Vec::new(),
        }
    }

    /// Returns a cloneable [`ReactorHandle`] for subscribing and
    /// unsubscribing feeds *while the reactor runs*.  With at least one
    /// handle outstanding the reactor keeps running after its current feeds
    /// finish, waiting for churn; it exits once every handle is dropped and
    /// every feed is terminal.
    pub fn handle(&mut self) -> ReactorHandle {
        let tx = match &self.handle_tx {
            Some(tx) => tx.clone(),
            None => {
                let (tx, rx) = std::sync::mpsc::channel();
                self.commands = Some(rx);
                self.handle_tx = Some(tx.clone());
                tx
            }
        };
        ReactorHandle { commands: tx, capacity: self.capacity }
    }

    /// Replaces the reconnect policy (applies per disconnect: each torn
    /// connection gets `attempts` redials, `delay` apart).
    pub fn with_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-feed channel ring capacity, in batches, for subsequent
    /// [`subscribe`](Self::subscribe) calls.
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Registers one feed: device `device_id` served at `addr`
    /// (`host:port`, or `unix:<path>` for a Unix-domain socket), starting
    /// from batch `0`.  Returns the [`ChannelSource`] the device runtime
    /// consumes.  The connection is dialed once [`run`](Self::run) starts,
    /// within its address's dial window (see [Dialing](self#dialing));
    /// to subscribe feeds *after* that, take a [`handle`](Self::handle)
    /// first.
    pub fn subscribe(&mut self, addr: &str, device_id: u64) -> ChannelSource {
        let (sender, source) = telemetry_channel(self.capacity);
        self.admit(device_id, addr, sender);
        source
    }

    /// Adds one feed in its initial dialing state.
    fn admit(&mut self, device_id: u64, addr: &str, sender: TelemetrySender) {
        self.feeds.push(Feed {
            device_id,
            addr: addr.into(),
            sender: Some(sender),
            conn: None,
            state: FeedState::Dialing,
            received_total: 0,
            overflow: VecDeque::new(),
            redials_left: self.policy.attempts,
            last_dial: None,
            ever_connected: false,
            reconnects: 0,
        });
    }

    /// Number of subscribed feeds that are not yet terminal.
    pub fn feed_count(&self) -> usize {
        self.feeds.len()
    }

    /// Runs the event loop until every feed has completed or failed, then
    /// returns the final [`ReactorStats`].
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] only for reactor-global failures
    /// (the `poll(2)` syscall itself); per-feed failures are recorded in
    /// [`ReactorStats::errors`] instead.
    pub fn run(mut self) -> Result<ReactorStats, AdaSenseError> {
        // Drop the reactor's own sender: from here on, intake disconnection
        // means every user handle is gone and no further churn can arrive.
        drop(self.handle_tx.take());
        self.stats.feeds = self.feeds.len() as u64;
        while self.pass()? {}
        Ok(self.stats)
    }

    /// One event-loop pass: applies pending churn commands, services every
    /// feed (dialing within each address's window), compacts terminal feeds
    /// out, then polls the connected ones.  Returns `false`, without
    /// polling, once no feed is live and every handle is gone.
    fn pass(&mut self) -> Result<bool, AdaSenseError> {
        self.apply_commands();
        self.count_unanswered();
        for i in 0..self.feeds.len() {
            self.service_feed(i);
        }
        self.compact();
        if self.feeds.is_empty() && self.commands.is_none() {
            return Ok(false);
        }
        self.poll_ready()?;
        Ok(true)
    }

    /// Applies every queued churn command; drops the intake once every
    /// handle is gone.
    fn apply_commands(&mut self) {
        while let Some(rx) = &self.commands {
            match rx.try_recv() {
                Ok(command) => self.apply(command),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => self.commands = None,
            }
        }
    }

    /// Recounts each address's unanswered connections from feed state, so a
    /// departed or failed feed can never leak a window slot.
    fn count_unanswered(&mut self) {
        self.unanswered.clear();
        for feed in &self.feeds {
            if feed.conn.as_ref().is_some_and(|conn| !conn.answered) {
                *self.unanswered.entry(Arc::clone(&feed.addr)).or_default() += 1;
            }
        }
    }

    /// Removes terminal feeds (order-preserving), first folding their
    /// reconnects into the stats.
    fn compact(&mut self) {
        let stats = &mut self.stats;
        self.feeds.retain(|feed| {
            let terminal = feed.state.is_terminal();
            if terminal {
                stats.reconnects += feed.reconnects;
            }
            !terminal
        });
    }

    /// Applies one churn command from a [`ReactorHandle`].
    fn apply(&mut self, command: Command) {
        match command {
            Command::Subscribe { device_id, addr, sender } => {
                self.admit(device_id, &addr, sender);
                self.stats.feeds += 1;
                self.stats.joined += 1;
            }
            Command::Unsubscribe { device_id } => {
                // Latest matching live feed wins; terminal (or already
                // compacted) feeds are left alone so a departure cannot
                // retroactively fail a stream.
                let Some(i) = self
                    .feeds
                    .iter()
                    .rposition(|f| f.device_id == device_id && !f.state.is_terminal())
                else {
                    return;
                };
                let feed = &mut self.feeds[i];
                feed.conn = None;
                feed.overflow.clear();
                // Dropping the sender closes the channel at the last
                // *delivered* batch: the device runtime sees end-of-stream on
                // its next tick and finalizes at its last completed epoch.
                feed.sender = None;
                feed.state = FeedState::Departed;
                self.stats.departed += 1;
            }
        }
    }

    /// Polls every streaming, un-parked connection for readability, reading
    /// and decoding whatever arrived.  Uses a short timeout when any feed is
    /// waiting on channel room or a (re)dial, so those make progress too.
    fn poll_ready(&mut self) -> Result<(), AdaSenseError> {
        self.poll_set.clear();
        self.poll_owners.clear();
        let mut impatient = false;
        let open = self.feeds.iter().filter(|f| f.conn.is_some()).count() as u64;
        self.stats.peak_open = self.stats.peak_open.max(open);
        for (i, feed) in self.feeds.iter().enumerate() {
            match feed.state {
                FeedState::Streaming if feed.overflow.len() < PARK_THRESHOLD => {
                    let conn = feed.conn.as_ref().expect("streaming feeds hold a connection");
                    self.poll_set.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
                    self.poll_owners.push(i);
                }
                // Parked (ring full), draining, or waiting to (re)dial: no fd
                // to poll, but check back soon.
                FeedState::Streaming | FeedState::Draining | FeedState::Dialing => impatient = true,
                FeedState::Completed | FeedState::Departed | FeedState::Failed => {}
            }
        }
        // An open intake keeps the wait short so fresh subscribe commands are
        // admitted promptly even while every current feed is quiescent.
        let timeout_ms = if impatient {
            1
        } else if self.commands.is_some() {
            25
        } else {
            250
        };
        if self.poll_set.is_empty() {
            // Nothing pollable; pace the retry/drain loop without spinning.
            std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
            return Ok(());
        }
        let ready = poll_fds(&mut self.poll_set, timeout_ms)
            .map_err(|e| AdaSenseError::ingest(format!("reactor poll failed: {e}")))?;
        if ready == 0 {
            return Ok(());
        }
        for slot in 0..self.poll_set.len() {
            if self.poll_set[slot].readable() {
                self.read_feed(self.poll_owners[slot]);
            }
        }
        Ok(())
    }

    /// Advances one feed's non-read work: dials, drains overflow into the
    /// channel, closes finished channels.
    fn service_feed(&mut self, i: usize) {
        // Deliver overflow first: room may have opened since the last pass.
        self.drain_overflow(i);
        match self.feeds[i].state {
            FeedState::Dialing => self.dial(i),
            FeedState::Draining if self.feeds[i].overflow.is_empty() => {
                // Dropping the sender is the end-of-stream signal.
                self.feeds[i].sender = None;
                self.feeds[i].state = FeedState::Completed;
                self.stats.completed += 1;
            }
            _ => {}
        }
    }

    /// Hands as many overflow batches to the channel as it will take
    /// without blocking.
    fn drain_overflow(&mut self, i: usize) {
        let feed = &mut self.feeds[i];
        while let Some(batch) = feed.overflow.pop_front() {
            let Some(sender) = feed.sender.as_mut() else {
                feed.overflow.clear();
                break;
            };
            match sender.try_send(batch) {
                Ok(None) => self.stats.batches += 1,
                Ok(Some(batch)) => {
                    feed.overflow.push_front(batch);
                    break;
                }
                Err(_) => {
                    // The runtime dropped its source (e.g. a bounded-duration
                    // device finished).  Nothing is left to deliver to.
                    let state = feed.state;
                    self.finish_consumer_gone(i, state);
                    break;
                }
            }
        }
    }

    /// The consumer went away mid-stream: a draining feed just completes,
    /// anything else counts as a failure.
    fn finish_consumer_gone(&mut self, i: usize, state: FeedState) {
        let feed = &mut self.feeds[i];
        feed.overflow.clear();
        feed.conn = None;
        feed.sender = None;
        if state == FeedState::Draining {
            feed.state = FeedState::Completed;
            self.stats.completed += 1;
        } else {
            feed.state = FeedState::Failed;
            self.stats.failed += 1;
            self.stats.errors.push((
                feed.device_id,
                AdaSenseError::ingest("the telemetry consumer disconnected mid-stream"),
            ));
        }
    }

    /// Attempts one (re)connect + handshake for a dialing feed, honoring the
    /// policy's pacing and attempt budget and the address's dial window.
    fn dial(&mut self, i: usize) {
        let feed = &mut self.feeds[i];
        if let Some(last) = feed.last_dial {
            if last.elapsed() < self.policy.delay {
                return; // not due yet; poll_ready's short timeout re-checks
            }
        }
        if self.unanswered.get(&*feed.addr).is_some_and(|&n| n >= MAX_UNANSWERED) {
            // Window full: wait for a later pass without spending budget.
            return;
        }
        feed.last_dial = Some(Instant::now());
        match Self::connect(&feed.addr, feed.device_id, feed.received_total) {
            Ok(stream) => {
                *self.unanswered.entry(Arc::clone(&feed.addr)).or_default() += 1;
                if feed.ever_connected {
                    feed.reconnects += 1;
                }
                feed.ever_connected = true;
                feed.conn = Some(Conn {
                    stream,
                    parser: StreamParser::telemetry(),
                    received_this_stream: 0,
                    answered: false,
                });
                feed.redials_left = self.policy.attempts;
                feed.state = FeedState::Streaming;
            }
            Err(e) => {
                feed.redials_left = feed.redials_left.saturating_sub(1);
                let error = AdaSenseError::ingest(format!(
                    "connecting to {} failed after {} attempts: {e}",
                    feed.addr, self.policy.attempts
                ));
                if feed.redials_left == 0 {
                    self.fail_feed(i, error, false);
                }
            }
        }
    }

    /// Dials `addr` (TCP or `unix:<path>`) and performs the client half of
    /// the handshake: stream header + RESUME naming the next batch wanted.
    /// The handshake is 29 bytes — it always fits the socket send buffer —
    /// so it is written before the socket goes nonblocking.
    fn connect(addr: &str, device_id: u64, next_batch: u64) -> std::io::Result<FeedSocket> {
        let mut stream = FeedSocket::connect(addr)?;
        let mut encoder = FrameEncoder::new();
        stream.write_all(encoder.header())?;
        stream.write_all(encoder.resume(device_id, next_batch))?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Reads everything available on one feed's connection and decodes it.
    fn read_feed(&mut self, i: usize) {
        let mut torn = false;
        {
            let feed = &mut self.feeds[i];
            let Some(conn) = feed.conn.as_mut() else { return };
            let mut block = [0u8; READ_BLOCK];
            // Bounded per readiness event so a flooding peer cannot starve
            // the other feeds or grow the parse buffer without limit.
            for _ in 0..16 {
                match conn.stream.read(&mut block) {
                    Ok(0) => {
                        torn = true;
                        break;
                    }
                    Ok(n) => {
                        conn.answered = true;
                        conn.parser.feed(&block[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        torn = true;
                        break;
                    }
                }
            }
        }
        self.decode_feed(i, torn);
    }

    /// Decodes every complete frame buffered on feed `i`, then handles a
    /// torn connection if the read hit EOF/error.
    fn decode_feed(&mut self, i: usize, torn: bool) {
        let mut batch = TelemetryBatch::placeholder();
        loop {
            let feed = &mut self.feeds[i];
            let Some(conn) = feed.conn.as_mut() else { return };
            match conn.parser.next_frame(&mut batch) {
                Ok(None) => break,
                Ok(Some(FrameKind::Batch)) => {
                    conn.received_this_stream += 1;
                    feed.received_total += 1;
                    feed.overflow
                        .push_back(std::mem::replace(&mut batch, TelemetryBatch::placeholder()));
                    self.drain_overflow(i);
                }
                Ok(Some(FrameKind::End { batches })) => {
                    let received = conn.received_this_stream;
                    if batches == received {
                        feed.conn = None;
                        feed.state = FeedState::Draining;
                    } else {
                        self.fail_feed(
                            i,
                            AdaSenseError::ingest(format!(
                                "end-of-stream count {batches} disagrees with the {received} \
                                 batches this stream delivered"
                            )),
                            true,
                        );
                    }
                    return;
                }
                Ok(Some(FrameKind::Join { device_id, .. })) => {
                    // v4 servers open every stream (fresh or resumed) with a
                    // join handshake; validate it and move on.  The carried
                    // config/start-epoch are advisory to the fleet layer.
                    if device_id != feed.device_id {
                        let expected = feed.device_id;
                        self.fail_feed(
                            i,
                            AdaSenseError::ingest(format!(
                                "join handshake names device {device_id}, but this feed \
                                 subscribed device {expected}"
                            )),
                            true,
                        );
                        return;
                    }
                    if conn.received_this_stream > 0 {
                        self.fail_feed(
                            i,
                            AdaSenseError::ingest(
                                "join handshake arrived mid-stream (after a batch frame)",
                            ),
                            true,
                        );
                        return;
                    }
                }
                Ok(Some(other)) => {
                    self.fail_feed(
                        i,
                        AdaSenseError::ingest(format!(
                            "unexpected {other:?} frame on a device telemetry feed"
                        )),
                        true,
                    );
                    return;
                }
                Err(e) => {
                    self.fail_feed(i, e, true);
                    return;
                }
            }
        }
        if torn {
            let feed = &mut self.feeds[i];
            // Partial frame bytes die with the connection; RESUME re-fetches
            // from the last complete batch.
            feed.conn = None;
            feed.state = FeedState::Dialing;
        }
    }

    /// Marks feed `i` failed with `error`; `corrupt` distinguishes lost
    /// framing from connect exhaustion in the stats.
    fn fail_feed(&mut self, i: usize, error: AdaSenseError, corrupt: bool) {
        let feed = &mut self.feeds[i];
        feed.conn = None;
        feed.sender = None; // closes the channel; the device ends early
        feed.overflow.clear();
        feed.state = FeedState::Failed;
        self.stats.failed += 1;
        if corrupt {
            self.stats.corrupt_streams += 1;
        }
        self.stats.errors.push((feed.device_id, error));
    }
}

impl Default for IngestReactor {
    /// Equivalent to [`IngestReactor::new`].
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::serve::TelemetryServe;
    use crate::ingest::TelemetryTrace;
    use crate::runtime::{SampleSource, SourceStatus};
    use adasense_sensor::{Sample3, SensorConfig};
    use std::time::Duration;

    fn sample_trace(batches: usize) -> TelemetryTrace {
        let config = SensorConfig::paper_pareto_front()[0];
        let mut trace = TelemetryTrace::new();
        for i in 0..batches {
            trace.batches.push(TelemetryBatch::new(
                config,
                2.0 * (i + 1) as f64,
                2.0,
                0,
                vec![Sample3::new(i as f64, 0.25, -0.25, 1.0)],
            ));
        }
        trace
    }

    /// Drains every batch out of `source` by walking the known tick
    /// schedule, returning the reassembled trace.
    fn drain(mut source: ChannelSource, batches: usize) -> TelemetryTrace {
        let config = SensorConfig::paper_pareto_front()[0];
        let mut out = TelemetryTrace::new();
        for i in 0..batches {
            assert_eq!(source.status(), SourceStatus::Ready, "batch {i} should be coming");
            let mut window = Vec::new();
            let t_end = 2.0 * (i + 1) as f64;
            source.capture_window(config, t_end, 2.0, &mut window);
            out.batches.push(TelemetryBatch::new(config, t_end, 2.0, 0, window));
        }
        assert_eq!(source.status(), SourceStatus::Exhausted);
        out
    }

    fn fast_policy() -> ReconnectPolicy {
        ReconnectPolicy { attempts: 10, delay: Duration::from_millis(1) }
    }

    #[test]
    fn delivers_a_full_stream() {
        let trace = sample_trace(5);
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(3, trace.clone())]).unwrap();
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
            serve.stats()
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let source = reactor.subscribe(&addr, 3);
        let consumer = std::thread::spawn(move || drain(source, 5));
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches);
        assert_eq!(
            (stats.completed, stats.failed, stats.batches, stats.reconnects),
            (1, 0, 5, 0),
            "{stats:?}"
        );
        assert_eq!(server.join().unwrap().streams_completed, 1);
    }

    #[test]
    fn kill_and_resume_delivers_every_batch_exactly_once() {
        let trace = sample_trace(6);
        // One batch frame is 60 bytes (4-byte length prefix + 24-byte head +
        // one 32-byte sample) after the 8-byte header and 22-byte JOIN
        // handshake: killing at byte 100 tears the stream inside the *second*
        // batch frame, so the client resumes from batch index 1.
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(9, trace.clone())])
            .unwrap()
            .with_kill_at(100);
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
            serve.stats()
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let source = reactor.subscribe(&addr, 9);
        let consumer = std::thread::spawn(move || drain(source, 6));
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches, "no gap, no duplicate");
        assert_eq!((stats.completed, stats.failed, stats.batches), (1, 0, 6), "{stats:?}");
        assert!(stats.reconnects >= 1, "the torn stream forced a resume: {stats:?}");
        let served = server.join().unwrap();
        assert_eq!(served.killed_streams, 1);
        assert_eq!(served.resume_requests, 1, "the reconnect asked to resume mid-trace");
    }

    #[test]
    fn a_corrupt_stream_fails_only_its_own_feed() {
        use std::io::Write as _;
        let trace = sample_trace(4);
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(1, trace.clone())]).unwrap();
        let good_addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
        });
        // A rogue peer: valid header, then garbage that can never frame.
        let rogue = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let rogue_addr = rogue.local_addr().unwrap().to_string();
        let rogue_thread = std::thread::spawn(move || {
            let (mut conn, _) = rogue.accept().unwrap();
            let mut encoder = FrameEncoder::new();
            let mut bytes = encoder.header().to_vec();
            bytes.extend_from_slice(&[0u8; 8]); // length prefix 0: instant framing error
            conn.write_all(&bytes).unwrap();
            // Hold the socket open: the reactor must fail on the bad bytes,
            // not on EOF.
            std::thread::sleep(Duration::from_millis(300));
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let good = reactor.subscribe(&good_addr, 1);
        let bad = reactor.subscribe(&rogue_addr, 2);
        let consumer = std::thread::spawn(move || drain(good, 4));
        let bad_consumer = std::thread::spawn(move || {
            // The failed feed's channel just ends: no batch ever arrives.
            let mut source = bad;
            assert_eq!(source.status(), SourceStatus::Exhausted);
        });
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches, "good feed unharmed");
        bad_consumer.join().unwrap();
        assert_eq!((stats.completed, stats.failed, stats.corrupt_streams), (1, 1, 1), "{stats:?}");
        assert_eq!(stats.errors.len(), 1);
        assert_eq!(stats.errors[0].0, 2, "the failure names the corrupt feed's device");
        assert!(
            stats.errors[0].1.to_string().contains("frame length"),
            "surfaced as a framing AdaSenseError: {}",
            stats.errors[0].1
        );
        server.join().unwrap();
        rogue_thread.join().unwrap();
    }

    #[test]
    fn handle_subscribes_feeds_while_the_reactor_runs() {
        let trace = sample_trace(4);
        let mut serve =
            TelemetryServe::bind("127.0.0.1:0", vec![(3, trace.clone()), (4, trace.clone())])
                .unwrap();
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || serve.serve_streams(2, 50).unwrap());

        // The reactor starts with zero feeds: only the open handle keeps it
        // alive, waiting for churn.
        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let handle = reactor.handle();
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        let first = handle.subscribe(&addr, 3);
        assert_eq!(drain(first, 4).batches, trace.batches);
        let second = handle.subscribe(&addr, 4);
        assert_eq!(drain(second, 4).batches, trace.batches);
        drop(handle); // last handle gone: the reactor may now exit

        let stats = runner.join().unwrap();
        assert_eq!(
            (stats.feeds, stats.joined, stats.completed, stats.failed),
            (2, 2, 2, 0),
            "{stats:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn unsubscribe_departs_the_feed_at_the_last_delivered_batch() {
        use std::io::Write as _;
        // A server that streams three batches and never sends END: without a
        // departure the feed would sit in Streaming forever.
        let trace = sample_trace(3);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut encoder = FrameEncoder::new();
            let mut bytes = encoder.header().to_vec();
            for batch in &trace.batches {
                bytes.extend_from_slice(encoder.batch(batch));
            }
            conn.write_all(&bytes).unwrap();
            // Hold the socket open until the reactor drops it on departure.
            let mut sink = [0u8; 64];
            while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let handle = reactor.handle();
        let source = reactor.subscribe(&addr, 9);
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        let (got_batches, done) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || {
            let mut source = source;
            let config = SensorConfig::paper_pareto_front()[0];
            let mut delivered = 0usize;
            for i in 0..3 {
                assert_eq!(source.status(), SourceStatus::Ready, "batch {i} should arrive");
                let mut window = Vec::new();
                source.capture_window(config, 2.0 * (i + 1) as f64, 2.0, &mut window);
                delivered += 1;
            }
            got_batches.send(()).unwrap();
            // After the departure the channel just ends — no error, no hang.
            assert_eq!(source.status(), SourceStatus::Exhausted);
            delivered
        });

        done.recv().unwrap();
        handle.unsubscribe(9);
        drop(handle);
        let stats = runner.join().unwrap();
        assert_eq!(consumer.join().unwrap(), 3, "every delivered batch was consumed");
        assert_eq!(
            (stats.departed, stats.completed, stats.failed),
            (1, 0, 0),
            "a departure is neither a completion nor a failure: {stats:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn unix_domain_feeds_deliver_like_tcp() {
        let trace = sample_trace(5);
        let dir = std::env::temp_dir().join(format!("adasense-reactor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.sock");
        let path_str = path.to_str().unwrap().to_string();
        let mut serve =
            crate::ingest::serve::TelemetryServe::bind_unix(&path_str, vec![(6, trace.clone())])
                .unwrap();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
            serve.stats()
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let source = reactor.subscribe(&format!("unix:{path_str}"), 6);
        let consumer = std::thread::spawn(move || drain(source, 5));
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches);
        assert_eq!((stats.completed, stats.failed, stats.batches), (1, 0, 5), "{stats:?}");
        assert_eq!(server.join().unwrap().streams_completed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_redials_fail_the_feed_with_an_error() {
        // Nothing listens on this ephemeral port (bind then drop to claim a
        // dead address).
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let mut reactor = IngestReactor::new()
            .with_policy(ReconnectPolicy { attempts: 2, delay: Duration::from_millis(1) });
        let source = reactor.subscribe(&dead, 4);
        let stats = reactor.run().unwrap();
        assert_eq!((stats.completed, stats.failed), (0, 1), "{stats:?}");
        assert_eq!(stats.errors[0].0, 4);
        drop(source);
    }

    #[test]
    fn a_late_server_is_redialed_until_it_comes_up() {
        // Claim a free port, then release it: nobody listens there yet.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let trace = sample_trace(3);
        let mut reactor = IngestReactor::new()
            .with_policy(ReconnectPolicy { attempts: 50, delay: Duration::from_millis(50) });
        let source = reactor.subscribe(&addr, 5);
        let subscribed = Instant::now();
        let server = {
            let trace = trace.clone();
            std::thread::spawn(move || {
                // Come up late: the reactor must keep redialing until this
                // bind succeeds.
                std::thread::sleep(Duration::from_millis(300));
                let mut serve = TelemetryServe::bind(&addr, vec![(5, trace)]).unwrap();
                serve.serve_streams(1, 50).unwrap();
                serve.stats()
            })
        };
        let consumer = std::thread::spawn(move || drain(source, 3));
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches, "byte-exact after redials");
        assert!(subscribed.elapsed() >= Duration::from_millis(300));
        assert_eq!((stats.completed, stats.failed, stats.reconnects), (1, 0, 0), "{stats:?}");
        assert_eq!(server.join().unwrap().streams_completed, 1);
    }

    #[test]
    fn recorded_faulty_run_replays_bit_identically_through_the_reactor() {
        use crate::controller::ControllerKind;
        use crate::ingest::TraceRecorder;
        use crate::runtime::{DeviceRuntime, ScenarioSource};
        use crate::scenario::{FaultInjector, FaultLevel};
        use crate::simulation::tests::shared_system;
        use crate::simulation::ScenarioSpec;

        let (spec, system) = shared_system();
        let scenario = ScenarioSpec::sit_then_walk(8.0, 8.0);
        let controller = ControllerKind::SpotWithConfidence {
            stability_threshold: 2,
            confidence_threshold: 0.85,
        };

        // Fault-injected original: recording wraps the injector, so the
        // corrupted stream is what gets replayed.
        let faulty = FaultInjector::for_device(
            ScenarioSource::new(spec, &scenario),
            FaultLevel::Heavy,
            scenario.duration_s(),
            99,
        );
        let mut original = DeviceRuntime::for_source(
            spec,
            system,
            controller,
            TraceRecorder::new(faulty),
            scenario.duration_s(),
        )
        .unwrap();
        original.run_to_completion();
        let trace = original.source().trace().clone();
        let original = original.into_report();

        // Serve the recorded trace live and replay it through one reactor.
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(7, trace)]).unwrap();
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || serve.serve_streams(1, 50).unwrap());
        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let source = reactor.subscribe(&addr, 7);
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        let mut replay = DeviceRuntime::new(spec, system, controller, source);
        replay.run_to_completion();
        let stats = runner.join().unwrap();
        server.join().unwrap();
        assert_eq!((stats.completed, stats.failed), (1, 0), "{stats:?}");
        assert_eq!(replay.into_report(), original, "reactor replay must be bit-identical");
    }

    #[test]
    fn the_dial_window_holds_per_address() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // A silent peer: accepts every connection and holds it open, but
        // never writes a byte, so none of its connections is ever answered.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let silent_addr = silent.local_addr().unwrap().to_string();
        silent.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut held = Vec::new();
                loop {
                    match silent.accept() {
                        Ok((conn, _)) => held.push(conn),
                        // Once stopped, exit only with the backlog empty, so
                        // every connection the reactor made is counted.
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            if stop.load(Ordering::SeqCst) {
                                return held.len();
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("accept failed: {e}"),
                    }
                }
            })
        };
        let trace = sample_trace(4);
        let good_ids = 1000..1004u64;
        let mut serve = TelemetryServe::bind(
            "127.0.0.1:0",
            good_ids.clone().map(|id| (id, trace.clone())).collect(),
        )
        .unwrap();
        let good_addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || serve.serve_streams(4, 50).unwrap());

        // The silent feeds subscribe first, so without a per-address window
        // they would all be dialed before the good ones.
        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let handle = reactor.handle();
        let silent_ids = 0..200u64;
        let silent_sources: Vec<_> =
            silent_ids.clone().map(|id| reactor.subscribe(&silent_addr, id)).collect();
        let good_sources: Vec<_> = good_ids.map(|id| reactor.subscribe(&good_addr, id)).collect();
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        // Every pass considers the silent feeds before the good ones, so by
        // the time the good feeds finish, any over-dialing has happened.
        for source in good_sources {
            assert_eq!(drain(source, 4).batches, trace.batches, "good feeds are byte-exact");
        }
        for id in silent_ids {
            handle.unsubscribe(id);
        }
        drop(handle);
        let stats = runner.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(acceptor.join().unwrap(), MAX_UNANSWERED, "the silent peer's window");
        assert_eq!((stats.completed, stats.departed, stats.failed), (4, 200, 0), "{stats:?}");
        server.join().unwrap();
        drop(silent_sources);
    }

    #[test]
    fn deferred_dials_keep_their_budget() {
        // More feeds than a TCP listen backlog holds, one connect attempt
        // each: a feed waiting for window room must not spend that attempt.
        const FEEDS: u64 = 300;
        let trace = sample_trace(3);
        let mut serve =
            TelemetryServe::bind("127.0.0.1:0", (0..FEEDS).map(|id| (id, trace.clone())).collect())
                .unwrap();
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || serve.serve_streams(FEEDS, 50).unwrap());

        let mut reactor = IngestReactor::new()
            .with_policy(ReconnectPolicy { attempts: 1, delay: Duration::from_millis(1) });
        // Three batches fit the channel ring, so the sources drain after run.
        let sources: Vec<_> = (0..FEEDS).map(|id| reactor.subscribe(&addr, id)).collect();
        let stats = reactor.run().unwrap();

        assert_eq!((stats.completed, stats.failed), (FEEDS, 0), "{stats:?}");
        for source in sources {
            assert_eq!(drain(source, 3).batches, trace.batches);
        }
        server.join().unwrap();
    }

    #[test]
    fn terminal_feeds_are_compacted_out() {
        const CYCLES: u64 = 20;
        let trace = sample_trace(2);
        let mut serve = TelemetryServe::bind(
            "127.0.0.1:0",
            (0..CYCLES).map(|id| (id, trace.clone())).collect(),
        )
        .unwrap()
        .with_kill_at(100)
        .with_kill_below(CYCLES / 2);
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || serve.serve_streams(CYCLES, 50).unwrap());

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let handle = reactor.handle();
        for id in 0..CYCLES {
            let source = handle.subscribe(&addr, id);
            let deadline = Instant::now() + Duration::from_secs(20);
            while reactor.stats.completed <= id {
                assert!(Instant::now() < deadline, "feed {id} never completed");
                assert!(reactor.pass().unwrap(), "an open handle keeps the reactor running");
            }
            assert_eq!(reactor.feed_count(), 0, "completed feed {id} was compacted out");
            assert_eq!(drain(source, 2).batches, trace.batches);
        }
        // The torn first streams' reconnects were folded in at compaction.
        assert_eq!(reactor.stats.reconnects, CYCLES / 2, "{:?}", reactor.stats);
        assert_eq!((reactor.stats.joined, reactor.stats.failed), (CYCLES, 0));
        // Unsubscribing a compacted feed stays a no-op.
        handle.unsubscribe(0);
        drop(handle);
        drop(reactor.handle_tx.take());
        assert!(!reactor.pass().unwrap(), "no live feed and no handle: the loop ends");
        assert_eq!(reactor.stats.departed, 0);
        server.join().unwrap();
    }
}
