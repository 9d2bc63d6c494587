//! The std-only readiness-loop reactor: the server's connection layer.
//!
//! One thread owns the nonblocking listener and every client socket.
//! Each poll cycle it
//!
//! 1. **accepts** pending connections (atomic admission against
//!    `max_conns` via `Metrics::try_acquire_conn`;
//!    an over-limit connection is parked in a rejecting state with one
//!    `overloaded` error line queued, drained bounded, then closed —
//!    never silently dropped, never an RST over the error line);
//! 2. **drains** each connection's `Outbox` — response lines the
//!    workers finished since the last cycle — into its write buffer and
//!    writes as much as the socket accepts (whole lines enter the
//!    buffer atomically, so concurrent workers never interleave bytes);
//! 3. **reads** whatever each open connection has available into its
//!    read buffer (size-capped: a line over `max_request_bytes` turns
//!    the connection into a rejecting one with a `too-large` error),
//!    splits complete lines, rate-limits them, and pushes them as jobs
//!    with `JobQueue::try_push` — a full queue leaves
//!    the line in the connection's pending list and pauses reading that
//!    connection: backpressure instead of unbounded buffering;
//! 4. **closes** connections that are finished: EOF seen, no pending
//!    lines, every submitted job answered, write buffer flushed.
//!
//! The loop never blocks on a client socket. A cycle that moves no
//! bytes parks on the `Waker` pipe — a loopback socket pair whose
//! write half the workers poke when they deposit a response — so a
//! finished job wakes the reactor immediately instead of waiting out
//! the rest of a 500 µs poll cycle. For 2 ms after
//! any byte moves the loop polls eagerly (yielding, not sleeping), so
//! an interactive client's next request is read the moment it lands;
//! only a connection idle past the window falls back to the
//! 500 µs-bounded park.
//!
//! Shutdown (driven by [`crate::server::ServerHandle::shutdown`]): the
//! `stop` flag stops accepting; the queue closes and the workers drain
//! it (responses keep flowing through the outboxes); once the workers
//! are done the `flush` flag tells the reactor to answer every line it
//! can still read with `{"kind":"shutting-down"}`, flush all write
//! buffers (bounded by a two-second deadline), shut down the write halves,
//! and exit. Every accepted request line gets exactly one response.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{Metrics, Request};
use crate::server::{
    error_response, rate_limited_response, shutting_down_response, ConnGuard, Job, JobQueue,
    ServeConfig, TokenBucket, TryPushError,
};

/// Upper bound on an idle park: with a live wakeup pipe the park ends
/// as soon as a worker pokes; this timeout only bounds how stale the
/// stop/flush flags can get (and is the fallback poll cadence if the
/// pipe could not be built).
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// After a cycle that moved bytes, keep polling eagerly (yielding the
/// timeslice, not sleeping) for this long before parking on the wakeup
/// pipe: a request-response exchange keeps the loop inside this window,
/// so sequential round-trips never pay the idle-poll floor on reads.
const HOT_WINDOW: Duration = Duration::from_millis(2);

/// How long a rejecting connection may take to drain before we close it
/// anyway, and how long the shutdown flush phase may run.
const REJECT_DRAIN: Duration = Duration::from_millis(200);
const FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// Per-cycle read chunk.
const READ_CHUNK: usize = 16 * 1024;

/// The reactor's wakeup pipe. std has no `pipe(2)`, so it is a loopback
/// TCP pair: the write half is shared with every connection's [`Outbox`]
/// (and through it the workers), the read half is what the reactor
/// parks on when a cycle moves no bytes. A worker that deposits a
/// response line pokes one byte and the park ends immediately — the
/// response hits the socket in microseconds instead of waiting out the
/// rest of a fixed [`IDLE_SLEEP`].
pub(crate) struct Waker {
    tx: TcpStream,
    /// Collapses redundant pokes: set by the first `wake` after a
    /// `rearm`, so a burst of completions sends one byte, not one per
    /// response, and the pipe's buffer can never fill under load.
    pending: AtomicBool,
}

impl Waker {
    /// Builds the pipe. Returns the shared write half and the read half
    /// (owned by the reactor thread, reads bounded by [`IDLE_SLEEP`]).
    fn pipe() -> std::io::Result<(Arc<Waker>, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        rx.set_read_timeout(Some(IDLE_SLEEP))?;
        Ok((
            Arc::new(Waker {
                tx,
                pending: AtomicBool::new(false),
            }),
            rx,
        ))
    }

    /// Pokes the reactor. Wait-free for the caller: one nonblocking
    /// 1-byte write, skipped when a poke is already in flight.
    fn wake(&self) {
        if self.pending.swap(true, Ordering::SeqCst) {
            return;
        }
        // WouldBlock means unread pokes already fill the socket buffer,
        // so the reactor is waking regardless; any other error merely
        // leaves it on the IDLE_SLEEP cadence — degraded latency, never
        // a stall or a lost response.
        let _ = (&self.tx).write(&[1]);
    }

    /// Re-arms the pipe. Called at the top of every reactor cycle,
    /// *before* any outbox is inspected: a `wake` racing the inspection
    /// at worst leaves one spurious byte in the pipe (a free extra
    /// cycle), never a lost wakeup.
    fn rearm(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// A connection's response mailbox: workers deposit finished lines, the
/// reactor collects them on its next cycle. `submitted` counts jobs the
/// reactor queued for this connection, `completed` the responses
/// deposited — the connection may close only when they match and the
/// lines have been drained, so a response can never be lost between a
/// worker and the socket.
pub(crate) struct Outbox {
    lines: Mutex<Vec<(String, Arc<Request>)>>,
    submitted: AtomicUsize,
    completed: AtomicUsize,
    /// Pokes the reactor awake on every deposit; `None` when the wakeup
    /// pipe could not be built and the reactor is on its poll cadence.
    waker: Option<Arc<Waker>>,
}

impl Outbox {
    fn new(waker: Option<Arc<Waker>>) -> Outbox {
        Outbox {
            lines: Mutex::new(Vec::new()),
            submitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            waker,
        }
    }

    /// Called by a worker with the finished response line and the
    /// request's record, so the reactor can stamp the write-back when
    /// the line actually reaches the socket.
    pub(crate) fn complete(&self, line: &str, req: Arc<Request>) {
        let mut lines = self.lines.lock().unwrap();
        lines.push((line.to_string(), req));
        // Bumped under the lock: once a reader of `completed` sees the
        // count, the line is already in the vector.
        self.completed.fetch_add(1, Ordering::SeqCst);
        drop(lines);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }

    fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::SeqCst);
    }

    fn unsubmit(&self) {
        self.submitted.fetch_sub(1, Ordering::SeqCst);
    }

    /// True when every submitted job has deposited its response.
    fn is_idle(&self) -> bool {
        // `submitted` only changes on the reactor thread, so sampling
        // it after `completed` cannot race a new submission.
        self.completed.load(Ordering::SeqCst) == self.submitted.load(Ordering::SeqCst)
    }

    fn drain(&self) -> Vec<(String, Arc<Request>)> {
        std::mem::take(&mut *self.lines.lock().unwrap())
    }
}

enum ConnState {
    /// Reading requests normally.
    Open,
    /// The client half-closed; serve what was submitted, then close.
    Eof,
    /// The connection was refused (`overloaded`) or misbehaved
    /// (`too-large`): its error line is queued, its reads are discarded
    /// (bounded), and it closes at `deadline` or client EOF, whichever
    /// comes first.
    Rejecting {
        deadline: Instant,
        discarded: usize,
        eof: bool,
    },
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Jobs parsed but not yet queued (the job queue was full). Each
    /// already carries its request record — minted at line birth, so
    /// queue-wait includes backpressure time.
    pending: VecDeque<Job>,
    outbox: Arc<Outbox>,
    /// Requests whose response lines sit in `wbuf`: their write-back is
    /// stamped (and the slow path run) when the buffer drains.
    inflight: Vec<Arc<Request>>,
    bucket: Option<TokenBucket>,
    state: ConnState,
    /// Present on admitted connections; releases the `max_conns` slot
    /// on drop, whatever path closed the connection.
    _guard: Option<ConnGuard>,
    /// Set on a fatal socket error: drop without further ceremony.
    dead: bool,
}

impl Conn {
    fn queue_line(&mut self, resp: &Json) {
        self.wbuf.extend_from_slice(resp.render().as_bytes());
        self.wbuf.push(b'\n');
    }

    fn start_rejecting(&mut self, now: Instant, resp: &Json) {
        self.queue_line(resp);
        self.rbuf.clear();
        self.pending.clear();
        self.state = ConnState::Rejecting {
            deadline: now + REJECT_DRAIN,
            discarded: 0,
            eof: false,
        };
    }
}

/// Spawns the reactor thread. `listener` must already be nonblocking.
pub(crate) fn spawn(
    listener: TcpListener,
    config: ServeConfig,
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    flush: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Built on the reactor thread; if loopback is unavailable the
        // loop degrades to the fixed IDLE_SLEEP poll cadence.
        let (waker, wake_rx) = match Waker::pipe() {
            Ok((waker, rx)) => (Some(waker), Some(rx)),
            Err(_) => (None, None),
        };
        Reactor {
            listener,
            slow_ns: config.slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            config,
            queue,
            metrics,
            stop,
            flush,
            conns: Vec::new(),
            waker,
            wake_rx,
        }
        .run()
    })
}

struct Reactor {
    listener: TcpListener,
    config: ServeConfig,
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    flush: Arc<AtomicBool>,
    /// [`ServeConfig::slow_ms`] in nanoseconds.
    slow_ns: Option<u64>,
    conns: Vec<Conn>,
    /// Shared write half of the wakeup pipe (cloned into each outbox).
    waker: Option<Arc<Waker>>,
    /// Read half: what an idle cycle parks on, timeout [`IDLE_SLEEP`].
    wake_rx: Option<TcpStream>,
}

impl Reactor {
    fn run(&mut self) {
        let mut flush_deadline: Option<Instant> = None;
        let mut flush_start_ns: Option<u64> = None;
        let mut hot_until = Instant::now() + HOT_WINDOW;
        loop {
            // Re-arm before inspecting any outbox: a completion landing
            // from here on pokes a byte even if this very cycle drains
            // its line — a spurious wakeup at worst, never a lost one.
            if let Some(waker) = &self.waker {
                waker.rearm();
            }
            let now = Instant::now();
            let cycle_start_ns = bdrst_obs::now_ns();
            let flushing = self.flush.load(Ordering::SeqCst);
            if flushing && flush_deadline.is_none() {
                flush_deadline = Some(now + FLUSH_DEADLINE);
                flush_start_ns = Some(cycle_start_ns);
            }
            let mut busy = false;
            if !self.stop.load(Ordering::SeqCst) {
                busy |= self.accept_pass(now);
            }
            for i in 0..self.conns.len() {
                busy |= self.poll_conn(i, now);
            }
            // A dead connection's responses can never flush: retire
            // their registry entries (from the write buffer and from
            // the outbox alike) so `status` never reports a request
            // whose client is gone.
            for conn in self.conns.iter_mut().filter(|c| c.dead) {
                for (_, req) in conn.outbox.drain() {
                    self.metrics.inflight_done(req.id);
                }
                for req in conn.inflight.drain(..) {
                    self.metrics.inflight_done(req.id);
                }
            }
            self.conns.retain(|c| !c.dead);
            if busy && bdrst_obs::enabled() {
                // Busy cycles only: an idle reactor must not fill the
                // span rings with empty poll iterations.
                bdrst_obs::event(
                    bdrst_obs::Phase::PollCycle,
                    cycle_start_ns,
                    bdrst_obs::now_ns().saturating_sub(cycle_start_ns),
                    self.conns.len() as u64,
                );
            }
            if flushing {
                // Workers are gone and every response line is in its
                // outbox; once the buffers are flat (or the deadline
                // passes) the server is fully drained.
                let drained = self
                    .conns
                    .iter()
                    .all(|c| c.wbuf.is_empty() && c.pending.is_empty() && c.outbox.is_idle());
                if (drained && !busy) || flush_deadline.is_some_and(|d| now >= d) {
                    if let Some(start) = flush_start_ns {
                        bdrst_obs::event(
                            bdrst_obs::Phase::Flush,
                            start,
                            bdrst_obs::now_ns().saturating_sub(start),
                            self.conns.len() as u64,
                        );
                    }
                    bdrst_obs::log::info(
                        "reactor",
                        "drained; shutting down",
                        &[
                            ("conns", bdrst_obs::log::Field::U64(self.conns.len() as u64)),
                            ("forced", bdrst_obs::log::Field::Bool(!drained)),
                        ],
                    );
                    break;
                }
            }
            if busy {
                hot_until = now + HOT_WINDOW;
            } else if now < hot_until {
                // Recently active: the next request is likely already in
                // flight. Yield (don't sleep) so it is read on arrival —
                // and, on a loaded box, so the workers get the core.
                std::thread::yield_now();
            } else {
                self.idle_park();
            }
        }
        // A clean goodbye: the client reads every delivered response
        // line and then EOF, instead of a reset.
        for c in &self.conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Write);
        }
    }

    /// Parks an idle cycle: blocks on the wakeup pipe until a worker
    /// pokes (response ready — wake *now*) or [`IDLE_SLEEP`] elapses
    /// (re-poll sockets and the stop/flush flags). Any pipe failure
    /// drops back to the plain sleep permanently.
    fn idle_park(&mut self) {
        let Some(rx) = &mut self.wake_rx else {
            std::thread::sleep(IDLE_SLEEP);
            return;
        };
        let mut buf = [0u8; 64];
        match rx.read(&mut buf) {
            // Poked (any byte count), or the timeout elapsed: either way
            // the loop runs another cycle. Leftover poke bytes beyond the
            // scratch just end the next park early — harmless.
            Ok(n) if n > 0 => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // EOF or a real error: the pipe is gone; poll from now on.
            _ => self.wake_rx = None,
        }
    }

    /// Accepts every connection the listener has pending. Returns true
    /// if anything was accepted.
    fn accept_pass(&mut self, now: Instant) -> bool {
        let max_conns = self.config.max_conns.max(1);
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    any = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let guard = ConnGuard::try_admit(&self.metrics, max_conns);
                    let mut conn = Conn {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        pending: VecDeque::new(),
                        inflight: Vec::new(),
                        outbox: Arc::new(Outbox::new(self.waker.clone())),
                        bucket: TokenBucket::from_config(&self.config),
                        state: ConnState::Open,
                        _guard: None,
                        dead: false,
                    };
                    match guard {
                        Some(g) => conn._guard = Some(g),
                        None => {
                            // Atomic admission: the loser of the race
                            // gets one error line and a drained, clean
                            // close.
                            self.metrics.count_error("overloaded");
                            let resp = error_response(
                                Json::Null,
                                "overloaded",
                                format!("server at its {max_conns}-connection limit"),
                            );
                            conn.start_rejecting(now, &resp);
                        }
                    }
                    self.conns.push(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    bdrst_obs::log::warn(
                        "reactor",
                        "accept failed",
                        &[("error", bdrst_obs::log::Field::Str(&e.to_string()))],
                    );
                    break;
                }
            }
        }
        any
    }

    /// One cycle over one connection. Returns true if any bytes moved.
    fn poll_conn(&mut self, i: usize, now: Instant) -> bool {
        let mut busy = false;

        // Worker responses → write buffer. Whole lines only: workers
        // never touch the socket, so responses cannot interleave.
        {
            let conn = &mut self.conns[i];
            for (line, req) in conn.outbox.drain() {
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
                conn.inflight.push(req);
            }
        }

        // Flush as much of the write buffer as the socket will take.
        {
            let conn = &mut self.conns[i];
            while !conn.wbuf.is_empty() {
                match conn.stream.write(&conn.wbuf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wbuf.drain(..n);
                        busy = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead {
                return busy;
            }
            // Buffer flat: every in-flight response reached the socket —
            // stamp their write-backs and retire the registry entries.
            if conn.wbuf.is_empty() && !conn.inflight.is_empty() {
                let flush_ns = bdrst_obs::now_ns();
                for req in std::mem::take(&mut conn.inflight) {
                    self.flushed(&req, flush_ns);
                }
            }
        }

        // Retry pending lines (queue was full on an earlier cycle).
        busy |= self.submit_pending(i);

        // Read pass.
        busy |= self.read_pass(i, now);

        // Close decision. The ordering that makes this safe: `is_idle`
        // is sampled *first*; a completed count implies the line is
        // already deposited (bumped under the outbox lock), so the
        // re-drain below catches anything a worker finished since the
        // top-of-cycle drain — a response can never be lost to the
        // close.
        let conn = &mut self.conns[i];
        let settled = conn.outbox.is_idle() && {
            for (line, req) in conn.outbox.drain() {
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
                conn.inflight.push(req);
            }
            conn.wbuf.is_empty()
        };
        match conn.state {
            ConnState::Rejecting { deadline, eof, .. } => {
                // Close once the error line (and any straggler worker
                // responses) are out and the client has stopped talking
                // — or at the deadline, so a silent client cannot camp
                // on the slot.
                if settled && (eof || now >= deadline) {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    conn.dead = true;
                }
            }
            ConnState::Eof => {
                if settled && conn.pending.is_empty() {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    conn.dead = true;
                }
            }
            ConnState::Open => {}
        }
        busy
    }

    /// A request's response reached the socket at `flush_ns`: emits its
    /// write-back event, runs the slow path when its enqueue → flush
    /// time reaches [`ServeConfig::slow_ms`] (count, `warn` record with
    /// the phase split, throttled flight dump), and retires it.
    fn flushed(&self, req: &Request, flush_ns: u64) {
        let exec_end_ns = req.exec_end_ns();
        let write_back = flush_ns.saturating_sub(exec_end_ns);
        bdrst_obs::event(bdrst_obs::Phase::WriteBack, exec_end_ns, write_back, req.id);
        let total = flush_ns.saturating_sub(req.enqueue_ns);
        if self.slow_ns.is_some_and(|t| total >= t) {
            self.metrics.count_slow_request();
            let exec_start_ns = req.exec_start_ns();
            let ms = |ns: u64| bdrst_obs::log::Field::F64(ns as f64 / 1e6);
            bdrst_obs::log::warn(
                "server",
                "slow request",
                &[
                    ("req_id", bdrst_obs::log::Field::U64(req.id)),
                    ("total_ms", ms(total)),
                    (
                        "queue_wait_ms",
                        ms(exec_start_ns.saturating_sub(req.enqueue_ns)),
                    ),
                    ("execute_ms", ms(exec_end_ns.saturating_sub(exec_start_ns))),
                    ("write_back_ms", ms(write_back)),
                ],
            );
            let _ = bdrst_obs::flight::dump_throttled("slow-request");
        }
        self.metrics.inflight_done(req.id);
    }

    /// Pushes this connection's parsed-but-unqueued lines. Returns true
    /// if any job was submitted.
    fn submit_pending(&mut self, i: usize) -> bool {
        let mut any = false;
        while let Some(job) = self.conns[i].pending.pop_front() {
            let outbox = Arc::clone(&self.conns[i].outbox);
            outbox.note_submitted();
            // Registered before the push, so a popped job is always in
            // the registry; backed out if the queue refuses the job.
            let req_id = job.req.id;
            self.metrics.inflight_enqueued(&job.req);
            match self.queue.try_push(job) {
                Ok(depth) => {
                    self.metrics.note_queue_depth(depth);
                    any = true;
                }
                Err(TryPushError::Full(job)) => {
                    // The job keeps its identity (and enqueue stamp), so
                    // queue-wait includes the backpressure time.
                    outbox.unsubmit();
                    self.metrics.inflight_done(req_id);
                    self.conns[i].pending.push_front(job);
                    break;
                }
                Err(TryPushError::Closed) => {
                    // Accepted but unservable: one `shutting-down` line,
                    // never a silent drop.
                    outbox.unsubmit();
                    self.metrics.inflight_done(req_id);
                    self.metrics.count_error("shutting-down");
                    let resp = shutting_down_response();
                    self.conns[i].queue_line(&resp);
                    any = true;
                }
            }
        }
        any
    }

    /// Reads available bytes and turns complete lines into jobs.
    /// Returns true if any bytes were read.
    fn read_pass(&mut self, i: usize, now: Instant) -> bool {
        let max_request = self.config.max_request_bytes.max(1);
        // Backpressure: while earlier lines wait for queue space (or a
        // rejection is draining its bounded discard budget), cap how
        // much more this connection may buffer.
        if matches!(self.conns[i].state, ConnState::Eof) || !self.conns[i].pending.is_empty() {
            return false;
        }
        let mut scratch = [0u8; READ_CHUNK];
        let mut any = false;
        loop {
            let conn = &mut self.conns[i];
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    match &mut conn.state {
                        ConnState::Rejecting { eof, .. } => *eof = true,
                        state => *state = ConnState::Eof,
                    }
                    break;
                }
                Ok(n) => {
                    any = true;
                    match &mut conn.state {
                        ConnState::Rejecting { discarded, .. } => {
                            // Bounded discard: absorbing the client's
                            // in-flight bytes keeps the close a clean
                            // FIN instead of an RST over the error line.
                            *discarded += n;
                            if *discarded > 16 * max_request {
                                conn.dead = true;
                                break;
                            }
                        }
                        _ => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            if self.split_lines(i, now) {
                                // Entered a rejecting state (too-large).
                                break;
                            }
                            if !self.conns[i].pending.is_empty() {
                                break; // backpressure: stop reading
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        any
    }

    /// Splits complete lines out of the read buffer and dispatches
    /// them. Returns true when the connection flipped to rejecting.
    fn split_lines(&mut self, i: usize, now: Instant) -> bool {
        let max_request = self.config.max_request_bytes.max(1);
        loop {
            let conn = &mut self.conns[i];
            let Some(pos) = conn.rbuf.iter().position(|b| *b == b'\n') else {
                if conn.rbuf.len() > max_request {
                    self.metrics.count_error("too-large");
                    let resp = error_response(
                        Json::Null,
                        "too-large",
                        format!("request exceeds {max_request} bytes"),
                    );
                    self.conns[i].start_rejecting(now, &resp);
                    return true;
                }
                return false;
            };
            if pos > max_request {
                self.metrics.count_error("too-large");
                let resp = error_response(
                    Json::Null,
                    "too-large",
                    format!("request exceeds {max_request} bytes"),
                );
                self.conns[i].start_rejecting(now, &resp);
                return true;
            }
            let line_bytes: Vec<u8> = conn.rbuf.drain(..=pos).collect();
            let Ok(line) = String::from_utf8(line_bytes) else {
                self.metrics.count_error("proto");
                let resp = error_response(Json::Null, "proto", "request is not UTF-8".into());
                conn.queue_line(&resp);
                continue;
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            // Per-connection token bucket: the over-limit request is
            // answered with a retry hint, the connection stays open.
            if let Some(bucket) = conn.bucket.as_mut() {
                if let Err(retry_ms) = bucket.try_take(now) {
                    self.metrics.count_rate_limited();
                    let resp = rate_limited_response(retry_ms);
                    conn.queue_line(&resp);
                    continue;
                }
            }
            let job = Job {
                line: line.to_string(),
                out: Arc::clone(&conn.outbox),
                req: Arc::new(Request::new()),
            };
            self.conns[i].pending.push_back(job);
            self.submit_pending(i);
        }
    }
}
