//! The std-only readiness-loop reactor: the server's connection layer.
//!
//! One thread owns the nonblocking listener, every client socket and
//! every connection's bookkeeping. Each poll cycle it
//!
//! 1. **routes** the responses the workers finished since the last
//!    cycle: each arrives on the one completion channel tagged with its
//!    connection's id, and goes whole into that connection's write
//!    buffer (workers never touch a socket, so responses cannot
//!    interleave);
//! 2. **accepts** pending connections (atomic admission against
//!    `max_conns` via `Metrics::try_acquire_conn`;
//!    an over-limit connection is parked in a rejecting state with one
//!    `overloaded` error line queued, drained bounded, then closed —
//!    never silently dropped, never an RST over the error line);
//! 3. **writes** as much of each write buffer as the socket accepts;
//! 4. **reads** whatever each open connection has available into its
//!    read buffer (size-capped: a line over `max_request_bytes` turns
//!    the connection into a rejecting one with a `too-large` error),
//!    splits complete lines, rate-limits them, and pushes them as jobs
//!    with `JobQueue::try_push` — a full queue leaves
//!    the line in the connection's pending list and pauses reading that
//!    connection: backpressure instead of unbounded buffering;
//! 5. **closes** connections that are finished: EOF seen, no pending
//!    lines, no outstanding job, write buffer flushed. Every count in
//!    that rule lives on this thread.
//!
//! The loop never blocks on a client socket. A cycle that moves no
//! bytes parks on the completion channel for at most 500 µs: a
//! worker's send ends the park at once, so a finished job reaches its
//! socket in microseconds. For 2 ms after any byte moves the loop polls
//! eagerly (yielding, not sleeping), so an interactive client's next
//! request is read the moment it lands.
//!
//! Shutdown (driven by [`crate::server::ServerHandle::shutdown`]): the
//! queue closes and the workers drain it, their responses still flowing
//! over the channel. Each worker owns a sender and the reactor holds
//! none, so the channel reports `Disconnected` exactly when every worker
//! has exited and every response has been received. From then on the
//! reactor accepts no connection, answers every line it can still read
//! with `{"kind":"shutting-down"}`, flushes all write buffers (bounded
//! by a two-second deadline), shuts down the write halves, and exits.
//! Every accepted request line gets exactly one response.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{Metrics, Request};
use crate::server::{
    error_response, rate_limited_response, shutting_down_response, ConnGuard, Done, Job, JobQueue,
    ServeConfig, TokenBucket, TryPushError,
};

/// Upper bound on an idle park. A worker's response ends the park at
/// once; this bounds only how late an idle reactor sees new bytes or
/// new connections.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// After a cycle that moved bytes, keep polling eagerly (yielding the
/// timeslice, not sleeping) for this long before parking on the
/// completion channel: a request-response exchange keeps the loop
/// inside this window, so sequential round-trips never pay the
/// idle-poll floor on reads.
const HOT_WINDOW: Duration = Duration::from_millis(2);

/// How long a rejecting connection may take to drain before we close it
/// anyway, and how long the shutdown flush phase may run.
const REJECT_DRAIN: Duration = Duration::from_millis(200);
const FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// Per-cycle read chunk.
const READ_CHUNK: usize = 16 * 1024;

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
    /// Reactor-minted, increasing in `Reactor::conns` order: the tag a
    /// worker's response carries back.
    id: u64,
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Jobs parsed but not yet queued (the job queue was full). Each
    /// already carries its request record — minted at line birth, so
    /// queue-wait includes backpressure time.
    pending: VecDeque<Job>,
    /// Jobs in the queue or on a worker whose response has not been
    /// routed back yet.
    outstanding: usize,
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

/// Spawns the reactor thread. `listener` must already be nonblocking;
/// `done` is the receiving end of the channel every worker answers on.
pub(crate) fn spawn(
    listener: TcpListener,
    config: ServeConfig,
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    done: Receiver<Done>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        Reactor {
            listener,
            slow_ns: config.slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            config,
            queue,
            metrics,
            done: Some(done),
            conns: Vec::new(),
            next_conn_id: 0,
        }
        .run()
    })
}

struct Reactor {
    listener: TcpListener,
    config: ServeConfig,
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    /// The workers' completion channel; `None` once it reported
    /// `Disconnected` — every worker gone, every response routed — which
    /// is the flush phase of shutdown.
    done: Option<Receiver<Done>>,
    /// [`ServeConfig::slow_ms`] in nanoseconds.
    slow_ns: Option<u64>,
    /// Sorted by `id`: accepts append increasing ids and closes only
    /// remove, so a response finds its connection by binary search.
    conns: Vec<Conn>,
    next_conn_id: u64,
}

impl Reactor {
    fn run(&mut self) {
        let mut flush_deadline: Option<Instant> = None;
        let mut flush_start_ns: Option<u64> = None;
        let mut hot_until = Instant::now() + HOT_WINDOW;
        loop {
            self.route_done();
            let now = Instant::now();
            let cycle_start_ns = bdrst_obs::now_ns();
            let flushing = self.done.is_none();
            if flushing && flush_deadline.is_none() {
                flush_deadline = Some(now + FLUSH_DEADLINE);
                flush_start_ns = Some(cycle_start_ns);
            }
            let mut busy = false;
            if !flushing {
                busy |= self.accept_pass(now);
            }
            for i in 0..self.conns.len() {
                busy |= self.poll_conn(i, now);
            }
            // A dead connection's responses can never flush: retire
            // their registry entries so `status` never reports a request
            // whose client is gone. Its jobs still running retire theirs
            // when their responses arrive (`route`).
            for conn in self.conns.iter_mut().filter(|c| c.dead) {
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
                // Every response is routed; once the buffers are flat
                // (or the deadline passes) the server is fully drained.
                let drained = self
                    .conns
                    .iter()
                    .all(|c| c.wbuf.is_empty() && c.pending.is_empty() && c.outstanding == 0);
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
                            ("conns", Json::Int(self.conns.len() as i64)),
                            ("forced", Json::Bool(!drained)),
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

    /// Routes every response the workers have sent so far; notes the
    /// channel's disconnection (the flush phase).
    fn route_done(&mut self) {
        while let Some(done) = &self.done {
            match done.try_recv() {
                Ok(msg) => self.route(msg),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => self.done = None,
            }
        }
    }

    /// Parks an idle cycle on the completion channel until a worker
    /// sends (route it *now*) or [`IDLE_SLEEP`] elapses (re-poll the
    /// sockets). In the flush phase there is nothing left to wait for
    /// but socket buffers, so it sleeps.
    fn idle_park(&mut self) {
        let Some(done) = &self.done else {
            std::thread::sleep(IDLE_SLEEP);
            return;
        };
        match done.recv_timeout(IDLE_SLEEP) {
            Ok(msg) => self.route(msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => self.done = None,
        }
    }

    /// One finished response into its connection's write buffer. A
    /// response whose connection is gone (dead connections are dropped
    /// before any routing) can never flush: its registry entry retires
    /// here.
    fn route(&mut self, (conn_id, line, req): Done) {
        let Ok(i) = self.conns.binary_search_by_key(&conn_id, |c| c.id) else {
            self.metrics.inflight_done(req.id);
            return;
        };
        let conn = &mut self.conns[i];
        conn.outstanding -= 1;
        conn.wbuf.extend_from_slice(line.as_bytes());
        conn.wbuf.push(b'\n');
        conn.inflight.push(req);
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
                    self.next_conn_id += 1;
                    let mut conn = Conn {
                        id: self.next_conn_id,
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        pending: VecDeque::new(),
                        outstanding: 0,
                        inflight: Vec::new(),
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
                        &[("error", Json::Str(e.to_string()))],
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

        // Close decision: every count it reads lives on this thread.
        let conn = &mut self.conns[i];
        let settled = conn.outstanding == 0 && conn.wbuf.is_empty() && conn.pending.is_empty();
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
                if settled {
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
            let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
            bdrst_obs::log::warn(
                "server",
                "slow request",
                &[
                    ("req_id", Json::Int(req.id as i64)),
                    ("total_ms", ms(total)),
                    (
                        "queue_wait_ms",
                        ms(exec_start_ns.saturating_sub(req.enqueue_ns)),
                    ),
                    ("execute_ms", ms(exec_end_ns.saturating_sub(exec_start_ns))),
                    ("write_back_ms", ms(write_back)),
                ],
            );
            if let Some(dir) = &self.config.trace_dir {
                let _ = bdrst_obs::flight::dump_throttled(dir, "slow-request");
            }
        }
        self.metrics.inflight_done(req.id);
    }

    /// Pushes this connection's parsed-but-unqueued lines. Returns true
    /// if any job was submitted.
    fn submit_pending(&mut self, i: usize) -> bool {
        let mut any = false;
        while let Some(job) = self.conns[i].pending.pop_front() {
            // Registered before the push, so a popped job is always in
            // the registry; backed out if the queue refuses the job.
            let req_id = job.req.id;
            self.metrics.inflight_enqueued(&job.req);
            match self.queue.try_push(job) {
                Ok(depth) => {
                    self.conns[i].outstanding += 1;
                    self.metrics.note_queue_depth(depth);
                    any = true;
                }
                Err(TryPushError::Full(job)) => {
                    // The job keeps its identity (and enqueue stamp), so
                    // queue-wait includes the backpressure time.
                    self.metrics.inflight_done(req_id);
                    self.conns[i].pending.push_front(job);
                    break;
                }
                Err(TryPushError::Closed) => {
                    // Accepted but unservable: one `shutting-down` line,
                    // never a silent drop.
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
            let pos = conn.rbuf.iter().position(|b| *b == b'\n');
            // A line past the cap, or an unterminated buffer already past
            // it, is rejected the same way.
            if pos.unwrap_or(conn.rbuf.len()) > max_request {
                self.metrics.count_error("too-large");
                let resp = error_response(
                    Json::Null,
                    "too-large",
                    format!("request exceeds {max_request} bytes"),
                );
                conn.start_rejecting(now, &resp);
                return true;
            }
            let Some(pos) = pos else {
                return false;
            };
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
                conn: conn.id,
                req: Arc::new(Request::new()),
            };
            self.conns[i].pending.push_back(job);
            self.submit_pending(i);
        }
    }
}
