//! The check server: litmus programs over TCP, newline-delimited JSON.
//!
//! # Protocol
//!
//! One request per line, one response line per request, on a plain
//! `std::net::TcpListener` socket. A request is a JSON object with a
//! `cmd` and (usually) a `source`:
//!
//! ```text
//! {"id":1,"cmd":"outcomes","source":"nonatomic a; thread P0 { a = 1; }"}
//! {"id":1,"ok":true,"cached":false,"states":1,"operational":["a=1"],"axiomatic":["a=1"]}
//! ```
//!
//! Commands: `parse`, `outcomes`, `check`, `check-localdrf` (optional
//! `locs` array, default all nonatomics), `check-global`, `check-races`
//! (dynamic detection with space/time-bounded witnesses), `corpus`,
//! `cache-stats`, `metrics` (live server counters, see
//! [`crate::metrics`]), `status` (every in-flight request with its ID,
//! phase, and `states_visited`: the request's own work units so far —
//! DFS states, DPOR extensions, recorded rows and replayed extensions
//! of the walks it ran), `health` (ok/degraded with queue and
//! connection gauges plus cache stats), `dump` (trigger a flight-recorder
//! dump; requires `--trace-dir`). Requests may lower the exploration budgets with
//! `max_states` / `max_traces` (integers, clamped to the server's own
//! limits — a present-but-non-integer budget field is a `proto` error,
//! never silently ignored); exhaustion surfaces as
//! `{"ok":false,"error":{"kind":"budget",...}}` — the same [`RunError`]
//! classification the CLI exit codes use. `max_states` bounds the
//! operational walk of a cold miss: under [`default_run_config`]'s DPOR
//! it counts executed trace extensions, and `states` in an
//! `outcomes`/`check` response is that count. `max_traces` counts work, not
//! the unfolded trace tree: the rows of the program's trace recording
//! and the extensions a replay shows its checker. `check-races` and
//! `check-localdrf` always answer by replay, so a request over either
//! bound gets the `budget` error.
//!
//! The server does not trust its clients: beyond the JSON depth guard,
//! each request line is size-capped ([`ServeConfig::max_request_bytes`],
//! error kind `too-large`, connection closed), the number of
//! simultaneous connections is bounded ([`ServeConfig::max_conns`], one
//! `overloaded` error line and a clean close for the connection over
//! the limit — admission is a single atomic increment-then-check, so
//! racing accepts can never exceed the cap), and each connection is
//! token-bucket rate limited ([`ServeConfig::rate_per_sec`] /
//! [`ServeConfig::burst`]; an over-limit request receives one
//! `{"kind":"rate-limited"}` error line with a `retry_after_ms` hint —
//! never a silent drop — and the connection stays open).
//!
//! # Architecture
//!
//! The connection layer is the std-only **readiness-loop reactor**
//! ([`crate::reactor`]): one thread owns the nonblocking listener and
//! every client socket, polling per-connection read/write buffers, so
//! idle connections cost buffers instead of threads. Parsed request
//! lines become jobs on a **bounded** queue (backpressure: a
//! connection with parsed-but-unqueued lines stops being read);
//! `workers` worker threads pop jobs, compute through the shared
//! cache-first [`CheckService`] (whose misses run on the existing engine
//! machinery — the default configuration enumerates outcomes with DPOR
//! on the worker's own thread), and send each response line, tagged
//! with its connection's id, over one channel back to the reactor. A
//! send wakes a parked reactor at once; it writes the line on the
//! connection's next writable cycle — whole lines, never interleaved
//! bytes.
//!
//! Shutdown is drain-then-close: [`ServerHandle::shutdown`] closes the
//! queue, the workers complete every queued job and exit, and the
//! channel disconnects once the last worker's sender drops — the
//! reactor's signal that every response is in, to stop accepting, flush
//! and exit. A request line the closed queue refuses receives one
//! `{"kind":"shutting-down"}` error line before its connection closes.
//! Every accepted request produces exactly one response line.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use bdrst_core::engine::Strategy;
use bdrst_litmus::{classify_entries, CorpusVerdict, RunConfig, RunError};

use crate::json::Json;
use crate::metrics::{Metrics, Request, ServerInfo};
use crate::reactor;
use crate::service::{outcome_strings, CheckService, Checked};
use crate::store::ResultStore;

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads popping the job queue (0 = available cores).
    pub workers: usize,
    /// Bound of the job queue; connections with parsed-but-unqueued
    /// requests stop being read (backpressure) when full.
    pub queue_depth: usize,
    /// Maximum simultaneous client connections. A connection over the
    /// limit receives one `{"ok":false,"error":{"kind":"overloaded"}}`
    /// line and is closed — a clean rejection, never a hang. Admission
    /// is atomic (increment first, back out on overflow), so the
    /// active-connection high-water mark never exceeds this cap.
    pub max_conns: usize,
    /// Per-request size cap in bytes (on top of the JSON depth guard).
    /// A longer line gets a `kind":"too-large"` error and the
    /// connection is closed: the reader never buffers unbounded input.
    pub max_request_bytes: usize,
    /// Per-connection token-bucket refill rate, requests per second.
    /// `0` disables rate limiting. An over-limit request gets one
    /// `{"kind":"rate-limited"}` error line carrying `retry_after_ms`;
    /// the connection stays open.
    pub rate_per_sec: u32,
    /// Token-bucket capacity: how many requests a connection may burst
    /// above the steady rate (clamped to ≥ 1 when rate limiting is on).
    pub burst: u32,
    /// When set, the flight recorder is installed and its dumps land
    /// here (slow requests, worker panics, the `dump` command). Each
    /// dump holds every recent request's queue-wait, execute and
    /// write-back events, tagged with its request ID. `None` (the
    /// default) installs no recorder.
    pub trace_dir: Option<PathBuf>,
    /// A request whose time from enqueue to response flush reaches this
    /// many milliseconds is counted under the `slow_requests` metric,
    /// logged as a structured `warn` record with its queue-wait /
    /// execute / write-back split, and triggers a throttled flight dump
    /// (a no-op without `trace_dir`). `Some(0)` flags every request;
    /// `None` (the default) disables the slow path.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            max_conns: 256,
            max_request_bytes: 1 << 20,
            rate_per_sec: 0,
            burst: 8,
            trace_dir: None,
            slow_ms: None,
        }
    }
}

/// The default run configuration for served checks: misses enumerate
/// outcomes with DPOR (one trace per equivalence class, no state graph
/// held; its executed extensions count against `max_states`), default
/// budgets.
pub fn default_run_config() -> RunConfig {
    RunConfig {
        strategy: Strategy::Dpor,
        ..RunConfig::default()
    }
}

/// A per-connection token bucket: `rate` tokens per second refill up to
/// `burst`; each request takes one token.
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket from the config knobs; `None` when rate limiting is off.
    pub(crate) fn from_config(config: &ServeConfig) -> Option<TokenBucket> {
        if config.rate_per_sec == 0 {
            return None;
        }
        let burst = f64::from(config.burst.max(1));
        Some(TokenBucket {
            rate: f64::from(config.rate_per_sec),
            burst,
            tokens: burst,
            last: Instant::now(),
        })
    }

    /// Takes one token, or reports how long (ms) until one is available.
    pub(crate) fn try_take(&mut self, now: Instant) -> Result<(), u64> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let wait_s = (1.0 - self.tokens) / self.rate;
            Err((wait_s * 1000.0).ceil() as u64)
        }
    }
}

/// One queued request: the raw line, the id of the connection that sent
/// it, and the request's record (identity, stamps, meter), shared with
/// the reactor and the in-flight registry.
pub(crate) struct Job {
    pub(crate) line: String,
    pub(crate) conn: u64,
    pub(crate) req: Arc<Request>,
}

/// A finished job as a worker sends it back to the reactor: the
/// connection id, the response line and the request's record.
pub(crate) type Done = (u64, String, Arc<Request>);

/// Why [`JobQueue::try_push`] did not take a job.
pub(crate) enum TryPushError {
    /// The queue is at its depth bound; the job comes back to the
    /// caller for a retry after a pop.
    Full(Job),
    /// The queue is closed; the job will never be served — the caller
    /// must answer its client (`shutting-down`).
    Closed,
}

/// A bounded MPMC job queue: `try_push` refuses while full, `pop` blocks
/// while empty and wakes on close. `pop` keeps returning queued jobs after
/// close (drain-then-stop), so closing never abandons accepted work.
pub(crate) struct JobQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    depth: usize,
}

struct QueueInner {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    pub(crate) fn new(depth: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: std::collections::VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Nonblocking push for the reactor: never stalls the poll loop.
    pub(crate) fn try_push(&self, job: Job) -> Result<usize, TryPushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(TryPushError::Closed);
        }
        if inner.jobs.len() >= self.depth {
            return Err(TryPushError::Full(job));
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until a job is available; `None` when closed **and**
    /// drained — every job queued before `close` is still popped.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    pub(crate) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }
}

/// A running check server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters (the same snapshot the `metrics`
    /// command serves).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// **Drains** the queue (workers finish every job queued before the
    /// close and their responses are delivered), then joins every
    /// thread. A request line the queue refuses after the close receives
    /// one `{"kind":"shutting-down"}` error line — shutdown never
    /// silently drops an accepted request.
    pub fn shutdown(mut self) {
        // `pop` drains queued jobs after close, so every accepted
        // request is computed before the workers exit. The last exit
        // drops the last completion sender: the reactor sees the
        // channel disconnect, stops accepting, flushes and exits.
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` and serves until [`ServerHandle::shutdown`]. The service
/// (store + run config) is shared across all workers.
///
/// # Errors
///
/// I/O errors binding the listener.
pub fn serve(
    service: Arc<CheckService>,
    addr: &str,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let queue = Arc::new(JobQueue::new(config.queue_depth));
    let metrics = Arc::new(Metrics::new());

    let worker_count = if config.workers == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    } else {
        config.workers
    };
    metrics.set_server_info(ServerInfo {
        workers: worker_count,
        queue_capacity: config.queue_depth.max(1),
        max_conns: config.max_conns.max(1),
        start_ns: bdrst_obs::now_ns(),
    });
    if config.trace_dir.is_some() {
        bdrst_obs::flight::install();
    }
    bdrst_obs::log::info(
        "server",
        "listening",
        &[
            ("addr", Json::Str(addr.to_string())),
            ("workers", Json::Int(worker_count as i64)),
        ],
    );
    // Each worker owns a sender; the reactor holds none, so the channel
    // disconnects exactly when the last worker exits.
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let workers = (0..worker_count)
        .map(|_| {
            let done_tx = done_tx.clone();
            let trace_dir = config.trace_dir.clone();
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    let req = &job.req;
                    let exec_start_ns = req.start_execute();
                    // A panicking handler must not take the worker (and
                    // with it a fraction of the pool) down: log it, dump
                    // the flight recorder while the rings still hold the
                    // lead-up, and answer the client with an `engine`
                    // error — every accepted request still gets exactly
                    // one response line.
                    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        bdrst_obs::metered(&req.meter, || {
                            handle_line_metered(
                                &service,
                                Some((&metrics, req)),
                                trace_dir.as_deref(),
                                &job.line,
                            )
                        })
                    }))
                    .unwrap_or_else(|_| {
                        bdrst_obs::log::error(
                            "server",
                            "worker panicked handling a request",
                            &[("req_id", Json::Int(req.id as i64))],
                        );
                        if let Some(dir) = &trace_dir {
                            let _ = bdrst_obs::flight::dump_throttled(dir, "worker-panic");
                        }
                        metrics.count_error("engine");
                        error_response(
                            Json::Null,
                            "engine",
                            "internal error: request handler panicked".into(),
                        )
                    });
                    let exec_end_ns = req.end_execute();
                    bdrst_obs::event(
                        bdrst_obs::Phase::QueueWait,
                        req.enqueue_ns,
                        exec_start_ns.saturating_sub(req.enqueue_ns),
                        req.id,
                    );
                    bdrst_obs::event(
                        bdrst_obs::Phase::Execute,
                        exec_start_ns,
                        exec_end_ns.saturating_sub(exec_start_ns),
                        req.id,
                    );
                    // Fails only once the reactor is gone, and with it
                    // the client socket.
                    let _ = done_tx.send((job.conn, response.render(), job.req));
                }
            })
        })
        .collect();
    drop(done_tx);

    listener.set_nonblocking(true)?;
    let accept = reactor::spawn(
        listener,
        config,
        Arc::clone(&queue),
        Arc::clone(&metrics),
        done_rx,
    );

    Ok(ServerHandle {
        addr,
        queue,
        metrics,
        accept: Some(accept),
        workers,
    })
}

/// One admitted connection's slot in the live count: taken atomically at
/// admission ([`Metrics::try_acquire_conn`] — increment first, back out
/// on overflow, so concurrent admissions never exceed the cap), released
/// when the connection's owner drops the guard (whatever the path — EOF,
/// error, size-cap close, queue shutdown).
pub(crate) struct ConnGuard(Arc<Metrics>);

impl ConnGuard {
    /// Atomic admit-or-reject against `max_conns`.
    pub(crate) fn try_admit(metrics: &Arc<Metrics>, max_conns: usize) -> Option<ConnGuard> {
        metrics
            .try_acquire_conn(max_conns)
            .then(|| ConnGuard(Arc::clone(metrics)))
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.release_conn();
    }
}

pub(crate) fn error_response(id: Json, kind: &str, message: String) -> Json {
    Json::obj([
        ("id", id),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::Str(kind.to_string())),
                ("message", Json::Str(message)),
            ]),
        ),
    ])
}

/// The `rate-limited` error line: carries `retry_after_ms` so a client
/// can back off precisely instead of guessing.
pub(crate) fn rate_limited_response(retry_after_ms: u64) -> Json {
    Json::obj([
        ("id", Json::Null),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::Str("rate-limited".into())),
                (
                    "message",
                    Json::Str("per-connection request rate exceeded".into()),
                ),
                ("retry_after_ms", Json::Int(retry_after_ms as i64)),
            ]),
        ),
    ])
}

/// The `shutting-down` error line: the request was accepted but the
/// server is draining; the client should reconnect elsewhere/later.
pub(crate) fn shutting_down_response() -> Json {
    error_response(
        Json::Null,
        "shutting-down",
        "server is shutting down; request not served".into(),
    )
}

fn run_error_response(id: Json, e: &RunError) -> Json {
    error_response(id, e.kind(), e.to_string())
}

/// Handles one request line; always returns a single JSON response.
/// Without a server context there are no live counters, so the
/// `metrics`, `status`, and `health` commands are `proto` errors here.
pub fn handle_line(service: &CheckService, line: &str) -> Json {
    handle_line_metered(service, None, None, line)
}

/// [`handle_line`] with the server's live counters and the request's
/// record: counts the request under its command, classifies error
/// responses by kind, and records the worker's handling time into the
/// per-command histogram. Once the line parses, the record is annotated
/// with the command and the client-chosen `id`, so `status` can name
/// what each worker is doing. `trace_dir` is where this server's `dump`
/// command writes; `None` makes `dump` a `proto` error.
fn handle_line_metered(
    service: &CheckService,
    server: Option<(&Metrics, &Request)>,
    trace_dir: Option<&Path>,
    line: &str,
) -> Json {
    let metrics = server.map(|(m, _)| m);
    let start = Instant::now();
    // The request is counted *before* dispatch, so a `metrics` snapshot
    // includes the request that asked for it.
    let count = |cmd: &str| {
        if let Some(m) = metrics {
            m.count_request(cmd);
        }
    };
    let (cmd_name, response) = match Json::parse(line) {
        Err(e) => {
            count("other");
            (
                "other".to_string(),
                error_response(Json::Null, "proto", e.to_string()),
            )
        }
        Ok(req) => {
            let id = req.get("id").cloned().unwrap_or(Json::Null);
            match req.get("cmd").and_then(Json::as_str) {
                None => {
                    count("other");
                    (
                        "other".to_string(),
                        error_response(id, "proto", "missing `cmd`".into()),
                    )
                }
                Some(cmd) => {
                    count(cmd);
                    if let Some((_, req)) = server {
                        req.describe(cmd, &id);
                    }
                    let response = match handle_cmd(service, metrics, trace_dir, cmd, &req) {
                        Ok(mut fields) => {
                            let mut all =
                                vec![("id".to_string(), id), ("ok".to_string(), Json::Bool(true))];
                            if let Json::Obj(rest) = &mut fields {
                                all.append(rest);
                            }
                            Json::Obj(all)
                        }
                        Err(HandleError::Run(e)) => run_error_response(id, &e),
                        Err(HandleError::Proto(msg)) => error_response(id, "proto", msg),
                    };
                    (cmd.to_string(), response)
                }
            }
        }
    };
    if let Some(m) = metrics {
        if let Some(kind) = response.get_in(&["error", "kind"]).and_then(Json::as_str) {
            m.count_error(kind);
        }
        m.observe_latency(&cmd_name, start.elapsed());
    }
    response
}

enum HandleError {
    Run(RunError),
    Proto(String),
}

impl From<RunError> for HandleError {
    fn from(e: RunError) -> HandleError {
        HandleError::Run(e)
    }
}

/// Reads an optional budget field: absent is fine, an integer is a cap,
/// anything else is a protocol error. The previous behaviour —
/// silently ignoring `"max_states":"10"` — meant a client that
/// believed it tightened its budget ran under the server's full
/// budgets instead.
fn budget_field(req: &Json, name: &str) -> Result<Option<usize>, HandleError> {
    match req.get(name) {
        None => Ok(None),
        Some(v) => match v.as_i64() {
            Some(i) => Ok(Some(i.max(0) as usize)),
            None => Err(HandleError::Proto(format!(
                "`{name}` must be an integer, got {}",
                v.render()
            ))),
        },
    }
}

/// Resolves the per-request service: the shared one, or a
/// budget-restricted sibling over the same store when the request lowers
/// `max_states` / `max_traces` (requests can only tighten budgets, never
/// exceed the server's). Present-but-non-integer budget fields are
/// `proto` errors, never silently ignored.
fn request_service(service: &CheckService, req: &Json) -> Result<CheckService, HandleError> {
    let states = budget_field(req, "max_states")?;
    let traces = budget_field(req, "max_traces")?;
    Ok(if states.is_none() && traces.is_none() {
        service.fork()
    } else {
        service.fork_tightened(states, traces)
    })
}

fn checked_for(service: &CheckService, req: &Json) -> Result<Checked, HandleError> {
    let source = req
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| HandleError::Proto("missing `source`".into()))?;
    Ok(service.check_source(source)?)
}

fn handle_cmd(
    service: &CheckService,
    metrics: Option<&Metrics>,
    trace_dir: Option<&Path>,
    cmd: &str,
    req: &Json,
) -> Result<Json, HandleError> {
    let service = request_service(service, req)?;
    match cmd {
        "parse" => {
            let source = req
                .get("source")
                .and_then(Json::as_str)
                .ok_or_else(|| HandleError::Proto("missing `source`".into()))?;
            let program = bdrst_lang::Program::parse(source)
                .map_err(|e| HandleError::Run(RunError::Parse(e.to_string())))?;
            Ok(Json::obj([
                ("canonical", Json::Str(program.to_source())),
                ("threads", Json::Int(program.threads.len() as i64)),
                (
                    "locations",
                    Json::Arr(
                        program
                            .locs
                            .iter()
                            .map(|l| {
                                Json::obj([
                                    ("name", Json::Str(program.locs.name(l).to_string())),
                                    ("kind", Json::Str(program.locs.kind(l).to_string())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        "outcomes" | "check" => {
            let checked = checked_for(&service, req)?;
            let mut response = check_json(&checked);
            if cmd == "check" {
                // Optional verdicts against a built-in test's checks. An
                // unknown name is a protocol error, not a silent success —
                // clients must not mistake a typo for a pass.
                if let Some(name) = req.get("name").and_then(Json::as_str) {
                    let test = bdrst_litmus::all_tests()
                        .into_iter()
                        .find(|t| t.name == name)
                        .ok_or_else(|| {
                            HandleError::Proto(format!("no built-in test named {name:?}"))
                        })?;
                    let rep = service.report(test, &checked);
                    if let Json::Obj(fields) = &mut response {
                        fields.push(("passed".to_string(), Json::Bool(rep.passes())));
                    }
                }
            }
            Ok(response)
        }
        "check-localdrf" => {
            let checked = checked_for(&service, req)?;
            let locs: Vec<String> = req
                .get("locs")
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            let holds = service.local_drf(&checked, &locs)?;
            Ok(Json::obj([
                ("cached", Json::Bool(checked.cached)),
                ("holds", Json::Bool(holds)),
            ]))
        }
        "check-global" => {
            let checked = checked_for(&service, req)?;
            let had_verdict = checked.entry.global_racefree.get().is_some();
            let racefree = service.global_racefree(&checked)?;
            Ok(Json::obj([
                ("cached", Json::Bool(checked.cached && had_verdict)),
                ("racefree", Json::Bool(racefree)),
            ]))
        }
        "check-races" => {
            let checked = checked_for(&service, req)?;
            Ok(races_json(&service, &checked)?.0)
        }
        "corpus" => {
            let entries = service.check_corpus();
            Ok(corpus_json(&entries, service.store()))
        }
        "cache-stats" => Ok(Json::obj([("cache", stats_json(service.store()))])),
        "metrics" => {
            let m = metrics.ok_or_else(|| {
                HandleError::Proto("metrics are only available on a running server".into())
            })?;
            match req.get("format").and_then(Json::as_str) {
                Some("prom") => Ok(Json::obj([("prom", Json::Str(m.to_prom()))])),
                Some(other) => Err(HandleError::Proto(format!(
                    "unknown metrics format `{other}` (expected \"prom\")"
                ))),
                None => Ok(Json::obj([("metrics", m.to_json())])),
            }
        }
        "status" => {
            let m = metrics.ok_or_else(|| {
                HandleError::Proto("status is only available on a running server".into())
            })?;
            Ok(Json::obj([("status", m.status_json())]))
        }
        "health" => {
            let m = metrics.ok_or_else(|| {
                HandleError::Proto("health is only available on a running server".into())
            })?;
            let mut health = m.health_json();
            if let Json::Obj(fields) = &mut health {
                fields.push(("cache".to_string(), stats_json(service.store())));
            }
            Ok(Json::obj([("health", health)]))
        }
        "dump" => {
            let dir = trace_dir.ok_or_else(|| {
                HandleError::Proto(
                    "flight recorder is not installed (start the server with --trace-dir)".into(),
                )
            })?;
            let path = bdrst_obs::flight::dump(dir, "protocol")
                .map_err(|e| HandleError::Proto(format!("flight dump failed: {e}")))?;
            Ok(Json::obj([("path", Json::Str(path.display().to_string()))]))
        }
        other => Err(HandleError::Proto(format!("unknown cmd `{other}`"))),
    }
}

/// The `check` response body — `{cached, states, operational,
/// axiomatic, models_agree}` — shared by the server's `check` and
/// `outcomes` responses and the CLI's `check --json` entries.
pub fn check_json(checked: &Checked) -> Json {
    let outcomes = |set| {
        Json::Arr(
            outcome_strings(&checked.program, set)
                .into_iter()
                .map(Json::Str)
                .collect(),
        )
    };
    Json::obj([
        ("cached", Json::Bool(checked.cached)),
        ("states", Json::Int(checked.entry.visited_states as i64)),
        ("operational", outcomes(&checked.entry.op)),
        ("axiomatic", outcomes(&checked.entry.ax)),
        (
            "models_agree",
            Json::Bool(checked.entry.op == checked.entry.ax),
        ),
    ])
}

/// Runs race detection on a checked program and renders the
/// `check-races` response body — `{cached, racy, events, witnesses}` —
/// shared by the server's response and the CLI's `races --json`
/// entries; the report comes back beside it. "cached" means warm end to
/// end: the entry came from the store *and* already carried its trace
/// recording, read before detection records one.
///
/// # Errors
///
/// As [`CheckService::check_races`].
pub fn races_json(
    service: &CheckService,
    checked: &Checked,
) -> Result<(Json, bdrst_race::RaceReport), RunError> {
    let cached = checked.cached && checked.entry.trace.get().is_some();
    let report = service.check_races(checked)?;
    let json = Json::obj([
        ("cached", Json::Bool(cached)),
        ("racy", Json::Bool(report.racy())),
        ("events", Json::Int(report.events as i64)),
        (
            "witnesses",
            Json::Arr(
                report
                    .witnesses
                    .iter()
                    .map(|w| witness_json(&checked.program, w))
                    .collect(),
            ),
        ),
    ]);
    Ok((json, report))
}

/// One [`bdrst_race::RaceWitness`] as a JSON object — the shape shared
/// by the server's `check-races` response and the CLI's `races --json`
/// output (locations by name, the space/time bounds made explicit, the
/// windowed trace rendered line by line).
pub fn witness_json(program: &bdrst_lang::Program, w: &bdrst_race::RaceWitness) -> Json {
    let name = |l: bdrst_core::loc::Loc| program.locs.name(l).to_string();
    Json::obj([
        ("loc", Json::Str(name(w.loc))),
        (
            "threads",
            Json::Arr(vec![
                Json::Str(w.threads.0.to_string()),
                Json::Str(w.threads.1.to_string()),
            ]),
        ),
        (
            "actions",
            Json::Arr(vec![
                Json::Str(w.actions.0.to_string()),
                Json::Str(w.actions.1.to_string()),
            ]),
        ),
        (
            "window",
            Json::Arr(vec![Json::Int(w.first as i64), Json::Int(w.second as i64)]),
        ),
        ("time_bound", Json::Int(w.time_bound() as i64)),
        (
            "space",
            Json::Arr(
                w.space_bound()
                    .iter()
                    .map(|l| Json::Str(name(*l)))
                    .collect(),
            ),
        ),
        (
            "trace",
            Json::Arr(w.trace.iter().map(|l| Json::Str(l.to_string())).collect()),
        ),
    ])
}

/// The corpus-sweep summary object — `{verdict, tests, cache}` — shared
/// verbatim by the server's `corpus` command and the CLI's `--json`
/// output, so the two surfaces cannot drift.
pub fn corpus_json(
    entries: &[(String, Result<bdrst_litmus::TestReport, RunError>)],
    store: &ResultStore,
) -> Json {
    let verdict = classify_entries(entries);
    let tests = entries
        .iter()
        .map(|(name, r)| {
            Json::obj([
                ("name", Json::Str(name.clone())),
                (
                    "status",
                    Json::Str(match r {
                        Ok(rep) if rep.passes() => "pass".into(),
                        Ok(_) => "mismatch".into(),
                        Err(e) => format!("error:{}", e.kind()),
                    }),
                ),
            ])
        })
        .collect();
    Json::obj([
        (
            "verdict",
            Json::Str(
                match verdict {
                    CorpusVerdict::Pass => "pass",
                    CorpusVerdict::CheckFailed => "check-failed",
                    CorpusVerdict::RunFailed => "run-failed",
                }
                .into(),
            ),
        ),
        ("tests", Json::Arr(tests)),
        ("cache", stats_json(store)),
    ])
}

/// Cache counters as a JSON object (shared with the CLI output).
pub fn stats_json(store: &ResultStore) -> Json {
    let s = store.stats();
    Json::obj([
        ("hits", Json::Int(s.hits as i64)),
        ("misses", Json::Int(s.misses as i64)),
        ("collisions", Json::Int(s.collisions as i64)),
        ("disk_hits", Json::Int(s.disk_hits as i64)),
        ("disk_errors", Json::Int(s.disk_errors as i64)),
        ("insertions", Json::Int(s.insertions as i64)),
        ("entries", Json::Int(s.entries as i64)),
    ])
}
