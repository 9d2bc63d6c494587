//! Live server counters, exposed over the protocol's `metrics` command.
//!
//! One [`Metrics`] instance is shared by the accept path, the readers
//! (or the reactor), and the worker pool of a running server. Every
//! counter is a plain atomic — recording is lock-free and wait-free on
//! the request path — and the `metrics` command renders a snapshot
//! through the same JSON shape the `cache-stats` command uses
//! (`{"id":..,"ok":true,"metrics":{...}}`).
//!
//! Counters:
//!
//! * connections: admitted / rejected / currently active / the
//!   **high-water mark** of simultaneously active connections (the
//!   observable witness that admission never exceeds
//!   [`crate::server::ServeConfig::max_conns`]);
//! * requests by command (fixed slots per protocol command plus an
//!   `other` slot for unknown commands);
//! * errors by kind (`proto`, `parse`, `budget`, `engine`,
//!   `overloaded`, `too-large`, `rate-limited`, `shutting-down`);
//! * rate-limit rejections (also counted under `errors.rate-limited`);
//! * job-queue depth high-water;
//! * slow requests: those whose time from enqueue to response flush
//!   reached [`crate::server::ServeConfig::slow_ms`];
//! * a per-command latency histogram (fixed exponential buckets,
//!   100µs → 10s, plus overflow) of the worker's handling of a line —
//!   decode, dispatch and response, without the queue-wait before it or
//!   the write-back after it, which `slow_ms` does count.
//!
//! Beyond the counters, a [`Metrics`] also carries the server's **live
//! introspection state**: the in-flight request registry behind the
//! `status` protocol command and the static [`ServerInfo`] the `health`
//! command reports against. The registry holds the same `Request`
//! record the job, the worker's response on the completion channel and
//! the reactor's write-back list hold, so
//! `status` reads each request's ID, command, phase — queue-wait /
//! execute / write-back, from which stamps are set — and
//! `states_visited`, its own work units read from its
//! [`bdrst_obs::Meter`], from the one place the server keeps them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use bdrst_obs::{Meter, Phase};

use crate::json::Json;

/// The protocol commands with dedicated counter slots; anything else
/// lands in the trailing `other` slot.
pub const COMMANDS: [&str; 12] = [
    "parse",
    "outcomes",
    "check",
    "check-localdrf",
    "check-global",
    "check-races",
    "corpus",
    "cache-stats",
    "metrics",
    "status",
    "health",
    "dump",
];

/// The error kinds with dedicated counter slots; anything else lands in
/// the trailing `other` slot.
pub const ERROR_KINDS: [&str; 8] = [
    "proto",
    "parse",
    "budget",
    "engine",
    "overloaded",
    "too-large",
    "rate-limited",
    "shutting-down",
];

/// Upper bounds (µs) of the latency histogram buckets; one overflow
/// bucket follows.
pub const LATENCY_BOUNDS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Bucket labels, rendered as the keys of each per-command histogram.
pub const LATENCY_LABELS: [&str; 7] = [
    "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "inf",
];

const CMD_SLOTS: usize = COMMANDS.len() + 1;
const KIND_SLOTS: usize = ERROR_KINDS.len() + 1;
const BUCKETS: usize = LATENCY_LABELS.len();

/// One served request, from the reactor queueing its line to the flush
/// of its response. The job, the worker's response on its way back to
/// the reactor, the connection's write-back list and the in-flight
/// registry all hold this one record; `status` derives the request's
/// phase from which stamps are set.
pub(crate) struct Request {
    /// Server-minted, process-unique; the `arg` of the request's
    /// queue-wait, execute and write-back events.
    pub(crate) id: u64,
    /// When the accepted line was queued, so queue-wait includes
    /// backpressure time before the job reaches the bounded queue.
    pub(crate) enqueue_ns: u64,
    /// The meter the request's walks publish to, so its figure counts
    /// that request's work alone.
    pub(crate) meter: Arc<Meter>,
    /// When a worker started and finished handling the line; 0 = not yet.
    exec_start_ns: AtomicU64,
    exec_end_ns: AtomicU64,
    /// The parsed `cmd` and the client-chosen `id`, once the worker has
    /// decoded the line.
    described: OnceLock<(String, Json)>,
}

impl Request {
    /// Mints the request ID and stamps the enqueue time.
    pub(crate) fn new() -> Request {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Request {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            enqueue_ns: bdrst_obs::now_ns(),
            meter: Arc::default(),
            exec_start_ns: AtomicU64::new(0),
            exec_end_ns: AtomicU64::new(0),
            described: OnceLock::new(),
        }
    }

    /// Stamps the start of execution and returns the stamp.
    pub(crate) fn start_execute(&self) -> u64 {
        let ns = bdrst_obs::now_ns().max(1);
        self.exec_start_ns.store(ns, Ordering::Release);
        ns
    }

    /// Stamps the end of execution and returns the stamp.
    pub(crate) fn end_execute(&self) -> u64 {
        let ns = bdrst_obs::now_ns().max(1);
        self.exec_end_ns.store(ns, Ordering::Release);
        ns
    }

    /// When execution started (0 if it has not).
    pub(crate) fn exec_start_ns(&self) -> u64 {
        self.exec_start_ns.load(Ordering::Acquire)
    }

    /// When execution ended (0 if it has not).
    pub(crate) fn exec_end_ns(&self) -> u64 {
        self.exec_end_ns.load(Ordering::Acquire)
    }

    /// Records the parsed command and the client-chosen `id`.
    pub(crate) fn describe(&self, cmd: &str, client_id: &Json) {
        let _ = self.described.set((cmd.to_string(), client_id.clone()));
    }

    /// What the request is doing now, as `status` reports it.
    fn phase(&self) -> Phase {
        if self.exec_end_ns() != 0 {
            Phase::WriteBack
        } else if self.exec_start_ns() != 0 {
            Phase::Execute
        } else {
            Phase::QueueWait
        }
    }
}

/// Static facts about the running server, registered once at bind time
/// and reported by the `status` / `health` commands.
#[derive(Clone, Copy, Debug)]
pub struct ServerInfo {
    /// Worker threads popping the job queue.
    pub workers: usize,
    /// Job-queue depth bound.
    pub queue_capacity: usize,
    /// Simultaneous-connection bound.
    pub max_conns: usize,
    /// `bdrst_obs::now_ns` at bind time (uptime = now − this).
    pub start_ns: u64,
}

/// Lock-free live counters of one running server.
#[derive(Default)]
pub struct Metrics {
    conns_admitted: AtomicU64,
    conns_rejected: AtomicU64,
    conns_active: AtomicU64,
    conns_high_water: AtomicU64,
    queue_high_water: AtomicU64,
    rate_limited: AtomicU64,
    slow_requests: AtomicU64,
    requests: [AtomicU64; CMD_SLOTS],
    errors: [AtomicU64; KIND_SLOTS],
    latency: [[AtomicU64; BUCKETS]; CMD_SLOTS],
    latency_sum_us: [AtomicU64; CMD_SLOTS],
    /// Live requests by server-minted request ID. Touched when a
    /// request enters the queue and when it leaves the server; phase
    /// changes and progress are written to the record itself.
    inflight: Mutex<BTreeMap<u64, Arc<Request>>>,
    server: OnceLock<ServerInfo>,
}

/// A percentile (`q` in `[0,1]`) estimated from histogram bucket counts
/// by linear interpolation inside the containing bucket.
///
/// `counts` follows [`LATENCY_BOUNDS_US`]: one count per finite bound
/// plus a trailing overflow bucket. The first bucket interpolates from
/// 0; the overflow bucket has no upper bound, so any rank landing there
/// clamps to the last finite bound (10s) — a deliberate floor that
/// keeps the estimate finite rather than inventing a tail shape.
/// Returns 0.0 for an empty histogram.
pub fn percentile_from_counts(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let upto = below + c;
        if rank <= upto as f64 {
            let lo = if i == 0 {
                0.0
            } else {
                LATENCY_BOUNDS_US[i.min(LATENCY_BOUNDS_US.len()) - 1] as f64
            };
            let hi = match LATENCY_BOUNDS_US.get(i) {
                Some(b) => *b as f64,
                None => return *LATENCY_BOUNDS_US.last().unwrap() as f64, // overflow clamps
            };
            let frac = (rank - below as f64) / c as f64;
            return lo + (hi - lo) * frac.clamp(0.0, 1.0);
        }
        below = upto;
    }
    *LATENCY_BOUNDS_US.last().unwrap() as f64
}

/// The fixed slot of a command name (`COMMANDS.len()` = other).
fn cmd_slot(cmd: &str) -> usize {
    COMMANDS
        .iter()
        .position(|c| *c == cmd)
        .unwrap_or(COMMANDS.len())
}

fn kind_slot(kind: &str) -> usize {
    ERROR_KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(ERROR_KINDS.len())
}

impl Metrics {
    /// Fresh (all-zero) counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Atomic connection admission: takes a slot in the active count
    /// and returns true, **or** observes the count already at
    /// `max_conns`, backs the increment out, records a rejection, and
    /// returns false. The increment-first shape is what makes two
    /// racing admissions safe: the loser sees the winner's increment,
    /// so the active count (and its high-water mark) never exceeds the
    /// limit.
    pub(crate) fn try_acquire_conn(&self, max_conns: usize) -> bool {
        let prev = self.conns_active.fetch_add(1, Ordering::SeqCst);
        if prev as usize >= max_conns {
            self.conns_active.fetch_sub(1, Ordering::SeqCst);
            self.conns_rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.conns_admitted.fetch_add(1, Ordering::Relaxed);
        self.conns_high_water.fetch_max(prev + 1, Ordering::SeqCst);
        true
    }

    /// Releases a slot taken by [`Metrics::try_acquire_conn`].
    pub(crate) fn release_conn(&self) {
        self.conns_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Counts one request dispatched to `cmd`.
    pub fn count_request(&self, cmd: &str) {
        self.requests[cmd_slot(cmd)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one error response of `kind`.
    pub fn count_error(&self, kind: &str) {
        self.errors[kind_slot(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one rate-limit rejection (plus its error-kind slot).
    pub fn count_rate_limited(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
        self.count_error("rate-limited");
    }

    /// Records one completed request's wall-clock latency under `cmd`.
    pub fn observe_latency(&self, cmd: &str, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|b| us <= *b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        let slot = cmd_slot(cmd);
        self.latency[slot][bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us[slot].fetch_add(us, Ordering::Relaxed);
    }

    /// Records an observed job-queue depth (keeps the maximum).
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_high_water
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Counts one slow request (end-to-end time over the server's
    /// `--slow-ms` threshold).
    pub fn count_slow_request(&self) {
        self.slow_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers the server's static facts; first call wins.
    pub(crate) fn set_server_info(&self, info: ServerInfo) {
        let _ = self.server.set(info);
    }

    /// Registers a request entering the queue. Must happen before the
    /// job becomes visible to a worker.
    pub(crate) fn inflight_enqueued(&self, req: &Arc<Request>) {
        self.inflight
            .lock()
            .unwrap()
            .insert(req.id, Arc::clone(req));
    }

    /// Removes a finished (or abandoned) request from the registry.
    pub(crate) fn inflight_done(&self, req_id: u64) {
        self.inflight.lock().unwrap().remove(&req_id);
    }

    /// Live requests currently waiting in the job queue — the `health`
    /// command's current-depth gauge (the atomic only keeps high-water).
    fn queue_waiting(&self) -> u64 {
        self.inflight
            .lock()
            .unwrap()
            .values()
            .filter(|r| r.phase() == Phase::QueueWait)
            .count() as u64
    }

    /// The `status` command's response object: server facts, live
    /// gauges, every in-flight request (ID, command, phase, elapsed
    /// time, its own work units so far), and the engine gauge snapshot.
    pub fn status_json(&self) -> Json {
        let now = bdrst_obs::now_ns();
        let entries: Vec<Json> = self
            .inflight
            .lock()
            .unwrap()
            .values()
            .map(|r| {
                let (cmd, client_id) = match r.described.get() {
                    Some((cmd, id)) => (Json::Str(cmd.clone()), id.clone()),
                    None => (Json::Null, Json::Null),
                };
                Json::obj([
                    ("req_id", Json::Int(r.id as i64)),
                    ("id", client_id),
                    ("cmd", cmd),
                    ("phase", Json::Str(r.phase().name().to_string())),
                    (
                        "elapsed_ms",
                        Json::Num(now.saturating_sub(r.enqueue_ns) as f64 / 1e6),
                    ),
                    ("states_visited", Json::Int(r.meter.units() as i64)),
                ])
            })
            .collect();
        let info = self.server.get();
        Json::obj([
            (
                "uptime_ms",
                Json::Num(
                    info.map(|i| now.saturating_sub(i.start_ns) as f64 / 1e6)
                        .unwrap_or(0.0),
                ),
            ),
            ("workers", Json::Int(info.map_or(0, |i| i.workers as i64))),
            (
                "queue",
                Json::obj([
                    ("depth", Json::Int(self.queue_waiting() as i64)),
                    (
                        "capacity",
                        Json::Int(info.map_or(0, |i| i.queue_capacity as i64)),
                    ),
                    (
                        "high_water",
                        Json::Int(self.queue_high_water.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            (
                "conns",
                Json::obj([
                    (
                        "active",
                        Json::Int(self.conns_active.load(Ordering::SeqCst) as i64),
                    ),
                    ("max", Json::Int(info.map_or(0, |i| i.max_conns as i64))),
                ]),
            ),
            (
                "slow_requests",
                Json::Int(self.slow_requests.load(Ordering::Relaxed) as i64),
            ),
            ("inflight", Json::Arr(entries)),
            ("engine", engine_gauges_json()),
        ])
    }

    /// The `health` command's verdict: `ok`, or `degraded` when the job
    /// queue is full or the connection count is at its cap (clients
    /// should back off before errors start). The server appends cache
    /// stats before responding.
    pub fn health_json(&self) -> Json {
        let info = self.server.get();
        let queue_depth = self.queue_waiting();
        let conns = self.conns_active.load(Ordering::SeqCst);
        let queue_full = info.is_some_and(|i| queue_depth >= i.queue_capacity as u64);
        let conns_full = info.is_some_and(|i| conns >= i.max_conns as u64);
        Json::obj([
            (
                "status",
                Json::Str(
                    if queue_full || conns_full {
                        "degraded"
                    } else {
                        "ok"
                    }
                    .into(),
                ),
            ),
            ("queue_full", Json::Bool(queue_full)),
            ("conns_full", Json::Bool(conns_full)),
            ("queue_depth", Json::Int(queue_depth as i64)),
            (
                "queue_capacity",
                Json::Int(info.map_or(0, |i| i.queue_capacity as i64)),
            ),
            ("conns_active", Json::Int(conns as i64)),
            (
                "max_conns",
                Json::Int(info.map_or(0, |i| i.max_conns as i64)),
            ),
            ("workers", Json::Int(info.map_or(0, |i| i.workers as i64))),
            (
                "inflight",
                Json::Int(self.inflight.lock().unwrap().len() as i64),
            ),
        ])
    }

    /// The high-water mark of simultaneously active connections.
    pub fn conns_high_water(&self) -> u64 {
        self.conns_high_water.load(Ordering::SeqCst)
    }

    /// A snapshot of every counter as the `metrics` JSON object. Maps
    /// (`requests`, `errors`, `latency`) carry only nonzero slots, so
    /// the line stays compact on lightly-used servers.
    pub fn to_json(&self) -> Json {
        let load = |a: &AtomicU64| Json::Int(a.load(Ordering::Relaxed) as i64);
        let slot_name = |names: &[&'static str], i: usize| names.get(i).copied().unwrap_or("other");
        let requests: Vec<(String, Json)> = self
            .requests
            .iter()
            .enumerate()
            .filter(|(_, a)| a.load(Ordering::Relaxed) > 0)
            .map(|(i, a)| (slot_name(&COMMANDS, i).to_string(), load(a)))
            .collect();
        let errors: Vec<(String, Json)> = self
            .errors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.load(Ordering::Relaxed) > 0)
            .map(|(i, a)| (slot_name(&ERROR_KINDS, i).to_string(), load(a)))
            .collect();
        let latency: Vec<(String, Json)> = self
            .latency
            .iter()
            .enumerate()
            .filter(|(_, row)| row.iter().any(|b| b.load(Ordering::Relaxed) > 0))
            .map(|(i, row)| {
                let counts: Vec<u64> = row.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                let mut buckets: Vec<(String, Json)> = LATENCY_LABELS
                    .iter()
                    .zip(&counts)
                    .map(|(label, c)| (label.to_string(), Json::Int(*c as i64)))
                    .collect();
                buckets.push(("sum_us".to_string(), load(&self.latency_sum_us[i])));
                for (key, q) in [("p50_us", 0.5), ("p95_us", 0.95), ("p99_us", 0.99)] {
                    buckets.push((
                        key.to_string(),
                        Json::Num(percentile_from_counts(&counts, q)),
                    ));
                }
                (slot_name(&COMMANDS, i).to_string(), Json::Obj(buckets))
            })
            .collect();
        Json::obj([
            (
                "conns",
                Json::obj([
                    ("admitted", load(&self.conns_admitted)),
                    ("rejected", load(&self.conns_rejected)),
                    (
                        "active",
                        Json::Int(self.conns_active.load(Ordering::SeqCst) as i64),
                    ),
                    ("high_water", Json::Int(self.conns_high_water() as i64)),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", Json::Int(self.queue_waiting() as i64)),
                    ("high_water", load(&self.queue_high_water)),
                ]),
            ),
            ("rate_limited", load(&self.rate_limited)),
            ("slow_requests", load(&self.slow_requests)),
            ("requests", Json::Obj(requests)),
            ("errors", Json::Obj(errors)),
            ("latency", Json::Obj(latency)),
            ("engine", engine_gauges_json()),
        ])
    }

    /// The Prometheus text exposition (version 0.0.4) of every counter:
    /// request/error counters, connection and queue gauges, per-command
    /// cumulative latency histograms, and the process-wide engine gauges
    /// from the observability registry. Every series is emitted even at
    /// zero — scrapers prefer stable series sets over compact output.
    pub fn to_prom(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let g = |out: &mut String, name: &str, kind: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        };
        let slot_name = |names: &[&'static str], i: usize| names.get(i).copied().unwrap_or("other");

        g(
            &mut out,
            "bdrst_connections_total",
            "counter",
            "Connections by admission outcome.",
        );
        for (state, a) in [
            ("admitted", &self.conns_admitted),
            ("rejected", &self.conns_rejected),
        ] {
            let _ = writeln!(
                out,
                "bdrst_connections_total{{state=\"{state}\"}} {}",
                a.load(Ordering::Relaxed)
            );
        }
        g(
            &mut out,
            "bdrst_connections_active",
            "gauge",
            "Currently active connections.",
        );
        let _ = writeln!(
            out,
            "bdrst_connections_active {}",
            self.conns_active.load(Ordering::SeqCst)
        );
        g(
            &mut out,
            "bdrst_connections_high_water",
            "gauge",
            "High-water mark of simultaneously active connections.",
        );
        let _ = writeln!(
            out,
            "bdrst_connections_high_water {}",
            self.conns_high_water()
        );
        g(
            &mut out,
            "bdrst_queue_depth",
            "gauge",
            "Requests currently waiting in the job queue.",
        );
        let _ = writeln!(out, "bdrst_queue_depth {}", self.queue_waiting());
        g(
            &mut out,
            "bdrst_queue_depth_high_water",
            "gauge",
            "High-water mark of the job-queue depth.",
        );
        let _ = writeln!(
            out,
            "bdrst_queue_depth_high_water {}",
            self.queue_high_water.load(Ordering::Relaxed)
        );
        g(
            &mut out,
            "bdrst_inflight_requests",
            "gauge",
            "Live requests (queued, executing, or flushing).",
        );
        let _ = writeln!(
            out,
            "bdrst_inflight_requests {}",
            self.inflight.lock().unwrap().len()
        );
        g(
            &mut out,
            "bdrst_rate_limited_total",
            "counter",
            "Requests rejected by the per-connection rate limiter.",
        );
        let _ = writeln!(
            out,
            "bdrst_rate_limited_total {}",
            self.rate_limited.load(Ordering::Relaxed)
        );
        g(
            &mut out,
            "bdrst_slow_requests_total",
            "counter",
            "Requests whose end-to-end time reached the slow threshold.",
        );
        let _ = writeln!(
            out,
            "bdrst_slow_requests_total {}",
            self.slow_requests.load(Ordering::Relaxed)
        );

        g(
            &mut out,
            "bdrst_requests_total",
            "counter",
            "Requests by protocol command.",
        );
        for (i, a) in self.requests.iter().enumerate() {
            let _ = writeln!(
                out,
                "bdrst_requests_total{{cmd=\"{}\"}} {}",
                slot_name(&COMMANDS, i),
                a.load(Ordering::Relaxed)
            );
        }
        g(
            &mut out,
            "bdrst_errors_total",
            "counter",
            "Error responses by kind.",
        );
        for (i, a) in self.errors.iter().enumerate() {
            let _ = writeln!(
                out,
                "bdrst_errors_total{{kind=\"{}\"}} {}",
                slot_name(&ERROR_KINDS, i),
                a.load(Ordering::Relaxed)
            );
        }

        g(
            &mut out,
            "bdrst_request_latency_us",
            "histogram",
            "Request wall-clock latency (microseconds) by command.",
        );
        for (i, row) in self.latency.iter().enumerate() {
            let cmd = slot_name(&COMMANDS, i);
            // Prometheus buckets are cumulative; ours are disjoint.
            let mut cum = 0u64;
            for (j, b) in row.iter().enumerate() {
                cum += b.load(Ordering::Relaxed);
                let le = match LATENCY_BOUNDS_US.get(j) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "bdrst_request_latency_us_bucket{{cmd=\"{cmd}\",le=\"{le}\"}} {cum}"
                );
            }
            let _ = writeln!(
                out,
                "bdrst_request_latency_us_sum{{cmd=\"{cmd}\"}} {}",
                self.latency_sum_us[i].load(Ordering::Relaxed)
            );
            let _ = writeln!(out, "bdrst_request_latency_us_count{{cmd=\"{cmd}\"}} {cum}");
        }

        g(
            &mut out,
            "bdrst_engine",
            "gauge",
            "Process-wide engine gauges from the observability registry.",
        );
        for (name, value) in bdrst_obs::counters_snapshot() {
            let _ = writeln!(out, "bdrst_engine{{gauge=\"{name}\"}} {value}");
        }
        out
    }
}

/// The engine gauges of the process-wide observability registry: every
/// counter of [`bdrst_obs::counters_json`], in the registry order
/// Prometheus exposes too, plus the rates the raw values only imply
/// (`states_per_sec`, explore visits per second of explore time; digest
/// hit rate; DPOR pruning ratio).
pub fn engine_gauges_json() -> Json {
    use bdrst_obs::Counter::*;
    let mut gauges = bdrst_obs::counters_json();
    let get = |c: bdrst_obs::Counter| gauges[c as usize].1.as_i64().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| Json::Num(if den == 0.0 { 0.0 } else { num / den });
    let (hits, misses) = (get(DigestHits), get(DigestMisses));
    let (branches, blocked) = (get(DporBranches), get(DporSleepBlocked));
    let rates = [
        (
            "states_per_sec",
            ratio(get(ExploreVisits), get(ExploreNanos) / 1e9),
        ),
        ("digest_hit_rate", ratio(hits, hits + misses)),
        ("dpor_pruning_ratio", ratio(blocked, branches + blocked)),
    ];
    gauges.extend(rates.map(|(name, v)| (name.to_string(), v)));
    Json::Obj(gauges)
}

/// The human rendering of a `metrics` response object (the JSON the
/// server's `metrics` command returns): connection/queue gauges, request
/// and error counts, and a per-command latency table: the count is the
/// sum of the histogram buckets, and p50/p95/p99 are the server's own
/// `p50_us`/`p95_us`/`p99_us`.
pub fn render_human(metrics: &Json) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let int = |v: Option<&Json>| v.and_then(Json::as_i64).unwrap_or(0);
    // A whole-valued percentile reads back as an integer.
    let num = |v: Option<&Json>| match v {
        Some(Json::Num(x)) => *x,
        other => int(other) as f64,
    };
    if let Some(conns) = metrics.get("conns") {
        let _ = writeln!(
            out,
            "connections: {} admitted, {} rejected, {} active (high water {})",
            int(conns.get("admitted")),
            int(conns.get("rejected")),
            int(conns.get("active")),
            int(conns.get("high_water")),
        );
    }
    let _ = writeln!(
        out,
        "queue depth: {} (high water {})",
        int(metrics.get_in(&["queue", "depth"])),
        int(metrics.get_in(&["queue", "high_water"])),
    );
    let _ = writeln!(out, "rate limited: {}", int(metrics.get("rate_limited")));
    let _ = writeln!(out, "slow requests: {}", int(metrics.get("slow_requests")));
    for (key, title) in [("requests", "requests"), ("errors", "errors")] {
        if let Some(Json::Obj(fields)) = metrics.get(key) {
            if !fields.is_empty() {
                let _ = writeln!(out, "{title}:");
                for (name, v) in fields {
                    let _ = writeln!(out, "  {name:<16} {}", int(Some(v)));
                }
            }
        }
    }
    if let Some(Json::Obj(rows)) = metrics.get("latency") {
        if !rows.is_empty() {
            let _ = writeln!(
                out,
                "latency (us):\n  {:<16} {:>8} {:>10} {:>10} {:>10}",
                "command", "count", "p50", "p95", "p99"
            );
            for (cmd, row) in rows {
                let count: i64 = LATENCY_LABELS.iter().map(|l| int(row.get(l))).sum();
                let _ = writeln!(
                    out,
                    "  {cmd:<16} {count:>8} {:>10.1} {:>10.1} {:>10.1}",
                    num(row.get("p50_us")),
                    num(row.get("p95_us")),
                    num(row.get("p99_us")),
                );
            }
        }
    }
    if let Some(Json::Obj(fields)) = metrics.get("engine") {
        let _ = writeln!(out, "engine:");
        for (name, v) in fields {
            match v {
                Json::Num(x) => {
                    let _ = writeln!(out, "  {name:<24} {x:.3}");
                }
                other => {
                    let _ = writeln!(out, "  {name:<24} {}", int(Some(other)));
                }
            }
        }
    }
    out
}

/// The human rendering of a `status` response object: uptime and
/// capacity gauges, then one line per in-flight request.
pub fn render_status_human(status: &Json) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let int = |v: Option<&Json>| v.and_then(Json::as_i64).unwrap_or(0);
    let num = |v: Option<&Json>| {
        v.and_then(|j| match j {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        })
        .unwrap_or(0.0)
    };
    let _ = writeln!(
        out,
        "uptime: {:.1}s, {} workers",
        num(status.get("uptime_ms")) / 1e3,
        int(status.get("workers")),
    );
    let _ = writeln!(
        out,
        "queue: {} waiting / {} capacity (high water {})",
        int(status.get_in(&["queue", "depth"])),
        int(status.get_in(&["queue", "capacity"])),
        int(status.get_in(&["queue", "high_water"])),
    );
    let _ = writeln!(
        out,
        "connections: {} active / {} max",
        int(status.get_in(&["conns", "active"])),
        int(status.get_in(&["conns", "max"])),
    );
    let _ = writeln!(out, "slow requests: {}", int(status.get("slow_requests")));
    match status.get("inflight") {
        Some(Json::Arr(entries)) if !entries.is_empty() => {
            let _ = writeln!(
                out,
                "in flight:\n  {:<8} {:<16} {:<12} {:>12} {:>14}",
                "req", "cmd", "phase", "elapsed", "states"
            );
            for e in entries {
                let cmd = e
                    .get("cmd")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                let phase = e.get("phase").and_then(Json::as_str).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "  {:<8} {:<16} {:<12} {:>10.1}ms {:>14}",
                    int(e.get("req_id")),
                    cmd,
                    phase,
                    num(e.get("elapsed_ms")),
                    int(e.get("states_visited")),
                );
            }
        }
        _ => {
            let _ = writeln!(out, "in flight: none");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_increment_first() {
        let m = Metrics::new();
        assert!(m.try_acquire_conn(2));
        assert!(m.try_acquire_conn(2));
        assert!(!m.try_acquire_conn(2), "third slot over a 2-conn limit");
        assert_eq!(m.conns_high_water(), 2);
        m.release_conn();
        assert!(m.try_acquire_conn(2));
        assert_eq!(m.conns_high_water(), 2, "high water never exceeds the cap");
    }

    #[test]
    fn snapshot_carries_only_nonzero_slots() {
        let m = Metrics::new();
        m.count_request("outcomes");
        m.count_error("budget");
        m.observe_latency("outcomes", Duration::from_millis(2));
        let j = m.to_json();
        assert_eq!(
            j.get("requests")
                .unwrap()
                .get("outcomes")
                .and_then(Json::as_i64),
            Some(1)
        );
        assert!(j.get("requests").unwrap().get("parse").is_none());
        assert_eq!(
            j.get("errors")
                .unwrap()
                .get("budget")
                .and_then(Json::as_i64),
            Some(1)
        );
        let lat = j.get("latency").unwrap().get("outcomes").unwrap();
        assert_eq!(lat.get("le_10ms").and_then(Json::as_i64), Some(1));
        assert_eq!(lat.get("inf").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn percentile_interpolation_pinned_at_bucket_boundaries() {
        // Empty histogram: no invented latency.
        assert_eq!(percentile_from_counts(&[0; 7], 0.99), 0.0);

        // First bucket interpolates from 0, and its top rank lands
        // exactly on the first bound.
        let first = [4, 0, 0, 0, 0, 0, 0];
        assert_eq!(percentile_from_counts(&first, 0.5), 50.0);
        assert_eq!(percentile_from_counts(&first, 1.0), 100.0);

        // A rank on the edge between two buckets resolves in the lower
        // bucket (<= boundary), and the next rank interpolates from the
        // lower bucket's bound.
        let split = [1, 1, 0, 0, 0, 0, 0];
        assert_eq!(percentile_from_counts(&split, 0.5), 100.0);
        assert_eq!(percentile_from_counts(&split, 0.75), 550.0);

        // Last finite bucket interpolates between 1s and 10s.
        let last = [0, 0, 0, 0, 0, 8, 0];
        assert_eq!(percentile_from_counts(&last, 0.5), 5_500_000.0);
        assert_eq!(percentile_from_counts(&last, 1.0), 10_000_000.0);

        // Overflow bucket has no upper bound: estimates clamp to the
        // last finite bound instead of inventing a tail.
        let overflow = [0, 0, 0, 0, 0, 0, 5];
        assert_eq!(percentile_from_counts(&overflow, 0.5), 10_000_000.0);
        assert_eq!(percentile_from_counts(&overflow, 0.99), 10_000_000.0);
    }

    #[test]
    fn inflight_registry_tracks_phases_and_health_degrades() {
        let m = Metrics::new();
        m.set_server_info(ServerInfo {
            workers: 2,
            queue_capacity: 1,
            max_conns: 8,
            start_ns: 0,
        });
        let req = Arc::new(Request::new());
        m.inflight_enqueued(&req);
        let h = m.health_json();
        assert_eq!(h.get("status").and_then(Json::as_str), Some("degraded"));
        assert_eq!(h.get("queue_depth").and_then(Json::as_i64), Some(1));

        req.start_execute();
        req.describe("check", &Json::Int(42));
        req.meter.add(5, 5, 10);
        let s = m.status_json();
        let inflight = s.get("inflight").and_then(Json::as_arr).unwrap();
        assert_eq!(inflight.len(), 1);
        let e = &inflight[0];
        assert_eq!(e.get("req_id").and_then(Json::as_i64), Some(req.id as i64));
        assert_eq!(e.get("id").and_then(Json::as_i64), Some(42));
        assert_eq!(e.get("cmd").and_then(Json::as_str), Some("check"));
        assert_eq!(e.get("phase").and_then(Json::as_str), Some("execute"));
        assert_eq!(e.get("states_visited").and_then(Json::as_i64), Some(5));
        // Queue drained: healthy again, even with the request executing.
        let h = m.health_json();
        assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(h.get("inflight").and_then(Json::as_i64), Some(1));

        req.end_execute();
        let s = m.status_json();
        let phase = s.get_in(&["inflight"]).and_then(Json::as_arr).unwrap()[0]
            .get("phase")
            .and_then(Json::as_str)
            .map(str::to_string);
        assert_eq!(phase.as_deref(), Some("write-back"));
        m.inflight_done(req.id);
        assert!(m
            .status_json()
            .get("inflight")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn slow_requests_render_everywhere() {
        let m = Metrics::new();
        m.count_slow_request();
        m.count_slow_request();
        assert_eq!(
            m.to_json().get("slow_requests").and_then(Json::as_i64),
            Some(2)
        );
        assert!(m.to_prom().contains("bdrst_slow_requests_total 2"));
        assert!(render_human(&m.to_json()).contains("slow requests: 2"));
    }

    #[test]
    fn human_latency_rows_print_the_servers_percentiles() {
        let m = Metrics::new();
        m.observe_latency("parse", Duration::from_micros(150));
        // Read back off the wire, as `bdrst metrics` does: the whole
        // p50 (550) arrives as an integer, p95/p99 as floats.
        let wire = Json::parse(&m.to_json().render()).unwrap();
        assert_eq!(
            wire.get_in(&["latency", "parse", "p50_us"]),
            Some(&Json::Int(550))
        );
        let row = format!(
            "  {:<16} {:>8} {:>10.1} {:>10.1} {:>10.1}",
            "parse", 1, 550.0, 955.0, 991.0
        );
        assert!(
            render_human(&wire).contains(&row),
            "{}",
            render_human(&wire)
        );
    }

    #[test]
    fn every_registry_counter_is_an_engine_key() {
        let m = Metrics::new();
        for doc in [m.to_json(), m.status_json()] {
            let engine = doc.get("engine").expect("engine object");
            for (name, _) in bdrst_obs::counters_snapshot() {
                assert!(
                    matches!(engine.get(name), Some(Json::Int(_))),
                    "engine object lacks counter {name}: {engine:?}"
                );
            }
            for rate in ["states_per_sec", "digest_hit_rate", "dpor_pruning_ratio"] {
                assert!(matches!(engine.get(rate), Some(Json::Num(_))), "{rate}");
            }
        }
    }

    #[test]
    fn unknown_slots_fold_into_other() {
        let m = Metrics::new();
        m.count_request("definitely-not-a-command");
        m.count_error("weird");
        let j = m.to_json();
        assert_eq!(
            j.get("requests")
                .unwrap()
                .get("other")
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            j.get("errors").unwrap().get("other").and_then(Json::as_i64),
            Some(1)
        );
    }
}
