//! Structured tracing, counters and JSON for the bdrst stack, std-only.
//!
//! The bottom crate owns the JSON format: [`json::Json`] is the one
//! value type, writer and parser behind the check protocol, the CLI's
//! `--json` output, log records, Chrome traces and flight dumps, so
//! every string in all of them is escaped by one function.
//!
//! Two layers, deliberately different in cost:
//!
//! * **Counters** ([`Counter`]) — a process-global fixed-slot registry of
//!   relaxed `AtomicU64`s, *always on*. One relaxed increment per event
//!   is noise next to a transition-semantics step, and keeping them
//!   unconditional is what lets the zero-probe warm/replay test suites
//!   assert on them in every build. Monotone gauges (frontier high-water,
//!   interner occupancy) live here too, via [`counter_max`].
//! * **Spans** ([`span`], [`event`]) — one fixed-capacity ring per
//!   thread, which two readers share: a profiling session
//!   ([`Recorder`]) and the [`flight`] recorder. One relaxed load of an
//!   atomic that holds both readers' on/off bits gates every span site:
//!   with both off, a span entry point is a load and a branch — **no
//!   allocation, no clock read** — so the engine's allocs-per-visit bar
//!   is untouched by the instrumentation.
//!
//! A finished span is pushed once, into its thread's single-writer ring.
//! The ring wraps and keeps its newest events; a monotone `written`
//! counter (`Release`) publishes each one, and every drain is a seqlock
//! read that discards any slot the writer may have overwritten mid-copy,
//! so a drained event is never torn. Exact per-phase aggregates (count /
//! total / self time) are kept in atomics beside the ring while a
//! profiling session runs, immune to wrap, which is what the human
//! summary reports. Timestamps come from one process-wide monotonic
//! epoch ([`now_ns`]).
//!
//! [`Recorder::stop_and_collect`] drains the events since
//! [`Recorder::install`] into a [`Profile`], exportable as Chrome
//! trace-event JSON (`chrome://tracing` / Perfetto loadable) or rendered
//! as a per-phase table; [`flight::dump`] drains the newest events of
//! every ring the same way, under the same thread ids.
//!
//! Three live-introspection layers complete the stack:
//!
//! * [`log`] — a structured JSON-lines logger (levels, per-target rate
//!   limiting, rename-based rotation), gated by one relaxed load. Each
//!   record is a [`Json`] object, rendered once for the sink and kept
//!   as a value in the recent-records ring a flight dump embeds.
//! * [`flight`] — once installed, keeps span capture on and dumps a
//!   Chrome-trace + recent-log snapshot of the rings on anomaly (slow
//!   request, worker panic, explicit `dump` command), with or without a
//!   profiling session.
//! * [`Meter`] — a per-request work counter. [`metered`] installs one on
//!   the calling thread while a closure runs, and the engine walks started
//!   there publish their work units to it in batches: the server's
//!   `status` command reports each request's own meter, and CLI
//!   `--progress` prints its meter's readings.

#![forbid(unsafe_code)]

mod counters;
pub mod flight;
pub mod json;
pub mod log;
mod phase;
mod profile;
mod progress;

pub use counters::{
    counter_add, counter_get, counter_max, counters_json, counters_reset, counters_snapshot,
    Counter, COUNTER_COUNT,
};
pub use json::Json;
pub use phase::{Phase, PHASE_COUNT};
pub use profile::{PhaseSummary, Profile, TraceEvent};
pub use progress::{current_meter, metered, Meter, MeterReading};

mod recorder;
pub use recorder::{enabled, event, now_ns, span, span_arg, Recorder, SpanGuard};
