//! Structured tracing and counters for the bdrst stack, std-only.
//!
//! Two layers, deliberately different in cost:
//!
//! * **Counters** ([`Counter`]) — a process-global fixed-slot registry of
//!   relaxed `AtomicU64`s, *always on*. One relaxed increment per event
//!   is noise next to a transition-semantics step, and keeping them
//!   unconditional is what lets the zero-probe warm/replay test suites
//!   assert on them in every build. Monotone gauges (frontier high-water,
//!   interner occupancy) live here too, via [`counter_max`].
//! * **Spans** ([`span`], [`event`]) — per-thread fixed-capacity event
//!   buffers behind a process-global [`Recorder`]. Recording is gated by
//!   one relaxed [`enabled`] load: until [`Recorder::install`] runs, a
//!   span entry point is a load and a branch — **no allocation, no
//!   clock read** — so the engine's allocs-per-visit bar is untouched by
//!   the instrumentation.
//!
//! When recording, each thread appends to its own single-writer ring
//! (`Relaxed` slot stores published by one `Release` length store — the
//! draining [`Recorder`] reads lengths `Acquire`); a full ring drops new
//! events and counts the drops rather than wrapping, so a drained buffer
//! never tears. Exact per-phase aggregates (count / total / self time)
//! are kept in always-written atomics beside the ring, immune to
//! overflow, which is what the human summary reports. Timestamps come
//! from one process-wide monotonic epoch ([`now_ns`]).
//!
//! [`Recorder::stop_and_collect`] drains everything into a [`Profile`],
//! exportable as Chrome trace-event JSON (`chrome://tracing` / Perfetto
//! loadable) or rendered as a per-phase table.
//!
//! Three live-introspection layers ride the same machinery:
//!
//! * [`log`] — a structured JSON-lines logger (levels, per-target rate
//!   limiting, rename-based rotation), gated by one relaxed load.
//! * [`flight`] — an always-on bounded ring of recent spans that dumps
//!   a Chrome-trace + recent-log snapshot on anomaly (slow request,
//!   worker panic, explicit `dump` command). Span sites feed it
//!   whenever it is installed, with or without a profiling session.
//! * [`progress_tick`] — engine progress ticks every N visited states
//!   to an installable [`ProgressSink`] (CLI `--progress`, the server's
//!   `status` command).

#![forbid(unsafe_code)]

mod counters;
pub mod flight;
pub mod log;
mod phase;
mod profile;
mod progress;

pub use counters::{
    counter_add, counter_get, counter_max, counters_reset, counters_snapshot, Counter,
    COUNTER_COUNT,
};
pub use phase::{Phase, PHASE_COUNT};
pub use profile::{PhaseSummary, Profile, TraceEvent};
pub use progress::{
    clear_progress_sink, install_progress_sink, progress_tick, Progress, ProgressSink,
};

mod recorder;
pub use recorder::{enabled, event, now_ns, span, span_arg, Recorder, SpanGuard};
