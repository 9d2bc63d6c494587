//! The span phase table: the static names every span carries. A fixed
//! enum (rather than arbitrary strings) is what keeps the hot path free
//! of allocation and the per-phase aggregate table a flat array.

/// A span's phase. `name()` is the label that appears in Chrome traces
/// and summaries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Phase {
    /// Litmus surface-syntax parsing.
    Parse = 0,
    /// An engine explore call (worklist or DPOR).
    Explore,
    /// `canonical_fingerprint` (state identity hashing).
    Fingerprint,
    /// Interner probe/claim under a canonical fingerprint.
    InternClaim,
    /// Source-DPOR backtrack-point / sleep-set computation for one step.
    DporBacktrack,
    /// Shared depth-first trace walk (trace recording / replay driver).
    TraceWalk,
    /// Race detection driven by the live transition semantics.
    RaceLive,
    /// Race detection replayed over a recorded trace tree.
    RaceReplay,
    /// Result-store key derivation + lookup.
    CacheLookup,
    /// One whole service request (CLI file or server line).
    Request,
    /// Server: request sat in the `JobQueue` awaiting a worker.
    QueueWait,
    /// Server: worker executing the request.
    Execute,
    /// Server: finished response waiting to reach the socket.
    WriteBack,
    /// Reactor: one poll cycle that moved bytes.
    PollCycle,
    /// Reactor: the shutdown flush phase.
    Flush,
    /// `axiomatic_outcomes`: the search for consistent executions.
    Axiomatic,
}

/// Number of phases.
pub const PHASE_COUNT: usize = 16;

const NAMES: [&str; PHASE_COUNT] = [
    "parse",
    "explore",
    "canon-fingerprint",
    "intern-claim",
    "dpor-backtrack",
    "trace-walk",
    "race-detect-live",
    "race-detect-replay",
    "cache-lookup",
    "request",
    "queue-wait",
    "execute",
    "write-back",
    "poll-cycle",
    "flush",
    "axiomatic",
];

const ALL: [Phase; PHASE_COUNT] = [
    Phase::Parse,
    Phase::Explore,
    Phase::Fingerprint,
    Phase::InternClaim,
    Phase::DporBacktrack,
    Phase::TraceWalk,
    Phase::RaceLive,
    Phase::RaceReplay,
    Phase::CacheLookup,
    Phase::Request,
    Phase::QueueWait,
    Phase::Execute,
    Phase::WriteBack,
    Phase::PollCycle,
    Phase::Flush,
    Phase::Axiomatic,
];

impl Phase {
    /// The phase's static display name.
    pub const fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    /// Every phase, in slot order.
    pub const fn all() -> [Phase; PHASE_COUNT] {
        ALL
    }
}
