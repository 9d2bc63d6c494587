//! The span ring: one per-thread buffer that both the profiler
//! ([`Recorder`]) and the flight recorder ([`crate::flight`]) read.
//!
//! Concurrency story, in full:
//!
//! * Each thread owns one [`Ring`] and is its only writer. The ring
//!   wraps: event number `i` lives in slot `i % RING_CAPACITY`, and a
//!   monotone `written` counter, bumped with `Release` after the slot
//!   words are stored `Relaxed`, publishes it.
//! * Every drain is a seqlock read ([`Ring::drain`]): load `written`
//!   `Acquire`, copy the slots, `fence(Acquire)`, load `written` again,
//!   and discard every index `≤ written₂ − capacity` — the slots the
//!   writer may have overwritten mid-copy, the one it may be filling
//!   now included. A `fence(Release)` before the writer's slot stores
//!   makes the second load see any overwrite the copy saw, so a drained
//!   event is never torn.
//! * A profiling session does not clear the rings: [`Recorder::install`]
//!   records each ring's `written` as the session start, and
//!   [`Recorder::stop_and_collect`] drains from there. Session events
//!   the ring wrapped over are counted as dropped; the per-phase
//!   aggregates beside the ring are exact regardless.
//! * Rings are `Arc`-shared with a global registry and therefore
//!   outlive their thread; a worker that exits before a drain still
//!   gets drained, under the same `tid` by both readers.
//! * One atomic holds the on/off bit of each reader. A span site with
//!   both off is one `Relaxed` load: no clock read, no allocation.

use std::cell::{OnceCell, RefCell};
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::counters::{counter_add, Counter};
use crate::phase::{Phase, PHASE_COUNT};
use crate::profile::{PhaseSummary, Profile, TraceEvent};

/// Events one thread's ring holds; a power of two, so an index maps to
/// its slot by a mask.
const RING_CAPACITY: u64 = 8192;

/// [`SINKS`] bit: a [`Recorder`] session is active.
pub(crate) const PROFILE: u8 = 1;
/// [`SINKS`] bit: the flight recorder is installed.
pub(crate) const FLIGHT: u8 = 2;

pub(crate) static SINKS: AtomicU8 = AtomicU8::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Serialises the tests that start or stop a reader: the rings and the
/// sink bits are process-global.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

/// True while a [`Recorder`] session is active.
#[inline]
pub fn enabled() -> bool {
    SINKS.load(Ordering::Relaxed) & PROFILE != 0
}

/// Nanoseconds since the process-wide monotonic epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Slot {
    phase: AtomicU64,
    start: AtomicU64,
    dur: AtomicU64,
    arg: AtomicU64,
}

struct PhaseAgg {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
}

pub(crate) struct Ring {
    tid: u64,
    name: String,
    /// Events ever pushed; event `i` lives in slot `i % RING_CAPACITY`.
    written: AtomicU64,
    /// `written` when the current profiling session began.
    session_start: AtomicU64,
    slots: Box<[Slot]>,
    /// Session aggregates, written only while profiling.
    agg: [PhaseAgg; PHASE_COUNT],
}

impl Ring {
    fn new() -> Ring {
        Ring {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: std::thread::current()
                .name()
                .unwrap_or("worker")
                .to_string(),
            written: AtomicU64::new(0),
            session_start: AtomicU64::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    phase: AtomicU64::new(0),
                    start: AtomicU64::new(0),
                    dur: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                })
                .collect(),
            agg: std::array::from_fn(|_| PhaseAgg {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                self_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Owner-side append: overwrite the oldest slot, then publish.
    fn push(&self, phase: Phase, start_ns: u64, dur_ns: u64, arg: u64) {
        let w = self.written.load(Ordering::Relaxed);
        // Orders the publication of `w` before the stores below: a drain
        // that copies any of them then sees `written ≥ w` and discards
        // the slot.
        fence(Ordering::Release);
        let s = &self.slots[(w % RING_CAPACITY) as usize];
        s.phase.store(phase as u64, Ordering::Relaxed);
        s.start.store(start_ns, Ordering::Relaxed);
        s.dur.store(dur_ns, Ordering::Relaxed);
        s.arg.store(arg, Ordering::Relaxed);
        self.written.store(w + 1, Ordering::Release);
    }

    /// Pushes one event once, and folds it into the session aggregates
    /// when `sinks` has a profiling session on.
    fn record(&self, sinks: u8, phase: Phase, start_ns: u64, dur_ns: u64, self_ns: u64, arg: u64) {
        self.push(phase, start_ns, dur_ns, arg);
        if sinks & PROFILE != 0 {
            let a = &self.agg[phase as usize];
            a.count.fetch_add(1, Ordering::Relaxed);
            a.total_ns.fetch_add(dur_ns, Ordering::Relaxed);
            a.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        }
    }

    /// The seqlock read: the events with index `≥ from` among the newest
    /// `window`, none of them torn, and the index of the first one kept
    /// (every index below it is lost to the window or to wrap).
    fn drain(&self, from: u64, window: u64) -> (Vec<TraceEvent>, u64) {
        let w1 = self.written.load(Ordering::Acquire);
        let lo = from.max(w1.saturating_sub(window));
        let mut events = Vec::with_capacity(w1.saturating_sub(lo) as usize);
        for i in lo..w1 {
            let s = &self.slots[(i % RING_CAPACITY) as usize];
            let phase_idx = (s.phase.load(Ordering::Relaxed) as usize).min(PHASE_COUNT - 1);
            events.push(TraceEvent {
                phase: Phase::all()[phase_idx],
                tid: self.tid,
                start_ns: s.start.load(Ordering::Relaxed),
                dur_ns: s.dur.load(Ordering::Relaxed),
                arg: s.arg.load(Ordering::Relaxed),
            });
        }
        fence(Ordering::Acquire);
        let w2 = self.written.load(Ordering::Relaxed);
        // The writer may be filling event w2's slot, which held event
        // w2 − capacity: that index and every older one may be torn.
        let first = (w2 + 1)
            .saturating_sub(RING_CAPACITY)
            .clamp(lo, lo + events.len() as u64);
        events.drain(..(first - lo) as usize);
        (events, first)
    }
}

thread_local! {
    static RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    /// Per-open-span accumulator of child durations, for self-time.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_ring(f: impl FnOnce(&Ring)) {
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Ring::new());
            RINGS.lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        f(ring)
    });
}

/// Drains every registered ring into one profile: per ring, the events
/// with index `≥ from(ring)` among its newest `window`. `dropped` counts
/// the events at or past `from` that the window or the wrap lost.
pub(crate) fn drain_rings(window: u64, from: impl Fn(&Ring) -> u64) -> Profile {
    let mut profile = Profile::default();
    for ring in RINGS.lock().unwrap().iter() {
        let start = from(ring);
        let (events, first) = ring.drain(start, window);
        let dropped = first.saturating_sub(start);
        if !events.is_empty() || dropped > 0 {
            profile.threads.push((ring.tid, ring.name.clone()));
        }
        profile.events.extend(events);
        profile.dropped += dropped;
    }
    profile
}

/// An open span; the measurement lands when it drops. Obtain with
/// [`span`] / [`span_arg`].
pub struct SpanGuard {
    phase: Phase,
    start_ns: u64,
    arg: u64,
    live: bool,
}

/// Opens a span of `phase` on this thread. Inert (one relaxed load)
/// unless a [`Recorder`] session or the flight recorder is active.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    span_arg(phase, 0)
}

/// [`span`] with the free argument slot filled.
#[inline]
pub fn span_arg(phase: Phase, arg: u64) -> SpanGuard {
    if SINKS.load(Ordering::Relaxed) == 0 {
        return SpanGuard {
            phase,
            start_ns: 0,
            arg,
            live: false,
        };
    }
    STACK.with(|s| s.borrow_mut().push(0));
    SpanGuard {
        phase,
        start_ns: now_ns(),
        arg,
        live: true,
    }
}

impl SpanGuard {
    /// Overwrites the span's argument slot (e.g. with a result count
    /// known only at the end).
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        // Pop this span's child accumulator; credit our duration to the
        // parent's, so the parent's self-time excludes us.
        let child_ns = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += dur_ns;
            }
            child
        });
        let sinks = SINKS.load(Ordering::Relaxed);
        if sinks != 0 {
            let self_ns = dur_ns.saturating_sub(child_ns);
            with_ring(|r| r.record(sinks, self.phase, self.start_ns, dur_ns, self_ns, self.arg));
        }
    }
}

/// Records one already-measured event (explicit start and duration) on
/// the current thread — for cross-thread measurements like queue-wait,
/// where the interval's endpoints were stamped by different actors. Does
/// not participate in self-time nesting.
#[inline]
pub fn event(phase: Phase, start_ns: u64, dur_ns: u64, arg: u64) {
    let sinks = SINKS.load(Ordering::Relaxed);
    if sinks != 0 {
        with_ring(|r| r.record(sinks, phase, start_ns, dur_ns, dur_ns, arg));
    }
}

/// The process-global recording session handle.
///
/// `install` / `stop_and_collect` are meant to bracket a single-owner
/// session (a CLI run, a benchmark lane): `install` resets the session
/// aggregates, so it must not race in-flight spans.
pub struct Recorder;

impl Recorder {
    /// Starts a session: marks where each registered ring stands, resets
    /// the per-phase aggregates and enables span recording process-wide.
    /// The rings keep their events, so a flight dump still sees them.
    /// Counters are *not* reset (they are always-on; diff snapshots
    /// instead).
    pub fn install() {
        let _ = EPOCH.get_or_init(Instant::now);
        // Holding the registry lock while the bit flips means a ring
        // registered concurrently either gets its start marked here or
        // is born into the session with start 0.
        let rings = RINGS.lock().unwrap();
        for ring in rings.iter() {
            let w = ring.written.load(Ordering::Relaxed);
            ring.session_start.store(w, Ordering::Relaxed);
            for a in &ring.agg {
                a.count.store(0, Ordering::Relaxed);
                a.total_ns.store(0, Ordering::Relaxed);
                a.self_ns.store(0, Ordering::Relaxed);
            }
        }
        SINKS.fetch_or(PROFILE, Ordering::SeqCst);
    }

    /// True while a session is active.
    pub fn active() -> bool {
        enabled()
    }

    /// Ends the session and drains the events each ring recorded since
    /// it began into a [`Profile`] (an empty one if no session was
    /// active). Spans still open on other threads when this runs finish
    /// recording harmlessly but may miss the drain.
    pub fn stop_and_collect() -> Profile {
        if SINKS.fetch_and(!PROFILE, Ordering::SeqCst) & PROFILE == 0 {
            return Profile::default();
        }
        let mut profile = drain_rings(RING_CAPACITY, |r| r.session_start.load(Ordering::Relaxed));
        counter_add(Counter::SpansDropped, profile.dropped);
        let mut agg = [(0u64, 0u64, 0u64); PHASE_COUNT];
        for ring in RINGS.lock().unwrap().iter() {
            for (i, a) in ring.agg.iter().enumerate() {
                agg[i].0 += a.count.load(Ordering::Relaxed);
                agg[i].1 += a.total_ns.load(Ordering::Relaxed);
                agg[i].2 += a.self_ns.load(Ordering::Relaxed);
            }
        }
        for (i, (count, total_ns, self_ns)) in agg.into_iter().enumerate() {
            if count > 0 {
                profile.phases.push(PhaseSummary {
                    phase: Phase::all()[i],
                    count,
                    total_ns,
                    self_ns,
                });
            }
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test drives the whole session lifecycle: the recorder is
    // process-global, so independent #[test]s would race each other's
    // install/stop.
    #[test]
    fn session_records_spans_events_and_self_time() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        drop(span(Phase::Parse)); // inert: no session
        Recorder::install();
        assert!(Recorder::active());
        {
            let _outer = span_arg(Phase::Explore, 42);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(Phase::Fingerprint);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        event(Phase::QueueWait, 10, 20, 7);
        let t = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| drop(span(Phase::Parse)))
            .unwrap();
        t.join().unwrap();
        let profile = Recorder::stop_and_collect();
        assert!(!enabled());

        let find = |p: Phase| profile.phases.iter().find(|s| s.phase == p);
        let explore = find(Phase::Explore).expect("explore recorded");
        let fp = find(Phase::Fingerprint).expect("fingerprint recorded");
        assert_eq!(explore.count, 1);
        // Self-time excludes the nested fingerprint span.
        assert!(explore.self_ns < explore.total_ns);
        assert!(explore.total_ns >= fp.total_ns);
        assert!(find(Phase::QueueWait).is_some());
        assert!(find(Phase::Parse).is_some(), "other-thread span drained");
        assert!(profile.threads.len() >= 2);
        assert!(profile
            .events
            .iter()
            .any(|e| e.phase == Phase::Explore && e.arg == 42));
        // Spans after stop are inert again.
        drop(span(Phase::Parse));
        let p2 = Recorder::stop_and_collect();
        assert!(p2.events.len() <= profile.events.len());
    }

    #[test]
    fn drains_are_tear_free_while_the_writer_wraps() {
        use std::sync::atomic::AtomicBool;
        // A private ring, so the registry and the other tests never see
        // it. Event i carries i in every word: a torn copy would mix two
        // indices `RING_CAPACITY` apart.
        let ring = Arc::new(Ring::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ring, stop) = (Arc::clone(&ring), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut i = 0;
                while i < 4 * RING_CAPACITY || !stop.load(Ordering::Relaxed) {
                    ring.push(Phase::Execute, i, i, i);
                    i += 1;
                }
                i
            })
        };
        let check = |(events, first): (Vec<TraceEvent>, u64)| {
            for (k, e) in events.iter().enumerate() {
                let i = first + k as u64;
                assert_eq!((e.start_ns, e.dur_ns, e.arg), (i, i, i), "torn event");
                assert_eq!(e.phase, Phase::Execute);
            }
            (events.len() as u64, first)
        };
        // Drain only once the writer is wrapping, so the copies race it.
        while ring.written.load(Ordering::Relaxed) < 2 * RING_CAPACITY {
            std::hint::spin_loop();
        }
        for _ in 0..1000 {
            check(ring.drain(0, RING_CAPACITY));
        }
        stop.store(true, Ordering::Relaxed);
        let total = writer.join().unwrap();
        assert!(total >= 4 * RING_CAPACITY);
        // With the writer gone the newest window survives whole, but for
        // the oldest slot, which the seqlock cannot vouch for.
        let (kept, first) = check(ring.drain(0, RING_CAPACITY));
        assert_eq!(
            (kept, first),
            (RING_CAPACITY - 1, total - RING_CAPACITY + 1)
        );
    }
}
