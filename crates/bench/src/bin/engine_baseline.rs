//! Records the engine performance baseline as JSON.
//!
//! Measures the litmus corpus sweep sequentially and spread test by test
//! over `parallel_map` (each test on sequential DFS), plus the
//! single-test DFS probe on IRIW, the
//! canonicalize-vs-fingerprint throughput of the state-dedup hot path,
//! the **cold-vs-warm** corpus sweep through the content-addressed
//! result store (warm runs are asserted to make *zero* transition-
//! semantics probes), the **dynamic race detector's throughput**
//! (events/sec, live vs replayed over recorded trace trees — the replay
//! asserted semantics-free), and — through a counting global allocator — the
//! allocations per visited state of fingerprint-first dedup against the
//! full-`CanonState` reference, plus the zero-allocation guarantee of
//! the smallvec `Expr::steps` interface. Since v6 it also sweeps the
//! corpus through the **DPOR lane** (source-DPOR + sleep sets,
//! observational independence), hard-asserting that every
//! multi-threaded program explores strictly fewer complete traces than
//! the full enumeration and that copy-on-write stores keep
//! allocations per visited state below the pre-CoW bar; the
//! per-program pruned-vs-full table lands in
//! `crates/bench/baselines/dpor_report.json`. Since v7 it sweeps the
//! check server's **connection scaling**: 320 connect attempts against
//! the readiness-loop reactor capped at 256 connections, every admitted
//! connection held open, hard-asserting the reactor holds its full cap
//! (admission counts are deterministic; wall clock stays
//! informational). Since v8 it adds the
//! **persistent-store lane**: clone and path-copy-update cost at
//! 8/64/256 locations, the bytes-shared ratio of an update against a
//! full rebuild, and the memoized-digest hit rate of the incremental
//! canonical fingerprint — gating (deterministic allocation counts,
//! fatal under `ENGINE_BASELINE_ENFORCE=1`) that per-update cost grows
//! ≤2× from 8 to 256 locations and that allocations per visited state
//! stay below the v6 bar of 32.4. Since v9 it adds the **observability
//! lane**: the fingerprint DFS sweep rerun with the span recorder
//! installed, recording the enabled-vs-disabled allocation and
//! wall-clock tax plus the span-event volume, and gating (deterministic,
//! fatal under `ENGINE_BASELINE_ENFORCE=1`) that the recorder-off sweep
//! stays at the v8 allocation bar of 31.69 — i.e. the always-on counter
//! registry and runtime-gated span sites cost the hot loop nothing when
//! no recorder is installed. Since v10 the alloc lanes additionally run
//! with the structured JSON-lines logger installed at `warn` — the
//! production server default — gating (same bar, same determinism) that
//! live logging costs the exploration hot loop nothing: there are no
//! log sites on engine paths, only on the service edges. v11 names the
//! per-test DFS sweep for what it runs (`corpus_sweep_per_test_dfs_s`,
//! formerly `corpus_sweep_parallel_s`) and drops the IRIW probe of the
//! removed level-synchronous engine. v12 drops the IRIW BFS probe and
//! the scaling lane of the old connection layer (one reader thread per
//! connection) with the code they measured, and evaluates the eight
//! warn-or-panic checks from one table, `GATES`. v13 keeps every key,
//! but `corpus_sweep_worksteal_s` and `explore_iriw_worksteal_s` now time
//! the work-stealing state-graph recorder plus reading outcomes off the
//! graph — what `outcomes_with(WorkStealing)` runs since the visitor-
//! driven work-stealing walk was removed. v14 adds the **axiomatic
//! lane**: the corpus through `axiomatic_outcomes` alone, recording its
//! time (`axiomatic_corpus_s`) and, from the observability counters, the
//! pruned search's node and consistent-execution totals — both
//! deterministic, whatever the worker count. v15 drops the two lanes of
//! the deleted work-stealing recorder, `corpus_sweep_worksteal_s` and
//! `explore_iriw_worksteal_s`, so the parallel-sweep gate reads the
//! per-test DFS sweep alone. v16 keeps every key, but each timing is the
//! fastest of [`SAMPLES`] runs instead of their mean or a single sweep,
//! and the two lanes of each compared pair (sequential / per-test sweep,
//! recorder off / on, canonicalize / fingerprint, DPOR / full traces,
//! live / replayed races, cold / warm service) run alternately round by
//! round, so each ratio compares two minima taken under the same load.
//! The alloc-per-visit lanes sweep the
//! pre-v8 *narrow* corpus (the `Wide*` stress programs are excluded by
//! name prefix) so the v5/v6 bars stay like-for-like comparable; the
//! wide programs run in every other lane. Writes `engine_baseline.json`
//! and `dpor_report.json` into the directory named by its one argument
//! (the committed copies live in `crates/bench/baselines`, the perf
//! trajectory anchor for later PRs):
//!
//! ```text
//! cargo run --release -p bdrst-bench --bin engine_baseline -- crates/bench/baselines
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bdrst_core::engine::{
    canonical_fingerprint, canonicalize, Control, Dedup, EngineConfig, StateId, WorklistEngine,
};
use bdrst_core::machine::Machine;
use bdrst_lang::{Program, ThreadState};
use bdrst_litmus::corpus;
use bdrst_litmus::runner::{corpus_passes, run_corpus, run_corpus_sharded, RunConfig};

/// Counts every heap allocation (alloc + realloc) made through the
/// global allocator, so the baseline can report allocations per visited
/// state per dedup lane.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System` plus relaxed counter bumps.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SAMPLES: usize = 10;

/// Connection attempts of the v7 scaling sweep. Well over the cap, so
/// the held-connection count is the admission limit — a deterministic
/// measure, not a wall-clock one.
const CONN_ATTEMPTS: usize = 320;

/// The reactor's connection cap in the scaling sweep: 4× the 64 the
/// connection layer it replaced (one reader thread per connection)
/// could hold.
const REACTOR_CAP: usize = 256;

/// The connection-scaling sweep: a server capped at `max_conns`, swept
/// with [`CONN_ATTEMPTS`] sequential connect+ping attempts, every
/// admitted connection *held open* for the rest of the sweep. Returns
/// (held connections, rejected connections, sweep seconds).
fn connection_scaling_lane(max_conns: usize) -> (usize, usize, f64) {
    use bdrst_service::json::Json;
    use bdrst_service::server::{serve, ServeConfig};
    use bdrst_service::service::CheckService;
    use bdrst_service::store::ResultStore;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::sync::Arc;

    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            max_conns,
            ..ServeConfig::default()
        },
    )
    .expect("bind scaling-lane server");
    let addr = handle.addr();
    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]).render();
    let mut held = Vec::new();
    let mut rejected = 0usize;
    let start = Instant::now();
    for _ in 0..CONN_ATTEMPTS {
        let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
            rejected += 1;
            continue;
        };
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut line = String::new();
        let admitted = writeln!(stream, "{ping}").is_ok()
            && reader.read_line(&mut line).is_ok()
            && Json::parse(line.trim())
                .ok()
                .and_then(|r| r.get("ok").and_then(Json::as_bool))
                == Some(true);
        if admitted {
            held.push((stream, reader));
        } else {
            rejected += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let held_count = held.len();
    drop(held);
    handle.shutdown();
    (held_count, rejected, elapsed)
}

/// `f` as a lane that returns the seconds one run takes.
fn timed(mut f: impl FnMut()) -> impl FnMut() -> f64 {
    move || {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    }
}

/// The fastest of [`SAMPLES`] runs of `f`, after one warm-up run. On a
/// shared host a neighbour can only slow a run down, so the minimum is
/// the steadiest figure.
fn measure(f: impl FnMut()) -> f64 {
    let mut lane = timed(f);
    lane();
    (0..SAMPLES).map(|_| lane()).fold(f64::INFINITY, f64::min)
}

/// The fastest run of each lane of a compared pair, each lane returning
/// its own seconds: one warm-up run each, then [`SAMPLES`] rounds that
/// run both, first one then the other in turn, so the two minima are
/// taken under the same host load.
fn measure_pair(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for round in 0..SAMPLES {
        if round % 2 == 0 {
            best_a = best_a.min(a());
            best_b = best_b.min(b());
        } else {
            best_b = best_b.min(b());
            best_a = best_a.min(a());
        }
    }
    (best_a, best_b)
}

/// Explores every corpus program's state space with the sequential DFS
/// worklist under `dedup`, returning (total visited states, total heap
/// allocations, elapsed seconds).
fn corpus_dfs_lane(programs: &[Program], dedup: Dedup) -> (u64, u64, f64) {
    let engine = WorklistEngine::with_dedup(EngineConfig::default(), dedup);
    let mut visited = 0u64;
    let start = Instant::now();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for p in programs {
        engine
            .explore(
                &p.locs,
                p.initial_machine(),
                &mut |_: &Machine<ThreadState>, _: StateId| {
                    visited += 1;
                    Control::Continue
                },
            )
            .expect("corpus programs fit the default budget");
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (visited, allocs, start.elapsed().as_secs_f64())
}

/// The *seed-equivalent* DFS lane: replicates, allocation for allocation,
/// the hot path this PR replaced — successor machines built by cloning
/// the whole parent and overwriting the changed parts (a full store
/// clone, the acting thread's frontier and expression, all dropped on
/// the floor per memory transition), plus full-`CanonState` build-and-
/// hash dedup on every pop. The reduction the new hot path is measured
/// against is THIS lane, old algorithm vs new algorithm on identical
/// inputs in one binary. `Machine::clone` no longer deep-copies the
/// store (it is copy-on-write now), so the seed cost is reproduced
/// explicitly through [`bdrst_core::store::Store::deep_clone`].
fn corpus_dfs_seed_lane(programs: &[Program]) -> (u64, u64, f64) {
    use bdrst_core::engine::{canonicalize, StateInterner};
    use bdrst_core::machine::{Expr as _, StepLabel};
    use bdrst_core::memop::{perform_read, perform_write};

    let mut visited = 0u64;
    let start = Instant::now();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for p in programs {
        let locs = &p.locs;
        let mut interner = StateInterner::new();
        let mut worklist: Vec<Machine<ThreadState>> = vec![p.initial_machine()];
        while let Some(m) = worklist.pop() {
            let (_, fresh) = interner.intern(canonicalize(locs, &m).unwrap());
            if !fresh {
                continue;
            }
            visited += 1;
            // Seed-style successor construction: clone-then-overwrite,
            // with the store deep-cloned per successor as the seed's
            // `Machine::clone` did.
            for (ti, thread) in m.threads.iter().enumerate() {
                for (si, step) in thread.expr.steps().into_iter().enumerate() {
                    match step {
                        StepLabel::Silent => {
                            let mut m2 = m.clone();
                            m2.store = m.store.deep_clone();
                            m2.threads[ti].expr =
                                thread.expr.apply_step(si, bdrst_core::loc::Val::INIT);
                            worklist.push(m2);
                        }
                        StepLabel::Read(loc) => {
                            for r in perform_read(locs, &m.store, &thread.frontier, loc) {
                                let mut m2 = m.clone();
                                // The seed's perform_read cloned the store
                                // into every outcome; replicate that cost.
                                let mut store = m.store.deep_clone();
                                if let Some(d) = &r.delta {
                                    store.update(d.loc, d.contents.clone());
                                }
                                m2.store = store;
                                m2.threads[ti].frontier = r.frontier;
                                m2.threads[ti].expr =
                                    thread.expr.apply_step(si, r.label.action.value());
                                worklist.push(m2);
                            }
                        }
                        StepLabel::Write(loc, x) => {
                            for w in perform_write(locs, &m.store, &thread.frontier, loc, x) {
                                let mut m2 = m.clone();
                                let mut store = m.store.deep_clone();
                                if let Some(d) = &w.delta {
                                    store.update(d.loc, d.contents.clone());
                                }
                                m2.store = store;
                                m2.threads[ti].frontier = w.frontier;
                                m2.threads[ti].expr =
                                    thread.expr.apply_step(si, bdrst_core::loc::Val::INIT);
                                worklist.push(m2);
                            }
                        }
                    }
                }
            }
        }
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (visited, allocs, start.elapsed().as_secs_f64())
}

/// One corpus program's partial-order-reduction measurements.
struct DporRow {
    name: &'static str,
    threads: usize,
    full_traces: usize,
    dpor_traces: usize,
    dpor_visited: usize,
    sleep_blocked: usize,
}

/// Runs the full trace enumeration and the DPOR lane over every corpus
/// program, returning per-program rows plus (dpor seconds, full seconds,
/// dpor allocations).
fn corpus_dpor_lane(names: &[&'static str], programs: &[Program]) -> (Vec<DporRow>, u64) {
    let mut rows = Vec::new();
    let alloc_before = ALLOCATIONS.load(Ordering::Relaxed);
    for (name, p) in names.iter().zip(programs) {
        let stats = dpor_sweep_one(p);
        rows.push(DporRow {
            name,
            threads: p.threads.len(),
            full_traces: 0,
            dpor_traces: stats.complete_traces,
            dpor_visited: stats.visited,
            sleep_blocked: stats.sleep_blocked,
        });
    }
    let dpor_allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc_before;
    for (p, row) in programs.iter().zip(&mut rows) {
        row.full_traces = full_sweep_one(p);
    }
    (rows, dpor_allocs)
}

/// One program through the DPOR outcome lane.
fn dpor_sweep_one(p: &Program) -> bdrst_core::engine::DporStats {
    use bdrst_core::engine::{dpor_reachable_terminals, Dependence};
    dpor_reachable_terminals(
        &p.locs,
        p.initial_machine(),
        EngineConfig::default(),
        Dependence::Observational,
    )
    .expect("corpus fits the reduced budget")
    .1
}

/// One program's complete traces under the full enumeration.
fn full_sweep_one(p: &Program) -> usize {
    bdrst_core::engine::full_complete_traces(&p.locs, p.initial_machine(), EngineConfig::default())
        .expect("corpus fits the full budget")
}

/// One size of the v8 persistent-store lane.
struct StoreLane {
    n: usize,
    /// Nanoseconds per persistent clone (must stay a refcount bump).
    clone_ns: f64,
    /// Nanoseconds per path-copy update on a persistent chain.
    update_ns: f64,
    /// Heap allocations per update — deterministic, the gate's input.
    update_allocs: f64,
    /// 1 − (bytes allocated per update / bytes to rebuild the store
    /// flat): the fraction of the store an update structurally shares.
    bytes_shared: f64,
    /// Memoized-digest hits / (hits + misses) while re-fingerprinting
    /// the store after single-location updates.
    digest_hit_rate: f64,
}

/// Measures clone/update/digest cost of a `Store` over `n` nonatomic
/// locations. Updates run on a persistent chain (each input is the
/// previous output — the DFS successor shape) and overwrite one
/// location round-robin, so every update pays one full root-to-leaf
/// path copy and nothing else.
fn store_lane(n: usize) -> StoreLane {
    use bdrst_core::history::History;
    use bdrst_core::loc::{Loc, LocKind, LocSet, Val};
    use bdrst_core::store::{LocContents, Store};

    let mut locs = LocSet::new();
    for i in 0..n {
        locs.fresh(format!("x{i}"), LocKind::Nonatomic);
    }
    let store = Store::initial(&locs);
    let contents = LocContents::Nonatomic(History::initial(Val(7)));

    const CLONES: usize = 65_536;
    let clone_ns = measure(|| {
        for _ in 0..CLONES {
            std::hint::black_box(store.clone());
        }
    }) / CLONES as f64
        * 1e9;

    const UPDATES: usize = 8_192;
    let update_ns = measure(|| {
        let mut s = store.clone();
        for k in 0..UPDATES {
            s.update(Loc((k % n) as u32), contents.clone());
        }
        std::hint::black_box(&s);
    }) / UPDATES as f64
        * 1e9;

    // Deterministic pass: allocations and bytes per update (the cloned
    // replacement contents cost the same at every size, so growth across
    // sizes is pure path-copy depth).
    let (update_allocs, update_bytes) = {
        let mut s = store.clone();
        let a0 = ALLOCATIONS.load(Ordering::Relaxed);
        let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
        for k in 0..UPDATES {
            s.update(Loc((k % n) as u32), contents.clone());
        }
        std::hint::black_box(&s);
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - a0;
        let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - b0;
        (
            allocs as f64 / UPDATES as f64,
            bytes as f64 / UPDATES as f64,
        )
    };
    let rebuild_bytes = {
        let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
        let d = store.deep_clone();
        std::hint::black_box(&d);
        (ALLOC_BYTES.load(Ordering::Relaxed) - b0) as f64
    };
    let bytes_shared = 1.0 - update_bytes / rebuild_bytes.max(1.0);

    // Incremental-fingerprint hit rate: fill the memos once, then
    // re-digest after each single-location update — only the written
    // path should miss.
    let digest_hit_rate = {
        let mut s = store.clone();
        std::hint::black_box(s.content_digest());
        let (h0, m0) = bdrst_core::pmap::digest_counters();
        for k in 0..64usize {
            s.update(Loc((k * 37 % n) as u32), contents.clone());
            std::hint::black_box(s.content_digest());
        }
        let (h1, m1) = bdrst_core::pmap::digest_counters();
        let (hits, misses) = (h1 - h0, m1 - m0);
        hits as f64 / (hits + misses).max(1) as f64
    };

    StoreLane {
        n,
        clone_ns,
        update_ns,
        update_allocs,
        bytes_shared,
        digest_hit_rate,
    }
}

/// The measurements the warn-or-panic gates read.
struct Summary {
    threads: usize,
    alloc_reduction: f64,
    allocs_per_visit_fp: f64,
    store_update_alloc_growth: f64,
    /// Sequential corpus sweep seconds.
    seq: f64,
    /// Per-test DFS corpus sweep over `parallel_map`, seconds.
    per_test_dfs: f64,
    dpor_s: f64,
    full_trace_s: f64,
    race_live_s: f64,
    race_replay_s: f64,
    service_cold_s: f64,
    service_warm_s: f64,
}

/// How a gate's value must compare with its bound.
#[derive(Clone, Copy)]
enum Cmp {
    AtLeast,
    Below,
    AtMost,
}

/// One warn-or-panic check: `value` must compare with `bound` as `cmp`
/// says. A miss prints a warning, or panics under
/// `ENGINE_BASELINE_ENFORCE=1`.
struct Gate {
    what: &'static str,
    value: fn(&Summary) -> f64,
    cmp: Cmp,
    bound: f64,
    /// Skipped on a single-core host, where no parallel win is possible.
    multicore: bool,
}

/// Every warn-or-panic gate. The first four are deterministic
/// allocation counts, warn-first so a regression is visible before it
/// is fatal; the last four are wall-clock races, noisy on shared
/// runners. Each timing gate's hard twin is asserted where it is
/// measured (strict DPOR pruning, zero semantics probes on replay and
/// on a warm sweep).
const GATES: &[Gate] = &[
    // Fingerprint-first dedup and zero-copy successors cut allocations
    // per visited state by ≥25% against the seed lane.
    Gate {
        what: "allocation reduction vs the seed lane",
        value: |s| s.alloc_reduction,
        cmp: Cmp::AtLeast,
        bound: 0.25,
        multicore: false,
    },
    // The persistent store beats the v6 copy-on-write spine bar.
    Gate {
        what: "allocations per visited state vs the v6 bar",
        value: |s| s.allocs_per_visit_fp,
        cmp: Cmp::Below,
        bound: 32.4,
        multicore: false,
    },
    // With no recorder installed and the logger live at warn, the hot
    // loop holds the v8 bar. The bar was recorded at two decimals, so
    // the value is compared at the same precision.
    Gate {
        what: "allocations per visited state, observability off, vs the v8 bar",
        value: |s| (s.allocs_per_visit_fp * 100.0).round() / 100.0,
        cmp: Cmp::AtMost,
        bound: 31.69,
        multicore: false,
    },
    // Path-copy updates are near-flat in the location count.
    Gate {
        what: "store update allocation growth from 8 to 256 locations",
        value: |s| s.store_update_alloc_growth,
        cmp: Cmp::AtMost,
        bound: 2.0,
        multicore: false,
    },
    Gate {
        what: "parallel / sequential corpus sweep time",
        value: |s| s.per_test_dfs / s.seq,
        cmp: Cmp::Below,
        bound: 1.0,
        multicore: true,
    },
    Gate {
        what: "DPOR / full trace enumeration time",
        value: |s| s.dpor_s / s.full_trace_s,
        cmp: Cmp::Below,
        bound: 1.0,
        multicore: false,
    },
    Gate {
        what: "replayed / live race detection time",
        value: |s| s.race_replay_s / s.race_live_s,
        cmp: Cmp::Below,
        bound: 1.0,
        multicore: false,
    },
    Gate {
        what: "warm / cold corpus sweep time through the result store",
        value: |s| s.service_warm_s / s.service_cold_s,
        cmp: Cmp::Below,
        bound: 1.0,
        multicore: false,
    },
];

/// Evaluates [`GATES`] against `summary`: a held gate prints its value,
/// a missed one warns, or panics when `enforce` is set.
fn check_gates(summary: &Summary, enforce: bool) {
    for gate in GATES {
        if gate.multicore && summary.threads <= 1 {
            eprintln!("single-core host: skipping gate: {}", gate.what);
            continue;
        }
        let value = (gate.value)(summary);
        let (holds, op) = match gate.cmp {
            Cmp::AtLeast => (value >= gate.bound, ">="),
            Cmp::Below => (value < gate.bound, "<"),
            Cmp::AtMost => (value <= gate.bound, "<="),
        };
        let line = format!("{}: {value:.4} (must be {op} {})", gate.what, gate.bound);
        if holds {
            eprintln!("ok: {line}");
        } else if enforce {
            panic!("gate failed: {line}");
        } else {
            eprintln!("WARNING: {line}; set ENGINE_BASELINE_ENFORCE=1 to make this fatal");
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(out_dir), None) = (args.next(), args.next()) else {
        eprintln!("usage: engine_baseline OUT_DIR");
        std::process::exit(2);
    };
    let out_dir = std::path::PathBuf::from(out_dir);
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    // Per-test DFS over `parallel_map`: the tests run in parallel, each
    // on the sequential engine.
    let (seq, per_test_dfs) = measure_pair(
        timed(|| assert!(corpus_passes(&run_corpus(RunConfig::default())))),
        timed(|| assert!(corpus_passes(&run_corpus_sharded(RunConfig::default(), 0)))),
    );

    let iriw = Program::parse(corpus::IRIW_AT.source).unwrap();
    let dfs = measure(|| {
        iriw.outcomes(EngineConfig::default()).unwrap();
    });

    // --- state-dedup hot path: canonicalize vs streaming fingerprint ---
    // Collect every reachable machine of IRIW once, then time the two
    // identification paths over the same machines.
    let mut machines: Vec<Machine<ThreadState>> = Vec::new();
    WorklistEngine::new(EngineConfig::default())
        .explore(
            &iriw.locs,
            iriw.initial_machine(),
            &mut |m: &Machine<ThreadState>, _: StateId| {
                machines.push(m.clone());
                Control::Continue
            },
        )
        .unwrap();
    let (canon_s, fp_s) = measure_pair(
        timed(|| {
            for m in &machines {
                std::hint::black_box(canonicalize(&iriw.locs, m).unwrap());
            }
        }),
        timed(|| {
            for m in &machines {
                std::hint::black_box(canonical_fingerprint(&iriw.locs, m).unwrap());
            }
        }),
    );
    let canonicalize_states_per_s = machines.len() as f64 / canon_s;
    let fingerprint_states_per_s = machines.len() as f64 / fp_s;

    // --- allocations per visited state, per dedup lane, over the corpus ---
    // The alloc lanes sweep the *narrow* corpus only: the v8 `Wide*`
    // stress programs (64+ locations) would shift allocations per visit
    // for reasons unrelated to the hot path under test, breaking
    // comparability with the v5/v6 bars. They run in every other lane.
    let programs: Vec<Program> = corpus::all_tests()
        .iter()
        .map(|t| Program::parse(t.source).unwrap())
        .collect();
    let narrow: Vec<Program> = corpus::all_tests()
        .iter()
        .zip(&programs)
        .filter(|(t, _)| !t.name.starts_with("Wide"))
        .map(|(_, p)| p.clone())
        .collect();
    // v10: the structured logger is installed (stderr sink, warn level —
    // the production `serve` default) *before* the alloc lanes run, so
    // the counts below price the hot loop as it runs in a live server.
    // No engine path carries a log site, so the v8 allocation bar must
    // hold unchanged with the logger live.
    bdrst_obs::log::install(bdrst_obs::log::LogConfig::default()).expect("logger install");
    let (v_seed, a_seed, t_seed) = corpus_dfs_seed_lane(&narrow);
    let (v_full, a_full, t_full) = corpus_dfs_lane(&narrow, Dedup::FullState);
    let (v_fp, a_fp, _) = corpus_dfs_lane(&narrow, Dedup::FingerprintFirst);
    assert_eq!(v_full, v_fp, "dedup lanes must visit identical state sets");
    assert_eq!(v_seed, v_fp, "seed lane must visit the identical state set");
    let allocs_per_visit_seed = a_seed as f64 / v_seed as f64;
    let allocs_per_visit_full = a_full as f64 / v_full as f64;
    let allocs_per_visit_fp = a_fp as f64 / v_fp as f64;
    // The headline: new hot path (zero-copy successors + fingerprint
    // dedup) vs the seed hot path. The dedup-only ablation (same new
    // successor construction, full-state dedup) is recorded alongside.
    let alloc_reduction = 1.0 - allocs_per_visit_fp / allocs_per_visit_seed;
    let alloc_reduction_dedup_only = 1.0 - allocs_per_visit_fp / allocs_per_visit_full;
    let dfs_seed_states_per_s = v_seed as f64 / t_seed;
    let dfs_full_states_per_s = v_full as f64 / t_full;

    // The copy-on-write store must beat the v5 baseline outright. 35.25
    // allocations per visited state is the allocs_per_visit_fingerprint
    // the v5 artifact recorded with deep-cloning stores; the count is
    // deterministic (not wall clock), so this gate is unconditional.
    const V5_ALLOCS_PER_VISIT_FINGERPRINT: f64 = 35.25;
    assert!(
        allocs_per_visit_fp < V5_ALLOCS_PER_VISIT_FINGERPRINT,
        "copy-on-write stores should allocate less per visited state than the v5 baseline: \
         got {allocs_per_visit_fp:.2}, v5 recorded {V5_ALLOCS_PER_VISIT_FINGERPRINT}"
    );

    // --- v9: observability overhead lane ---
    // The lanes above ran with no recorder installed, so their counts
    // are the obs-disabled numbers the v8 bar gates. Rerun the
    // fingerprint sweep with the span recorder on to price the
    // worst-case recording tax (per-thread rings + two clock reads per
    // span); wall clock is informational, allocation counts and the
    // identical-state-set assert are deterministic.
    let obs_lane = || {
        bdrst_obs::Recorder::install();
        let lane = corpus_dfs_lane(&narrow, Dedup::FingerprintFirst);
        (lane, bdrst_obs::Recorder::stop_and_collect())
    };
    bdrst_obs::counters_reset();
    let ((v_obs, a_obs, _), obs_profile) = obs_lane();
    assert_eq!(
        v_obs, v_fp,
        "installing the recorder must not change the explored state set"
    );
    let allocs_per_visit_obs = a_obs as f64 / v_obs as f64;
    let obs_span_events = obs_profile.events.len() as u64 + obs_profile.dropped;
    let obs_states_counted = bdrst_obs::counter_get(bdrst_obs::Counter::StatesVisited);
    assert_eq!(
        obs_states_counted, v_obs,
        "the states_visited gauge must agree with the engine's own count"
    );
    // Each lane times its sweep alone, not the recorder's install and
    // collect.
    let (t_fp, t_obs) = measure_pair(
        || corpus_dfs_lane(&narrow, Dedup::FingerprintFirst).2,
        || (obs_lane().0).2,
    );
    let dfs_fp_states_per_s = v_fp as f64 / t_fp;
    let obs_time_overhead = t_obs / t_fp;

    // --- partial-order reduction: pruned vs full trace counts ---
    // Deterministic counts gate hard (multithreaded programs must prune
    // strictly); the wall-clock comparison follows the warn-by-default
    // house style below.
    let corpus_names: Vec<&'static str> = corpus::all_tests().iter().map(|t| t.name).collect();
    let (dpor_rows, dpor_allocs) = corpus_dpor_lane(&corpus_names, &programs);
    let (dpor_s, full_trace_s) = measure_pair(
        timed(|| {
            programs.iter().for_each(|p| {
                std::hint::black_box(dpor_sweep_one(p));
            })
        }),
        timed(|| {
            programs.iter().for_each(|p| {
                std::hint::black_box(full_sweep_one(p));
            })
        }),
    );
    let full_traces_total: usize = dpor_rows.iter().map(|r| r.full_traces).sum();
    let dpor_traces_total: usize = dpor_rows.iter().map(|r| r.dpor_traces).sum();
    let dpor_visited_total: usize = dpor_rows.iter().map(|r| r.dpor_visited).sum();
    for row in &dpor_rows {
        if row.threads > 1 {
            assert!(
                row.dpor_traces < row.full_traces,
                "{}: DPOR explored {} complete traces, full enumeration {}",
                row.name,
                row.dpor_traces,
                row.full_traces
            );
        } else {
            assert_eq!(row.dpor_traces, row.full_traces, "{}", row.name);
        }
    }
    let dpor_trace_reduction = 1.0 - dpor_traces_total as f64 / full_traces_total as f64;
    let dpor_extensions_per_s = dpor_visited_total as f64 / dpor_s;
    let allocs_per_visit_dpor = dpor_allocs as f64 / dpor_visited_total as f64;
    let dpor_report = {
        let rows = dpor_rows
            .iter()
            .map(|r| {
                format!(
                    r#"    {{"name": "{}", "threads": {}, "full_complete_traces": {}, "dpor_complete_traces": {}, "dpor_trace_extensions": {}, "sleep_blocked_prefixes": {}}}"#,
                    r.name,
                    r.threads,
                    r.full_traces,
                    r.dpor_traces,
                    r.dpor_visited,
                    r.sleep_blocked
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"schema\": \"bdrst-dpor-report/v1\",\n  \"corpus_full_complete_traces\": \
             {full_traces_total},\n  \"corpus_dpor_complete_traces\": {dpor_traces_total},\n  \
             \"trace_reduction\": {dpor_trace_reduction:.3},\n  \"programs\": [\n{rows}\n  ]\n}}\n"
        )
    };

    // --- steps() must be allocation-free (smallvec interface) ---
    // Deterministic count over every reachable IRIW machine: enumerating
    // enabled steps and probing terminality allocates nothing.
    let steps_allocs = {
        use bdrst_core::machine::Expr as _;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for m in &machines {
            for t in &m.threads {
                std::hint::black_box(t.expr.steps());
            }
            std::hint::black_box(m.is_terminal());
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    assert_eq!(
        steps_allocs, 0,
        "Expr::steps / Machine::is_terminal allocated on the hot path"
    );

    // --- dynamic race detection: events/sec, live vs replayed ---
    // The detector consumes one event per trace extension; the corpus
    // sweep gives a stable event population. Replayed detection rides
    // recorded trace trees and must be semantics-free (hard assert via
    // the probe counter), so its throughput is pure detector work.
    use bdrst_core::engine::TraceGraph;
    use bdrst_race::{detect_races, detect_races_replayed, DetectorConfig};
    let det_cfg = DetectorConfig::default();
    let ecfg = EngineConfig::default();
    let (race_events, race_racy) = programs.iter().fold((0u64, 0usize), |(ev, racy), p| {
        let rep = detect_races(&p.locs, p.initial_machine(), ecfg, det_cfg)
            .expect("corpus fits the budget");
        (ev + rep.events, racy + usize::from(rep.racy()))
    });
    let traces: Vec<TraceGraph> = programs
        .iter()
        .map(|p| {
            bdrst_core::engine::TraceEngine::new(ecfg)
                .record(&p.locs, p.initial_machine())
                .expect("corpus trace trees fit the budget")
                .0
        })
        .collect();
    let race_probes_before = bdrst_core::machine::semantics_probes();
    for (p, g) in programs.iter().zip(&traces) {
        std::hint::black_box(detect_races_replayed(&p.locs, g, ecfg, det_cfg).unwrap());
    }
    let race_replay_probes = bdrst_core::machine::semantics_probes() - race_probes_before;
    assert_eq!(
        race_replay_probes, 0,
        "replayed race detection ran the transition semantics"
    );
    let (race_live_s, race_replay_s) = measure_pair(
        timed(|| {
            for p in &programs {
                std::hint::black_box(
                    detect_races(&p.locs, p.initial_machine(), ecfg, det_cfg).unwrap(),
                );
            }
        }),
        timed(|| {
            for (p, g) in programs.iter().zip(&traces) {
                std::hint::black_box(detect_races_replayed(&p.locs, g, ecfg, det_cfg).unwrap());
            }
        }),
    );
    let race_live_events_per_s = race_events as f64 / race_live_s;
    let race_replay_events_per_s = race_events as f64 / race_replay_s;

    // --- v14: the axiomatic search over the corpus ---
    // One counted pass (counter deltas: other lanes enumerate too), then
    // the timed passes.
    let axiomatic_pass = || {
        for p in &programs {
            std::hint::black_box(
                bdrst_axiomatic::axiomatic_outcomes(p, Default::default()).unwrap(),
            );
        }
    };
    let (nodes_before, consistent_before) = (
        bdrst_obs::counter_get(bdrst_obs::Counter::AxiomaticNodes),
        bdrst_obs::counter_get(bdrst_obs::Counter::AxiomaticConsistent),
    );
    axiomatic_pass();
    let axiomatic_nodes = bdrst_obs::counter_get(bdrst_obs::Counter::AxiomaticNodes) - nodes_before;
    let axiomatic_consistent =
        bdrst_obs::counter_get(bdrst_obs::Counter::AxiomaticConsistent) - consistent_before;
    let axiomatic_s = measure(axiomatic_pass);

    // --- litmus-as-a-service: cold vs warm corpus through the store ---
    use bdrst_litmus::{classify_entries, CorpusVerdict};
    use bdrst_service::service::CheckService;
    use bdrst_service::store::ResultStore;
    use std::sync::Arc;

    let warm_service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    warm_service.check_corpus();
    let warm_sweep = || {
        assert_eq!(
            classify_entries(&warm_service.check_corpus()),
            CorpusVerdict::Pass
        );
    };
    let probes_before = bdrst_core::machine::semantics_probes();
    warm_sweep();
    let service_warm_probes = bdrst_core::machine::semantics_probes() - probes_before;
    assert_eq!(
        service_warm_probes, 0,
        "warm corpus sweep ran the transition semantics"
    );
    let (service_cold_s, service_warm_s) = measure_pair(
        timed(|| {
            let service =
                CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
            assert_eq!(
                classify_entries(&service.check_corpus()),
                CorpusVerdict::Pass
            );
        }),
        timed(warm_sweep),
    );
    let service_warm_speedup = service_cold_s / service_warm_s;

    // --- v7: connection-scaling sweep ---
    // Every admitted connection completes a real round-trip and is then
    // held open for the rest of the sweep, so "held" is the
    // simultaneous-connection count the reactor actually sustained
    // (deterministic — admission, not wall clock).
    let (reactor_held, reactor_rejected, reactor_s) = connection_scaling_lane(REACTOR_CAP);
    assert_eq!(
        reactor_held + reactor_rejected,
        CONN_ATTEMPTS,
        "every scaling-lane attempt resolves to admitted or rejected"
    );
    assert_eq!(
        reactor_held, REACTOR_CAP,
        "the reactor should hold its full {REACTOR_CAP}-connection cap"
    );

    // --- v8: persistent-store lane at 8 / 64 / 256 locations ---
    let lanes: Vec<StoreLane> = [8usize, 64, 256].into_iter().map(store_lane).collect();
    let store_update_alloc_growth = lanes[2].update_allocs / lanes[0].update_allocs;
    let join =
        |f: &dyn Fn(&StoreLane) -> String| lanes.iter().map(f).collect::<Vec<_>>().join(", ");
    let store_sizes = join(&|l| format!("{}", l.n));
    let store_clone_ns = join(&|l| format!("{:.1}", l.clone_ns));
    let store_update_ns = join(&|l| format!("{:.1}", l.update_ns));
    let store_update_allocs = join(&|l| format!("{:.2}", l.update_allocs));
    let store_bytes_shared = join(&|l| format!("{:.4}", l.bytes_shared));
    let store_digest_hit_rate = join(&|l| format!("{:.3}", l.digest_hit_rate));

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        r#"{{
  "schema": "bdrst-engine-baseline/v16",
  "samples": {SAMPLES},
  "threads_available": {threads},
  "corpus_sweep_sequential_s": {seq:.6},
  "corpus_sweep_per_test_dfs_s": {per_test_dfs:.6},
  "corpus_sweep_speedup": {speedup:.3},
  "explore_iriw_dfs_s": {dfs:.6},
  "canonicalize_states_per_s": {canonicalize_states_per_s:.0},
  "fingerprint_states_per_s": {fingerprint_states_per_s:.0},
  "corpus_dfs_visited_states": {v_fp},
  "corpus_dfs_seed_states_per_s": {dfs_seed_states_per_s:.0},
  "corpus_dfs_fullstate_states_per_s": {dfs_full_states_per_s:.0},
  "corpus_dfs_fingerprint_states_per_s": {dfs_fp_states_per_s:.0},
  "allocs_per_visit_seed": {allocs_per_visit_seed:.2},
  "allocs_per_visit_fullstate": {allocs_per_visit_full:.2},
  "allocs_per_visit_fingerprint": {allocs_per_visit_fp:.2},
  "alloc_reduction_vs_seed": {alloc_reduction:.3},
  "alloc_reduction_dedup_only": {alloc_reduction_dedup_only:.3},
  "allocs_per_visit_obs_enabled": {allocs_per_visit_obs:.2},
  "obs_time_overhead_ratio": {obs_time_overhead:.3},
  "obs_span_events": {obs_span_events},
  "obs_dropped_events": {obs_dropped},
  "steps_allocs": {steps_allocs},
  "corpus_full_complete_traces": {full_traces_total},
  "corpus_dpor_complete_traces": {dpor_traces_total},
  "dpor_trace_reduction": {dpor_trace_reduction:.3},
  "dpor_corpus_sweep_s": {dpor_s:.6},
  "full_trace_corpus_sweep_s": {full_trace_s:.6},
  "dpor_extensions_per_s": {dpor_extensions_per_s:.0},
  "allocs_per_visit_dpor": {allocs_per_visit_dpor:.2},
  "race_detect_corpus_events": {race_events},
  "race_detect_corpus_racy": {race_racy},
  "race_detect_live_s": {race_live_s:.6},
  "race_detect_replay_s": {race_replay_s:.6},
  "race_detect_live_events_per_s": {race_live_events_per_s:.0},
  "race_detect_replay_events_per_s": {race_replay_events_per_s:.0},
  "race_detect_replay_speedup": {race_replay_speedup:.3},
  "race_replay_semantics_probes": {race_replay_probes},
  "axiomatic_corpus_nodes": {axiomatic_nodes},
  "axiomatic_corpus_consistent": {axiomatic_consistent},
  "axiomatic_corpus_s": {axiomatic_s:.6},
  "service_corpus_cold_s": {service_cold_s:.6},
  "service_corpus_warm_s": {service_warm_s:.6},
  "service_warm_speedup": {service_warm_speedup:.3},
  "service_warm_semantics_probes": {service_warm_probes},
  "conn_scaling_attempts": {CONN_ATTEMPTS},
  "conn_scaling_reactor_cap": {REACTOR_CAP},
  "conn_scaling_reactor_held": {reactor_held},
  "conn_scaling_reactor_s": {reactor_s:.6},
  "store_lane_locations": [{store_sizes}],
  "store_clone_ns": [{store_clone_ns}],
  "store_update_ns": [{store_update_ns}],
  "store_update_allocs": [{store_update_allocs}],
  "store_update_alloc_growth_8_to_256": {store_update_alloc_growth:.3},
  "store_bytes_shared": [{store_bytes_shared}],
  "store_digest_hit_rate": [{store_digest_hit_rate}]
}}
"#,
        speedup = seq / per_test_dfs,
        race_replay_speedup = race_live_s / race_replay_s,
        obs_dropped = obs_profile.dropped,
    );
    print!("{json}");
    let out = out_dir.join("engine_baseline.json");
    std::fs::write(&out, json).expect("write baseline");
    eprintln!("wrote {}", out.display());
    let dpor_out = out_dir.join("dpor_report.json");
    std::fs::write(&dpor_out, &dpor_report).expect("write dpor report");
    eprintln!("wrote {}", dpor_out.display());

    // An empty value counts as unset so a CI matrix can pass "" through.
    let enforce = std::env::var_os("ENGINE_BASELINE_ENFORCE").is_some_and(|v| !v.is_empty());
    check_gates(
        &Summary {
            threads,
            alloc_reduction,
            allocs_per_visit_fp,
            store_update_alloc_growth,
            seq,
            per_test_dfs,
            dpor_s,
            full_trace_s,
            race_live_s,
            race_replay_s,
            service_cold_s,
            service_warm_s,
        },
        enforce,
    );
    eprintln!(
        "connection scaling: reactor held {reactor_held}/{CONN_ATTEMPTS} connections in \
         {reactor_s:.3}s"
    );
}
