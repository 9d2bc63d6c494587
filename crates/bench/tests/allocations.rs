//! Allocation bounds of the exploration hot path, counted by a global
//! allocator that counts per thread. Every walk here is sequential on
//! the calling thread, so the test harness's other threads cannot move
//! a test's count.
//!
//! The bounds are deterministic counts, not timings:
//! * a fingerprint-first DFS over the corpus makes at most
//!   [`MAX_ALLOCS_PER_VISIT`] heap allocations per visited state, with
//!   the structured logger installed at `warn`, the server's default, and
//!   no span recorder;
//! * `Expr::steps` and `Machine::is_terminal` never allocate;
//! * a store update allocates at most twice as much at 256 locations
//!   as at 8 (a path copy, not a rebuild).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bdrst_core::engine::{Control, Dedup, EngineConfig, StateId, WorklistEngine};
use bdrst_core::machine::{Expr as _, Machine};
use bdrst_lang::{Program, ThreadState};

/// Counts every allocation and reallocation the current thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call delegates to `System` unchanged; the counter is a
// `const`-initialised thread-local `Cell` with no destructor, so
// bumping it never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The DFS bound. The sweep makes 18.77 allocations per visited state
/// (11 002 over 586 states); the hot path before zero-copy successors and
/// copy-on-write stores made 37.53. The bound sits less than one
/// allocation per visit above today's count, so one more allocation per
/// visit fails it.
const MAX_ALLOCS_PER_VISIT: f64 = 19.5;

/// `f`'s result and the allocations the current thread made running it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// A fingerprint-first DFS over `p` that shows `visit` each state.
fn explore(p: &Program, mut visit: impl FnMut(&Machine<ThreadState>)) {
    WorklistEngine::with_dedup(EngineConfig::default(), Dedup::FingerprintFirst)
        .explore(
            &p.locs,
            p.initial_machine(),
            &mut |m: &Machine<ThreadState>, _: StateId| {
                visit(m);
                Control::Continue
            },
        )
        .expect("corpus programs fit the default budget");
}

#[test]
fn dfs_allocations_per_visited_state_stay_bounded() {
    // The narrow corpus: the `Wide*` stress programs (64+ locations)
    // would move the figure for reasons unrelated to the hot path.
    let narrow: Vec<Program> = bdrst_litmus::all_tests()
        .iter()
        .filter(|t| !t.name.starts_with("Wide"))
        .map(|t| Program::parse(t.source).unwrap())
        .collect();
    bdrst_obs::log::install(bdrst_obs::log::LogConfig::default()).expect("install the logger");
    let mut visited = 0;
    let ((), allocs) = counted(|| {
        for p in &narrow {
            explore(p, |_| visited += 1);
        }
    });
    let per_visit = allocs as f64 / visited as f64;
    assert!(
        per_visit <= MAX_ALLOCS_PER_VISIT,
        "{per_visit:.2} allocations per visited state ({allocs} over {visited} states)"
    );
}

#[test]
fn steps_and_is_terminal_never_allocate() {
    let iriw = Program::parse(bdrst_litmus::corpus::IRIW_AT.source).unwrap();
    let mut machines = Vec::new();
    explore(&iriw, |m| machines.push(m.clone()));
    assert!(!machines.is_empty());
    let (_, allocs) = counted(|| {
        for m in &machines {
            for t in &m.threads {
                std::hint::black_box(t.expr.steps());
            }
            std::hint::black_box(m.is_terminal());
        }
    });
    assert_eq!(allocs, 0, "Expr::steps / Machine::is_terminal allocated");
}

#[test]
fn store_update_allocations_grow_at_most_twofold_from_8_to_256_locations() {
    use bdrst_core::history::History;
    use bdrst_core::loc::{Loc, LocKind, LocSet, Val};
    use bdrst_core::store::{LocContents, Store};

    /// Allocations of 8192 updates that overwrite one location after
    /// another, each on the previous store, as a DFS successor chain does.
    fn update_allocs(n: usize) -> u64 {
        let mut locs = LocSet::new();
        for i in 0..n {
            locs.fresh(format!("x{i}"), LocKind::Nonatomic);
        }
        let mut store = Store::initial(&locs);
        let contents = LocContents::Nonatomic(History::initial(Val(7)));
        counted(|| {
            for k in 0..8192 {
                store.update(Loc((k % n) as u32), contents.clone());
            }
        })
        .1
    }

    let (narrow, wide) = (update_allocs(8), update_allocs(256));
    assert!(
        wide <= 2 * narrow,
        "store updates allocate {wide} at 256 locations against {narrow} at 8"
    );
}
