//! The memoized trace recorder against the live walk: on the litmus
//! corpus and on generated programs, replaying the recorded graph must
//! show a visitor exactly the stream of extensions a live walk shows it —
//! same depth, label and enabled labels, in the same order — and the live
//! walk and the replay must trip the trace budget at exactly the same
//! count. The recording's budget counts its rows. Recordings are
//! deterministic and survive the wire byte for byte, and a tree with
//! repeated machines is stored in fewer rows than it has extensions.
//! Every live step's `terminal` flag is the reached machine's.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::Path;

use bdrst_core::engine::{
    Control, EngineConfig, EngineError, ExploreStats, Step, TraceEngine, TraceGraph, TraceVisitor,
};
use bdrst_core::loc::{LocKind, LocSet, Val};
use bdrst_core::machine::{Expr, Machine, RecordedExpr, StepLabel, Transition, TransitionLabel};
use bdrst_core::trace::TraceLabels;
use bdrst_core::wire::{Codec, Reader};
use bdrst_lang::Program;

fn encoded(graph: &TraceGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    graph.encode(&mut bytes);
    bytes
}

fn budget(max_traces: usize) -> TraceEngine {
    TraceEngine::new(EngineConfig {
        max_states: usize::MAX,
        max_traces,
    })
}

/// Extends every trace and digests what it sees at each extension: the
/// trace's depth, the label just taken and the labels enabled after it.
struct Digest {
    hasher: DefaultHasher,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hasher: DefaultHasher::new(),
        }
    }

    fn finish(&self) -> u64 {
        self.hasher.finish()
    }
}

impl TraceVisitor for Digest {
    fn visit(&mut self, trace: &TraceLabels, step: Step<'_>) -> Control {
        let mut bytes = Vec::new();
        trace.len().encode(&mut bytes);
        step.label.encode(&mut bytes);
        step.enabled.to_vec().encode(&mut bytes);
        self.hasher.write(&bytes);
        Control::Continue
    }
}

/// Walks `m0`'s whole trace tree live and replays `graph`, both under
/// `engine`'s budget: the results and the digested streams must agree.
fn walk_and_replay<E: Expr>(
    engine: TraceEngine,
    locs: &LocSet,
    m0: &Machine<E>,
    graph: &TraceGraph,
) -> Result<ExploreStats, EngineError> {
    let mut live_digest = Digest::new();
    let live = engine.explore(locs, m0.clone(), &mut live_digest);
    let mut replay_digest = Digest::new();
    let replayed = graph.replay(engine.config, &mut replay_digest);
    assert_eq!(live, replayed, "live walk and replay disagree");
    assert_eq!(
        live_digest.finish(),
        replay_digest.finish(),
        "live walk and replay show different streams"
    );
    live
}

/// Follows a live walk of the whole tree with the machines it reaches,
/// recomputed from `m0` in the walk's own order, and checks at every
/// extension that the step is the taken transition's and that its
/// `terminal` and `enabled` agree with the reached machine.
struct Terminals<'a, E: Expr> {
    locs: &'a LocSet,
    /// Per depth: the transitions enabled there and the next one to take.
    path: Vec<(Vec<Transition<E>>, usize)>,
    checked: usize,
}

impl<E: Expr> TraceVisitor for Terminals<'_, E> {
    fn visit(&mut self, trace: &TraceLabels, step: Step<'_>) -> Control {
        self.path.truncate(trace.len());
        let (taken, next) = self.path.last_mut().expect("the root's transitions");
        let t = &taken[*next];
        *next += 1;
        assert_eq!(t.label, step.label, "walk order");
        let after = t.target.transitions(self.locs);
        let enabled: Vec<TransitionLabel> = after.iter().map(|t| t.label).collect();
        assert_eq!(step.enabled, enabled.as_slice(), "enabled labels");
        assert_eq!(
            step.terminal,
            step.enabled.is_empty(),
            "terminal iff none enabled"
        );
        assert_eq!(step.terminal, t.target.is_terminal(), "terminal machine");
        self.path.push((after, 0));
        self.checked += 1;
        Control::Continue
    }
}

/// Walks `m0`'s whole tree live under [`Terminals`] and returns the
/// extensions it checked.
fn terminal_matches_target<E: Expr>(locs: &LocSet, m0: &Machine<E>) -> usize {
    let mut v = Terminals {
        locs,
        path: vec![(m0.transitions(locs), 0)],
        checked: 0,
    };
    TraceEngine::new(EngineConfig::default())
        .explore(locs, m0.clone(), &mut v)
        .unwrap();
    v.checked
}

/// Records `m0` and checks the recording against the live walk: the same
/// extension stream and count, the same budget trip one short of the
/// total, a deterministic encoding that round-trips exactly. The
/// recording fits a budget of its row count and trips one short of it.
/// Returns the recorded graph.
fn replays_like_the_live_walk<E: Expr>(name: &str, locs: &LocSet, m0: &Machine<E>) -> TraceGraph {
    let engine = TraceEngine::new(EngineConfig::default());
    let (graph, stats) = engine.record(locs, m0.clone()).unwrap();
    let total = graph.len();
    assert_eq!(stats.visited, total, "{name}: record stats");
    assert_eq!(stats.transitions, total, "{name}: record stats");

    let walked = walk_and_replay(engine, locs, m0, &graph).unwrap();
    assert_eq!(walked.visited, total, "{name}: live walk");
    assert_eq!(
        terminal_matches_target(locs, m0),
        total,
        "{name}: terminals"
    );
    assert_eq!(
        walk_and_replay(budget(total), locs, m0, &graph).unwrap(),
        walked,
        "{name}: exact budget"
    );
    let rows = graph.rows();
    let (exact, _) = budget(rows).record(locs, m0.clone()).unwrap();
    assert_eq!(
        encoded(&exact),
        encoded(&graph),
        "{name}: record, exact budget"
    );
    assert_eq!(
        budget(rows - 1).record(locs, m0.clone()).unwrap_err(),
        EngineError::budget(rows),
        "{name}: record, budget one short"
    );
    if total > 0 {
        assert_eq!(
            walk_and_replay(budget(total - 1), locs, m0, &graph).unwrap_err(),
            EngineError::budget(total),
            "{name}: live walk and replay, budget one short"
        );
    }

    let bytes = encoded(&graph);
    let (again, _) = engine.record(locs, m0.clone()).unwrap();
    assert_eq!(encoded(&again), bytes, "{name}: recording twice");
    let decoded = TraceGraph::decode(&mut Reader::new(&bytes), locs, m0.threads.len()).unwrap();
    assert_eq!(encoded(&decoded), bytes, "{name}: encode, decode, encode");
    assert_eq!(decoded.len(), total, "{name}: decoded count");
    assert_eq!(decoded.rows(), graph.rows(), "{name}: decoded rows");
    graph
}

#[test]
fn corpus_replays_like_the_live_walk() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 24, "the corpus moved");
    for path in files {
        let p = Program::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        replays_like_the_live_walk(&name, &p.locs, &p.initial_machine());
    }
}

/// A tiny deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn generated_programs_replay_like_the_live_walk() {
    let mut locs = LocSet::new();
    let pool = [
        locs.fresh("a", LocKind::Nonatomic),
        locs.fresh("b", LocKind::Nonatomic),
        locs.fresh("F", LocKind::Atomic),
    ];
    let mut rng = Rng(0x7ace_5eed_0bad_cafe);
    for case in 0..40 {
        let threads = 2 + rng.below(2) as usize;
        let prog: Vec<RecordedExpr> = (0..threads)
            .map(|_| {
                let len = 1 + rng.below(3) as usize;
                RecordedExpr::new(
                    (0..len)
                        .map(|_| {
                            let l = pool[rng.below(3) as usize];
                            if rng.below(2) == 0 {
                                StepLabel::Read(l)
                            } else {
                                StepLabel::Write(l, Val(1 + rng.below(2) as i64))
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let m0 = Machine::initial(&locs, prog);
        replays_like_the_live_walk(&format!("case {case}"), &locs, &m0);
    }
}

#[test]
fn store_buffering_shares_rows_between_paths() {
    // Four threads of a write then a read (store buffering on four
    // nonatomics): thousands of traces over a few hundred machines, so a
    // recorder that stops sharing rows fails here.
    let mut locs = LocSet::new();
    let ls: Vec<_> = (0..4)
        .map(|i| locs.fresh(format!("x{i}"), LocKind::Nonatomic))
        .collect();
    let prog = (0..4).map(|i| {
        RecordedExpr::new(vec![
            StepLabel::Write(ls[i], Val(1)),
            StepLabel::Read(ls[(i + 1) % 4]),
        ])
    });
    let m0 = Machine::initial(&locs, prog);
    let graph = replays_like_the_live_walk("sb-4", &locs, &m0);
    assert!(graph.len() > 4096, "tree too small: {}", graph.len());
    assert!(
        graph.rows() < graph.len(),
        "{} rows for {} extensions",
        graph.rows(),
        graph.len()
    );
}

#[test]
fn a_tree_too_large_to_count_is_a_budget_error() {
    // Two threads that each write their own location 40 times: 41 × 41
    // machines, but C(80, 40) ≈ 10²³ complete traces, more than a
    // `usize` counts. The recording is bounded by its rows and must
    // return an error rather than a graph whose count overflowed.
    let mut locs = LocSet::new();
    let prog: Vec<RecordedExpr> = ["a", "b"]
        .into_iter()
        .map(|name| {
            let l = locs.fresh(name, LocKind::Nonatomic);
            RecordedExpr::new(vec![StepLabel::Write(l, Val(1)); 40])
        })
        .collect();
    let m0 = Machine::initial(&locs, prog);
    assert_eq!(
        budget(1680).record(&locs, m0.clone()).unwrap_err(),
        EngineError::budget(1681),
        "the rows are the 41 × 41 machines"
    );
    assert_eq!(
        budget(1681).record(&locs, m0).unwrap_err(),
        EngineError::budget(usize::MAX)
    );
}
