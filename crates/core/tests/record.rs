//! The parallel trace recorder against the sequential one: on the litmus
//! corpus and on generated programs, recording with 1, 2, 4 and 8
//! workers — split from the first node on, so small trees take the
//! parallel path too — must produce byte-identical trees and identical
//! statistics, and the trace budget must trip at exactly the same count.

use std::path::Path;

use bdrst_core::engine::{EngineConfig, EngineError, TraceEngine, TraceGraph};
use bdrst_core::loc::{LocKind, LocSet, Val};
use bdrst_core::machine::{Expr, Machine, RecordedExpr, StepLabel};
use bdrst_lang::Program;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

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

/// Records `m0` at every worker count and split point and checks each
/// result, and each budget trip, against the sequential recording.
fn agrees_at_every_worker_count<E: Expr + Send + Sync>(name: &str, locs: &LocSet, m0: &Machine<E>) {
    let engine = TraceEngine::new(EngineConfig::default());
    let (seq, seq_stats) = engine.record_with(locs, m0.clone(), 1, usize::MAX).unwrap();
    let want = encoded(&seq);
    let total = seq.len();
    assert_eq!(seq_stats.visited, total, "{name}");

    let (public, public_stats) = engine.record(locs, m0.clone()).unwrap();
    assert_eq!(encoded(&public), want, "{name}: record");
    assert_eq!(public_stats, seq_stats, "{name}: record");

    for workers in WORKERS {
        for split_after in [0, 1, 5, 100] {
            let (graph, stats) = engine
                .record_with(locs, m0.clone(), workers, split_after)
                .unwrap();
            let at = format!("{name}: {workers} workers, split after {split_after}");
            assert_eq!(encoded(&graph), want, "{at}");
            assert_eq!(stats, seq_stats, "{at}");
        }
        if total == 0 {
            continue;
        }
        assert_eq!(
            budget(total - 1)
                .record_with(locs, m0.clone(), workers, 0)
                .unwrap_err(),
            EngineError::budget(total),
            "{name}: {workers} workers, budget one short"
        );
        let (graph, stats) = budget(total)
            .record_with(locs, m0.clone(), workers, 0)
            .unwrap();
        assert_eq!(
            encoded(&graph),
            want,
            "{name}: {workers} workers, exact budget"
        );
        assert_eq!(stats, seq_stats, "{name}: {workers} workers, exact budget");
    }
}

#[test]
fn corpus_records_identically_at_every_worker_count() {
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
        agrees_at_every_worker_count(&name, &p.locs, &p.initial_machine());
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
fn generated_programs_record_identically_at_every_worker_count() {
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
        agrees_at_every_worker_count(&format!("case {case}"), &locs, &m0);
    }
}

#[test]
fn trees_past_the_split_threshold_record_identically() {
    // Four threads of a write then a read (store buffering on four
    // nonatomics): thousands of traces, so `record` itself splits.
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
    let (graph, _) = TraceEngine::new(EngineConfig::default())
        .record_with(&locs, m0.clone(), 1, usize::MAX)
        .unwrap();
    assert!(
        graph.len() > 4096,
        "tree too small to split: {}",
        graph.len()
    );
    agrees_at_every_worker_count("sb-4", &locs, &m0);
}
