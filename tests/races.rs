//! Detector/checker differential suite: on the whole litmus corpus and
//! on ≥128 generated programs, "some explored SC trace has a race"
//! (the vector-clock detector, live and replayed) must agree exactly
//! with the DRF checkers' verdicts ([`sc_race_freedom`] /
//! [`check_global_drf`]), and every surfaced witness must survive the
//! O(n²) reference happens-before check with its space/time bounds
//! intact. The memoized replay must also match the unfolded one —
//! witnesses, events and statistics, under every trace budget on small
//! programs — there and on the benchmark's program shapes.

use proptest::prelude::*;

mod common;
use common::{mp_chain, small_program};

use bdrst::core::engine::{
    Control, EngineConfig, EngineError, ExploreStats, Step, TraceEngine, TraceGraph, TraceVisitor,
};
use bdrst::core::localdrf::{
    check_global_drf, check_local_drf_replayed, sc_race_freedom, DrfStatus,
};
use bdrst::core::machine::{ThreadId, TransitionLabel};
use bdrst::core::trace::{LocPredicate, TraceLabels};
use bdrst::lang::Program;
use bdrst::litmus::all_tests;
use bdrst::race::{
    detect_races_program, detect_races_replayed, DetectorConfig, RaceDetector, RaceReport,
    RaceWitness,
};

fn cfg() -> EngineConfig {
    EngineConfig::default()
}

/// Forwards the filter and the visits but not
/// [`TraceVisitor::summary`], so the replay walks the whole unfolded
/// tree.
struct Unfolded<V>(V);

impl<V: TraceVisitor> TraceVisitor for Unfolded<V> {
    fn step_filter(&mut self, label: &TransitionLabel) -> bool {
        self.0.step_filter(label)
    }

    fn visit(&mut self, trace: &TraceLabels, step: Step<'_>) -> Control {
        self.0.visit(trace, step)
    }
}

type Verdict = Result<(Vec<RaceWitness>, u64, ExploreStats), EngineError>;

fn verdict(report: Result<RaceReport, EngineError>) -> Verdict {
    report.map(|r| (r.witnesses, r.events, r.stats))
}

/// The memoized replay ([`detect_races_replayed`]) against the detector
/// over the unfolded tree, for the default detector and one stopping at
/// its first witness. On a tree of at most
/// `sweep` extensions, every trace budget up to the tree's size trips
/// each replay of the default detector exactly when it is below the
/// extensions that replay shows the detector, and leaves its report
/// unchanged otherwise.
fn assert_memo_matches_unfolded(name: &str, p: &Program, graph: &TraceGraph, sweep: usize) {
    let first_race = DetectorConfig { max_witnesses: 1 };
    let unfolded = |engine: EngineConfig, config: DetectorConfig| {
        let mut unfolded = Unfolded(RaceDetector::new(&p.locs, config));
        let stats = graph.replay(engine, &mut unfolded);
        let shown = unfolded.0.events() as usize;
        (
            verdict(stats.map(|stats| unfolded.0.into_report(stats))),
            shown,
        )
    };
    for config in [DetectorConfig::default(), first_race] {
        let memo = verdict(detect_races_replayed(&p.locs, graph, cfg(), config));
        assert_eq!(memo, unfolded(cfg(), config).0, "{name}: {config:?}");
    }
    if graph.len() <= sweep {
        let config = DetectorConfig::default();
        let uncapped = verdict(detect_races_replayed(&p.locs, graph, cfg(), config));
        let mut memo = RaceDetector::new(&p.locs, config);
        graph.replay(cfg(), &mut memo).unwrap();
        let shown = memo.events() as usize;
        let unfolded_shown = unfolded(cfg(), config).1;
        for max_traces in 0..=graph.len() {
            let engine = EngineConfig {
                max_states: usize::MAX,
                max_traces,
            };
            let expected = |shown| {
                if max_traces >= shown {
                    uncapped.clone()
                } else {
                    Err(EngineError::budget(max_traces + 1))
                }
            };
            assert_eq!(
                verdict(detect_races_replayed(&p.locs, graph, engine, config)),
                expected(shown),
                "{name}: {engine:?}, memoized"
            );
            assert_eq!(
                unfolded(engine, config).0,
                expected(unfolded_shown),
                "{name}: {engine:?}, unfolded"
            );
        }
    }
}

/// One full agreement check: detector (live + replayed) vs the checkers,
/// plus witness validity and bound assertions.
fn assert_detector_agrees(name: &str, p: &Program) {
    let oracle = sc_race_freedom(&p.locs, p.initial_machine(), cfg())
        .unwrap_or_else(|e| panic!("{name}: oracle failed: {e}"));
    let oracle_racy = matches!(oracle, DrfStatus::Racy(_));

    let live = detect_races_program(p, cfg(), DetectorConfig::default())
        .unwrap_or_else(|e| panic!("{name}: live detection failed: {e}"));
    assert_eq!(
        live.racy(),
        oracle_racy,
        "{name}: detector says {} but sc_race_freedom says {}",
        live.racy(),
        oracle_racy
    );

    // check_global_drf consistency: Theorem 14 holds for the paper's
    // semantics, so a detector-race-free program must come back
    // RaceFree from the global checker too.
    let global = check_global_drf(&p.locs, p.initial_machine(), cfg())
        .unwrap_or_else(|e| panic!("{name}: global checker failed: {e}"));
    assert_eq!(matches!(global, DrfStatus::Racy(_)), live.racy());

    // Offline detection over the recorded tree: identical witnesses.
    let (graph, _) = TraceEngine::new(cfg())
        .record(&p.locs, p.initial_machine())
        .unwrap_or_else(|e| panic!("{name}: recording failed: {e}"));
    let replayed = detect_races_replayed(&p.locs, &graph, cfg(), DetectorConfig::default())
        .unwrap_or_else(|e| panic!("{name}: replayed detection failed: {e}"));
    assert_eq!(
        live.witnesses, replayed.witnesses,
        "{name}: live and replayed witnesses diverge"
    );
    assert_eq!(live.events, replayed.events);
    assert_eq!(live.stats, replayed.stats);
    assert_memo_matches_unfolded(name, p, &graph, 300);

    // Every witness is a real race with coherent bounds.
    for w in &live.witnesses {
        assert!(w.validate(&p.locs), "{name}: invalid witness {w:?}");
        assert!(w.space_bound().contains(&w.loc));
        assert_eq!(w.time_bound(), w.second - w.first + 1);
        assert!(w.time_bound() >= 2, "{name}: a race needs two accesses");
        assert!(w.second < w.trace.len());
        // The space bound is exactly the locations the window touches.
        let touched: std::collections::BTreeSet<_> = w.trace[w.first..=w.second]
            .iter()
            .filter_map(|l| l.action.map(|a| a.loc))
            .collect();
        assert_eq!(&touched, w.space_bound(), "{name}: space bound drifted");
    }
}

#[test]
fn corpus_detector_agrees_with_checkers() {
    let mut racy = 0usize;
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        assert_detector_agrees(t.name, &p);
        if matches!(
            sc_race_freedom(&p.locs, p.initial_machine(), cfg()).unwrap(),
            DrfStatus::Racy(_)
        ) {
            racy += 1;
        }
    }
    // The corpus exercises both classes.
    assert!(racy > 0, "no racy corpus test");
    assert!(racy < all_tests().len(), "no race-free corpus test");
}

#[test]
fn every_racy_corpus_test_yields_a_shrinkable_witness() {
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let report = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
        if !report.racy() {
            continue;
        }
        let shrunk = bdrst::race::shrink_witness(&p, &report.witnesses[0], cfg())
            .unwrap_or_else(|e| panic!("{}: shrink failed: {e}", t.name));
        assert!(shrunk.witness.validate(&shrunk.program.locs), "{}", t.name);
        // Shrinking never grows the program, and the result still races.
        let before: usize = p.threads.iter().map(|th| th.body.len()).sum();
        let after: usize = shrunk.program.threads.iter().map(|th| th.body.len()).sum();
        assert!(after <= before, "{}: shrink grew the program", t.name);
        assert!(
            detect_races_program(&shrunk.program, cfg(), DetectorConfig::default())
                .unwrap()
                .racy(),
            "{}: shrunk program lost the race",
            t.name
        );
    }
}

/// Two reads of `x` unordered by happens-before, then a write: which
/// read the write races with first depends on the order the reads came
/// in, so a memoized replay must not merge the two read orders. (A
/// summary with epochs but not the access order did, and replay then
/// reported the (P1, P2) witness on a shorter trace than the live walk.)
/// The bare program's shared row is too small to be keyed, so a
/// variant pads it with an independent thread whose steps make the
/// row's subtree worth a memo key.
#[test]
fn replay_keeps_the_order_of_unordered_reads() {
    let threads = "thread P0 { r0 = x; } thread P1 { r1 = x; } thread P2 { x = 1; }";
    let bare = format!("nonatomic x; {threads}");
    let padded =
        format!("nonatomic x z; {threads} thread P3 {{ z = 1; z = 2; z = 3; z = 4; z = 5; }}");
    for src in [bare, padded] {
        let p = Program::parse(&src).unwrap();
        assert_detector_agrees(&src, &p);
        // The live walk meets the (P1, P2) race first on
        // `[P1 r, P0 r, P2 w]`.
        let live = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
        let p1_p2 = live
            .witnesses
            .iter()
            .find(|w| w.threads == (ThreadId(1), ThreadId(2)))
            .expect("P1 and P2 race");
        assert_eq!(p1_p2.trace.len(), 3);
    }
}

/// The benchmark's program shapes, rebuilt from their description: store
/// buffering over nonatomics (`sb-N`) and atomics (`sb-at-Nx1`),
/// unguarded message passing (`mp-2x2`) and the guarded
/// message-passing chain (`mp-chain-N`).
fn perfbench_shapes() -> Vec<(String, String)> {
    let thread = |i: usize, body: &[String]| format!("thread P{i} {{ {} }}\n", body.join(" "));
    let mut shapes = Vec::new();
    for (n, kind, name) in [
        (4, "nonatomic", "sb-4"),
        (5, "nonatomic", "sb-5"),
        (4, "atomic", "sb-at-4x1"),
        (5, "atomic", "sb-at-5x1"),
    ] {
        let names: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        let mut src = format!("{kind} {};\n", names.join(" "));
        for i in 0..n {
            let body = [
                format!("x{i} = {};", i + 1),
                format!("r0 = x{};", (i + 1) % n),
            ];
            src += &thread(i, &body);
        }
        shapes.push((name.to_string(), src));
    }
    let mut src = "nonatomic d0 d1;\natomic f;\n".to_string();
    src += &thread(0, &["d0 = 1;".into(), "d1 = 2;".into(), "f = 1;".into()]);
    for t in 1..=2 {
        src += &thread(t, &["r0 = f;".into(), "r1 = d0;".into(), "r2 = d1;".into()]);
    }
    shapes.push(("mp-2x2".to_string(), src));
    for n in [4, 5] {
        shapes.push((format!("mp-chain-{n}"), mp_chain(n)));
    }
    shapes
}

#[test]
fn memoized_replay_matches_unfolded_on_perfbench_shapes() {
    for (name, src) in perfbench_shapes() {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
        let (graph, _) = TraceEngine::new(cfg())
            .record(&p.locs, p.initial_machine())
            .unwrap_or_else(|e| panic!("{name}: recording failed: {e}"));
        assert_memo_matches_unfolded(&name, &p, &graph, 0);
    }
}

#[test]
fn mp_chain_6_records_and_replays_under_the_default_budget() {
    // 73.9 M extensions, far over the default trace budget of 10 M, fold
    // into 1 332 rows; the memoized replays show their checkers a few
    // thousand extensions.
    let p = Program::parse(&mp_chain(6)).unwrap();
    let (graph, _) = TraceEngine::new(cfg())
        .record(&p.locs, p.initial_machine())
        .unwrap();
    assert_eq!(graph.rows(), 1332);
    assert!(graph.len() > cfg().max_traces, "{}", graph.len());
    let report = detect_races_replayed(&p.locs, &graph, cfg(), DetectorConfig::default()).unwrap();
    assert!(!report.racy(), "{:?}", report.witnesses);
    assert_eq!(report.events, report.stats.visited as u64);
    let l: LocPredicate = p.locs.nonatomic().collect();
    check_local_drf_replayed(&p.locs, &graph, &l, cfg()).expect("Theorem 13 holds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ≥128 generated programs: race-found ⇔ DRF-checker violation,
    /// live ≡ replayed, witnesses valid.
    #[test]
    fn generated_detector_agrees_with_checkers(p in small_program()) {
        assert_detector_agrees("generated", &p);
    }
}
