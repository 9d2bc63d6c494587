//! Acceptance tests for the dynamic detector: oracle agreement with the
//! DRF checkers, live/replayed equivalence, witness bound validity, and
//! the ddmin shrinker.

use bdrst_core::engine::{EngineConfig, TraceEngine, TraceGraph};
use bdrst_core::localdrf::{sc_race_freedom, DrfStatus};
use bdrst_core::wire::Reader;
use bdrst_lang::Program;
use bdrst_litmus::all_tests;
use bdrst_race::{detect_races_program, detect_races_replayed, shrink_witness, DetectorConfig};

fn cfg() -> EngineConfig {
    EngineConfig::default()
}

const SB: &str = "nonatomic a b;
    thread P0 { a = 1; r0 = b; }
    thread P1 { b = 1; r1 = a; }";

const MP_AT: &str = "nonatomic a; atomic f;
    thread P0 { a = 1; f = 1; }
    thread P1 { r0 = f; if (r0 == 1) { r1 = a; } }";

#[test]
fn sb_races_with_valid_bounds() {
    let p = Program::parse(SB).unwrap();
    let report = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
    assert!(report.racy());
    assert!(report.events > 0);
    for w in &report.witnesses {
        assert!(w.validate(&p.locs), "invalid witness: {w:?}");
        assert!(w.space_bound().contains(&w.loc));
        assert_eq!(w.time_bound(), w.second - w.first + 1);
        assert_eq!(w.second, w.trace.len() - 1);
        assert_ne!(w.threads.0, w.threads.1, "witness pair must cross threads");
    }
}

#[test]
fn guarded_message_passing_is_race_free() {
    let p = Program::parse(MP_AT).unwrap();
    let report = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
    assert!(
        !report.racy(),
        "unexpected witnesses: {:?}",
        report.witnesses
    );
}

#[test]
fn unguarded_reader_races_through_the_flag() {
    // Without the guard the reader touches `a` unconditionally: the
    // atomic flag orders only the f=1 branch.
    let p = Program::parse(
        "nonatomic a; atomic f;
         thread P0 { a = 1; f = 1; }
         thread P1 { r0 = f; r1 = a; }",
    )
    .unwrap();
    let report = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
    assert!(report.racy());
    // Every witness must name the nonatomic location, never the atomic.
    for w in &report.witnesses {
        assert_eq!(p.locs.name(w.loc), "a");
        assert!(w.validate(&p.locs));
    }
}

#[test]
fn detector_agrees_with_sc_race_freedom_on_the_corpus() {
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let oracle = matches!(
            sc_race_freedom(&p.locs, p.initial_machine(), cfg()).unwrap(),
            DrfStatus::Racy(_)
        );
        let report = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
        assert_eq!(
            report.racy(),
            oracle,
            "{}: detector {} but sc_race_freedom {}",
            t.name,
            report.racy(),
            oracle
        );
        for w in &report.witnesses {
            assert!(w.validate(&p.locs), "{}: invalid witness {w:?}", t.name);
        }
    }
}

#[test]
fn replayed_detection_matches_live_on_the_corpus() {
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let live = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
        let (graph, _) = TraceEngine::new(cfg())
            .record(&p.locs, p.initial_machine())
            .unwrap();
        let rep = detect_races_replayed(&p.locs, &graph, cfg(), DetectorConfig::default()).unwrap();
        assert_eq!(live.racy(), rep.racy(), "{}: verdicts diverge", t.name);
        assert_eq!(live.events, rep.events, "{}: event counts diverge", t.name);
        assert_eq!(
            live.witnesses, rep.witnesses,
            "{}: witnesses diverge",
            t.name
        );
    }
}

#[test]
fn witness_cap_stops_collection() {
    let p = Program::parse(SB).unwrap();
    let capped = DetectorConfig { max_witnesses: 1 };
    let report = detect_races_program(&p, cfg(), capped).unwrap();
    assert_eq!(report.witnesses.len(), 1);
    let full = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
    assert!(full.witnesses.len() >= report.witnesses.len());
}

#[test]
fn budget_exhaustion_surfaces_as_engine_error() {
    let p = Program::parse(SB).unwrap();
    let tiny = EngineConfig {
        max_states: 2,
        max_traces: 2,
    };
    // SB races within two extensions on some branch orders; use a
    // race-free program so the walk must exhaust the budget.
    let free = Program::parse(
        "nonatomic a b;
         thread P0 { a = 1; a = 1; a = 1; }
         thread P1 { b = 1; b = 1; b = 1; }",
    )
    .unwrap();
    let err = detect_races_program(&free, tiny, DetectorConfig::default()).unwrap_err();
    assert!(err.is_budget(), "{err:?}");
    let _ = p;
}

#[test]
fn shrinker_reduces_sb_to_the_racing_pair() {
    let p = Program::parse(SB).unwrap();
    let report = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
    let w = report.witnesses[0].clone();
    let shrunk = shrink_witness(&p, &w, cfg()).unwrap();
    // Four statements shrink to the two that race.
    let stmts: usize = shrunk.program.threads.iter().map(|t| t.body.len()).sum();
    assert_eq!(
        stmts,
        2,
        "program not minimal: {}",
        shrunk.program.to_source()
    );
    assert!(shrunk.witness.validate(&shrunk.program.locs));
    assert_eq!(shrunk.witness.loc, w.loc);
    // The minimal interleaving is just the two racing accesses.
    assert_eq!(shrunk.witness.trace.len(), 2);
    assert_eq!(shrunk.witness.time_bound(), 2);
}

#[test]
fn shrinker_preserves_synchronisation_when_needed() {
    // Racy variant of MP: the reader accesses `a` unconditionally. The
    // race needs no flag at all, so the shrinker should strip the
    // synchronisation entirely.
    let p = Program::parse(
        "nonatomic a; atomic f;
         thread P0 { a = 1; f = 1; }
         thread P1 { r0 = f; r1 = a; }",
    )
    .unwrap();
    let report = detect_races_program(&p, cfg(), DetectorConfig::default()).unwrap();
    let w = report.witnesses[0].clone();
    let shrunk = shrink_witness(&p, &w, cfg()).unwrap();
    let stmts: usize = shrunk.program.threads.iter().map(|t| t.body.len()).sum();
    assert_eq!(stmts, 2, "{}", shrunk.program.to_source());
    assert!(shrunk.witness.validate(&shrunk.program.locs));
}

#[test]
fn linear_mode_detects_on_a_fixed_schedule() {
    use bdrst_core::machine::ThreadId;
    use bdrst_race::{run_schedule, RaceDetector};
    let p = Program::parse(SB).unwrap();
    let m0 = p.initial_machine();
    // P0 write a; P1 read a (its second statement needs P1's first too).
    let schedule = [ThreadId(0), ThreadId(1), ThreadId(1)];
    let labels = run_schedule(&p.locs, &m0, &schedule).unwrap();
    let w = RaceDetector::run_linear(&p.locs, &labels);
    let w = w.expect("schedule exhibits the SB race");
    assert!(w.validate(&p.locs));
    assert_eq!(p.locs.name(w.loc), "a");
}

#[test]
fn corrupted_corpus_recordings_decode_to_errors_or_replayable_graphs() {
    // Every truncation and every single-byte flip (low bit, all bits) of
    // every corpus recording must decode to an error, or to a graph that
    // re-encodes to the bytes it consumed and replays the race detector
    // without panicking. The replay's budget bounds a flip that makes the
    // tree larger; a budget error is an answer, not a failure.
    let replay_budget = EngineConfig {
        max_traces: 10_000,
        ..cfg()
    };
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let threads = p.threads.len();
        let (graph, _) = TraceEngine::new(cfg())
            .record(&p.locs, p.initial_machine())
            .unwrap();
        let mut bytes = Vec::new();
        graph.encode(&mut bytes);
        assert!(bytes.len() <= 9_060, "{}: {} bytes", t.name, bytes.len());
        for cut in 0..bytes.len() {
            assert!(
                TraceGraph::decode(&mut Reader::new(&bytes[..cut]), &p.locs, threads).is_err(),
                "{}: truncation at {cut} decoded",
                t.name
            );
        }
        for i in 0..bytes.len() {
            for mask in [0x01, 0xff] {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                let mut r = Reader::new(&bad);
                let Ok(g) = TraceGraph::decode(&mut r, &p.locs, threads) else {
                    continue;
                };
                let mut again = Vec::new();
                g.encode(&mut again);
                assert_eq!(
                    again,
                    bad[..bad.len() - r.remaining()],
                    "{}: byte {i} ^ {mask:#x} re-encodes differently",
                    t.name
                );
                let _ =
                    detect_races_replayed(&p.locs, &g, replay_budget, DetectorConfig::default());
            }
        }
    }
}
