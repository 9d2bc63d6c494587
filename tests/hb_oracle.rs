//! Oracle suite for the incremental happens-before (`core::hb`): on the
//! whole litmus corpus and on ≥128 generated programs, every extension of
//! every trace — unfiltered, so weak traces are included, and unpruned,
//! so prefixes that already race are included — is queried against the
//! Definition 8 reference (`TraceLabels::happens_before` plus
//! `conflicting`):
//!
//! * "races with some earlier access" ≡ the reference;
//! * the query against a snapshot of the access table at every prefix
//!   boundary ≡ the reference limited to that prefix;
//! * on race-free prefixes, the detector's partner is the one its rule
//!   names: the location's highest-index write plus each thread's last
//!   read, earliest unordered one first.

use proptest::prelude::*;

mod common;
use common::small_program;

use bdrst::core::engine::{Control, EngineConfig, Step, TraceEngine, TraceVisitor};
use bdrst::core::hb::{AccessTable, HbState};
use bdrst::core::loc::{LocKind, LocSet};
use bdrst::core::machine::TransitionLabel;
use bdrst::core::trace::{conflicting, TraceLabels};
use bdrst::lang::Program;
use bdrst::litmus::all_tests;

/// Walks every trace, checking each new label before pushing it.
struct Oracle<'a> {
    locs: &'a LocSet,
    hb: HbState<'a>,
    /// `snapshots[k]`: the access table after the first `k` labels of the
    /// current trace.
    snapshots: Vec<AccessTable>,
    /// Extensions checked.
    checks: usize,
    /// Extensions whose prefix already raced.
    after_race: usize,
}

impl<'a> Oracle<'a> {
    fn new(locs: &'a LocSet) -> Oracle<'a> {
        let hb = HbState::new(locs);
        Oracle {
            locs,
            snapshots: vec![hb.accesses().clone()],
            hb,
            checks: 0,
            after_race: 0,
        }
    }

    fn check(&mut self, trace: &TraceLabels, label: TransitionLabel) {
        let locs = self.locs;
        let n = trace.len() - 1;
        self.hb.truncate(n);
        self.snapshots.truncate(n + 1);
        let reference = trace.happens_before(locs);
        let earlier = &trace.labels()[..n];
        // Indices below `limit` that race with the new label.
        let racing = |limit: usize| -> Vec<usize> {
            (0..limit)
                .filter(|&i| conflicting(&earlier[i], &label, locs) && !reference.contains(i, n))
                .collect()
        };

        let all = racing(n);
        let got = self.hb.race(&label);
        assert_eq!(got.is_some(), !all.is_empty(), "race query on {trace:?}");
        if let Some(a) = got {
            assert!(all.contains(&a.index), "{a:?} is no race in {trace:?}");
        }
        for (k, snapshot) in self.snapshots.iter().enumerate() {
            let expected = racing(k);
            let got = self.hb.race_in(snapshot, &label);
            assert_eq!(
                got.is_some(),
                !expected.is_empty(),
                "prefix-{k} query on {trace:?}"
            );
            if let Some(a) = got {
                assert!(expected.contains(&a.index), "prefix-{k} {a:?} on {trace:?}");
            }
        }

        let prefix_racefree = (0..n).all(|j| {
            (0..j).all(|i| !conflicting(&earlier[i], &earlier[j], locs) || reference.contains(i, j))
        });
        if prefix_racefree {
            assert_eq!(
                self.hb.detector_partner(&label).map(|a| a.index),
                detector_rule(locs, earlier, &label, &reference, n),
                "detector partner on {trace:?}"
            );
        } else {
            self.after_race += 1;
        }
        self.checks += 1;
        self.hb.push(&label);
        self.snapshots.push(self.hb.accesses().clone());
    }
}

/// The detector's partner rule, on labels: the highest-index write to the
/// label's location and (for a write) each thread's last read of it,
/// earliest one unordered by the reference happens-before first.
fn detector_rule(
    locs: &LocSet,
    earlier: &[TransitionLabel],
    label: &TransitionLabel,
    reference: &bdrst::core::relation::Relation,
    n: usize,
) -> Option<usize> {
    let la = label.action?;
    if locs.kind(la.loc) != LocKind::Nonatomic {
        return None;
    }
    let on_loc = |i: &usize| earlier[*i].action.is_some_and(|a| a.loc == la.loc);
    let is_write = |i: &usize| earlier[*i].action.is_some_and(|a| a.action.is_write());
    let mut candidates: Vec<usize> = (0..n)
        .filter(on_loc)
        .filter(is_write)
        .max()
        .into_iter()
        .collect();
    if la.action.is_write() {
        let threads: std::collections::BTreeSet<_> = earlier.iter().map(|l| l.thread).collect();
        for t in threads {
            let last_read = (0..n)
                .filter(on_loc)
                .filter(|i| !is_write(i) && earlier[*i].thread == t)
                .max();
            candidates.extend(last_read);
        }
    }
    candidates
        .into_iter()
        .filter(|&i| !reference.contains(i, n))
        .min()
}

impl TraceVisitor for Oracle<'_> {
    fn visit(&mut self, trace: &TraceLabels, step: Step<'_>) -> Control {
        self.check(trace, step.label);
        Control::Continue
    }
}

/// Walks every trace of `p`; returns (extensions checked, extensions
/// after a first race).
fn check_program(p: &Program) -> (usize, usize) {
    let mut oracle = Oracle::new(&p.locs);
    TraceEngine::new(EngineConfig::default())
        .explore(&p.locs, p.initial_machine(), &mut oracle)
        .expect("trace tree fits the budget");
    (oracle.checks, oracle.after_race)
}

#[test]
fn corpus_hb_matches_the_reference() {
    let (mut checks, mut after_race) = (0, 0);
    for t in all_tests() {
        let p = Program::parse(t.source).unwrap();
        let (c, r) = check_program(&p);
        checks += c;
        after_race += r;
    }
    // The walk reaches prefixes that already race, where a single last
    // write would go wrong.
    assert!(
        after_race > 0 && after_race < checks,
        "{after_race} of {checks}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_hb_matches_the_reference(p in small_program()) {
        check_program(&p);
    }
}
