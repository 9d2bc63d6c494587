//! Property-based tests: random rationals, random relations, and — most
//! importantly — random small concurrent programs, for which the
//! operational and axiomatic semantics must agree outcome-for-outcome and
//! every DRF theorem must hold.

use proptest::prelude::*;

mod common;
use common::{small_program, wide_program};

use bdrst::axiomatic::{check_equivalence, EnumLimits};
use bdrst::core::engine::{canonical_fingerprint, EngineConfig, StateId};
use bdrst::core::frontier::Frontier;
use bdrst::core::history::History;
use bdrst::core::loc::{Action, Loc, LocKind, LocSet, Val};
use bdrst::core::localdrf::{check_global_drf, check_local_drf};
use bdrst::core::relation::Relation;
use bdrst::core::store::{LocContents, Store};
use bdrst::core::timestamp::Ratio;
use bdrst::core::trace::LocPredicate;
use bdrst::lang::{Program, ThreadState};
use bdrst::litmus::all_tests;

// ---------- rationals ----------

fn ratio() -> impl Strategy<Value = Ratio> {
    (-1000i64..1000, 1i64..1000).prop_map(|(n, d)| Ratio::new(n, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ratio_normalisation_is_canonical(n in -1000i64..1000, d in 1i64..1000, k in 1i64..50) {
        prop_assert_eq!(Ratio::new(n, d), Ratio::new(n * k, d * k));
    }

    #[test]
    fn ratio_order_is_total_and_consistent(a in ratio(), b in ratio()) {
        use std::cmp::Ordering::*;
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => prop_assert_eq!(a, b),
        }
    }

    #[test]
    fn ratio_midpoint_is_strictly_between(a in ratio(), b in ratio()) {
        prop_assume!(a != b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let m = lo.midpoint(hi);
        prop_assert!(lo < m && m < hi);
    }
}

// ---------- relations ----------

fn relation(n: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..n, 0..n), 0..n * 2)
        .prop_map(move |edges| Relation::from_edges(n, edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transitive_closure_is_idempotent(r in relation(6)) {
        let tc = r.transitive_closure();
        prop_assert_eq!(tc.transitive_closure(), tc);
    }

    #[test]
    fn closure_contains_relation(r in relation(6)) {
        prop_assert!(r.is_subset(&r.transitive_closure()));
    }

    #[test]
    fn composition_distributes_over_union(a in relation(5), b in relation(5), c in relation(5)) {
        let lhs = a.union(&b).compose(&c);
        let rhs = a.compose(&c).union(&b.compose(&c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn transpose_involutive(r in relation(6)) {
        prop_assert_eq!(r.transpose().transpose(), r);
    }
}

// ---------- random concurrent programs ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorems 15+16 on random programs: the two semantics agree exactly.
    #[test]
    fn random_programs_equivalent_semantics(p in small_program()) {
        let rep = check_equivalence(&p, EngineConfig::default(), EnumLimits::default())
            .expect("exploration fits budget");
        prop_assert!(rep.holds(),
            "missing {:?} extra {:?}", rep.missing_in_axiomatic(), rep.extra_in_axiomatic());
    }

    /// Theorem 13 with singleton L on random programs.
    #[test]
    fn random_programs_local_drf(p in small_program()) {
        for loc in p.locs.nonatomic() {
            let l: LocPredicate = [loc].into_iter().collect();
            let res = check_local_drf(&p.locs, p.initial_machine(), &l, EngineConfig::default());
            prop_assert!(res.is_ok(), "{:?}", res.err());
        }
    }

    /// Theorem 14 on random programs.
    #[test]
    fn random_programs_global_drf(p in small_program()) {
        let res = check_global_drf(&p.locs, p.initial_machine(), EngineConfig::default());
        prop_assert!(res.is_ok(), "{:?}", res.err());
    }

    /// Copy-on-write aliasing: successor stores share the parent's
    /// allocations, so mutating a child (or merely enumerating
    /// successors) must never be observable through the parent. Walks a
    /// bounded prefix of the state graph, deep-snapshotting each store
    /// before `transitions` and comparing afterwards — including after a
    /// second generation of successors has written through the shared
    /// slots.
    #[test]
    fn random_programs_cow_stores_never_leak_into_parents(p in small_program()) {
        let mut queue = vec![p.initial_machine()];
        let mut visited = 0usize;
        while let Some(m) = queue.pop() {
            if visited >= 48 {
                break;
            }
            visited += 1;
            let snapshot = m.store.deep_clone();
            prop_assert!(!m.store.ptr_eq(&snapshot));
            let succs = m.transitions(&p.locs);
            for t in &succs {
                // Memoryless steps alias the parent store outright; a
                // memory write diverges the spine, leaving the parent's
                // untouched slots shared.
                if t.label.action.is_none() {
                    prop_assert!(t.target.store.ptr_eq(&m.store),
                        "silent step copied the store in\n{}", p);
                }
                // Push the grandchildren's writes through the shared
                // allocations before we re-read the parent.
                let _ = t.target.transitions(&p.locs);
            }
            // Structural sharing across *siblings*: every slot a successor
            // did not write is the parent's very allocation — hence, by
            // transitivity, pointer-identical across all sibling branches.
            let written = |t: &bdrst::core::machine::Transition<_>| {
                t.label.action.as_ref().and_then(|a| {
                    matches!(a.action, Action::Write(_)).then_some(a.loc)
                })
            };
            for t1 in &succs {
                let w1 = written(t1);
                for l in p.locs.iter() {
                    if w1 != Some(l) {
                        prop_assert!(
                            std::ptr::eq(t1.target.store.contents(l), m.store.contents(l)),
                            "off-path slot {l} copied instead of shared in\n{}", p);
                    }
                }
                for t2 in &succs {
                    let w2 = written(t2);
                    for l in p.locs.iter() {
                        if w1 != Some(l) && w2 != Some(l) {
                            prop_assert!(std::ptr::eq(
                                t1.target.store.contents(l),
                                t2.target.store.contents(l)));
                        }
                    }
                }
            }
            prop_assert_eq!(&m.store, &snapshot,
                "parent store mutated by successor enumeration in\n{}", p);
            queue.extend(succs.into_iter().map(|t| t.target));
        }
    }
}

// ---------- pmap store vs flat reference ----------

/// The flat reference representation: `Store::initial`'s contents as a
/// plain `Vec`, maintained independently through the exploration's update
/// stream.
fn reference_initial(locs: &LocSet) -> Vec<LocContents> {
    let f0 = Frontier::initial(locs);
    locs.iter()
        .map(|l| match locs.kind(l) {
            LocKind::Nonatomic => LocContents::Nonatomic(History::initial(Val::INIT)),
            LocKind::Atomic => LocContents::Atomic {
                frontier: f0.clone(),
                value: Val::INIT,
            },
        })
        .collect()
}

/// Differential walk: every visited pmap store must agree with the flat
/// mirror on reads, iteration order, a rebuild from the mirror, and
/// content digest; each transition may move exactly the slot its write
/// label names.
fn assert_store_matches_reference(p: &Program, budget: usize) {
    let mut stack = vec![(p.initial_machine(), reference_initial(&p.locs))];
    let mut visited = 0usize;
    while let Some((m, mirror)) = stack.pop() {
        if visited >= budget {
            break;
        }
        visited += 1;
        // Reads and iteration order against the mirror.
        prop_assert_eq!(m.store.len(), mirror.len());
        for (i, ((l, c), rc)) in m.store.iter().zip(mirror.iter()).enumerate() {
            prop_assert_eq!(l, Loc(i as u32), "iteration order broke in\n{}", p);
            prop_assert_eq!(c, rc, "slot {} diverged from the mirror in\n{}", l, p);
            prop_assert_eq!(c, m.store.contents(l));
        }
        // A store rebuilt from the mirror, one update per slot in
        // location order, is equal and recombines to the *same* content
        // digest and canonical fingerprint — digests are
        // content-addressed, not history-of-updates-addressed.
        let mut rebuilt = Store::initial(&p.locs);
        for (i, c) in mirror.iter().enumerate() {
            rebuilt.update(Loc(i as u32), c.clone());
        }
        prop_assert_eq!(&rebuilt, &m.store);
        prop_assert_eq!(rebuilt.content_digest(), m.store.content_digest());
        let mut flat = m.clone();
        flat.store = rebuilt;
        prop_assert_eq!(
            canonical_fingerprint(&p.locs, &m).unwrap(),
            canonical_fingerprint(&p.locs, &flat).unwrap(),
            "fingerprint depends on store representation in\n{}",
            p
        );
        for t in m.transitions(&p.locs) {
            let mut next = mirror.clone();
            if let Some(a) = &t.label.action {
                if matches!(a.action, Action::Write(_)) {
                    next[a.loc.index()] = t.target.store.contents(a.loc).clone();
                }
            }
            stack.push((t.target, next));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The persistent store ≡ a flat `Vec` reference, on corpus-shaped
    /// (3-location) programs.
    #[test]
    fn random_programs_pmap_store_matches_vec_reference(p in small_program()) {
        assert_store_matches_reference(&p, 48);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same differential on *wide* (73-location, multi-level pmap)
    /// programs: path copies traverse interior nodes, off-path subtrees
    /// are whole shared branches.
    #[test]
    fn wide_programs_pmap_store_matches_vec_reference(p in wide_program()) {
        assert_store_matches_reference(&p, 32);
    }
}

// ---------- shared continuations ----------

fn hash_of(t: &ThreadState) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The continuation oracle: over every thread state reached in `p`'s state
/// graph, equality holds exactly when the structural `Debug` renderings
/// (statements bottom first, then registers) are equal, and equal states
/// hash equally. `Debug` prints every statement and register, and reads
/// neither the memoized digests nor the hand-written `Eq`/`Hash` under
/// test. Each distinct rendering is represented by the first and last
/// state reached with it and by the first state reached with it in a
/// second, independent exploration, whose frames share nothing with the
/// first's, so equality is checked both through shared suffixes and by a
/// full structural walk.
fn assert_thread_states_match_their_bytes(name: &str, p: &Program) {
    let explore = || {
        let (graph, _) = p
            .state_graph(EngineConfig::default())
            .expect("exploration fits budget");
        let mut groups: std::collections::BTreeMap<String, Vec<ThreadState>> = Default::default();
        for id in 0..graph.len() {
            for t in graph.state(StateId(id as u32)).thread_exprs() {
                let group = groups.entry(format!("{t:?}")).or_default();
                match group.len() {
                    0 | 1 => group.push(t.clone()),
                    _ => group[1] = t.clone(),
                }
            }
        }
        groups
    };
    let (groups, copies) = (explore(), explore());
    assert!(
        groups.keys().eq(copies.keys()),
        "{name}: explorations disagree"
    );
    let reps: Vec<(&String, &ThreadState)> = groups
        .iter()
        .zip(&copies)
        .flat_map(|((key, group), (_, copy))| group.iter().chain(&copy[..1]).map(move |t| (key, t)))
        .collect();
    for (ka, a) in &reps {
        for (kb, b) in &reps {
            assert_eq!(a == b, ka == kb, "{name}: equality disagrees with Debug");
            if a == b {
                assert_eq!(hash_of(a), hash_of(b), "{name}: equal states hash apart");
            }
        }
    }
}

#[test]
fn corpus_thread_states_are_equal_exactly_when_their_bytes_are() {
    for t in all_tests() {
        let p = bdrst::lang::parse(t.source).expect("corpus parses");
        assert_thread_states_match_their_bytes(t.name, &p);
    }
    // A loop whose unrollings push equal frames at different times, so
    // equal continuations are reached without sharing them.
    let looping = "nonatomic a; atomic F; \
        thread P0 { r0 = 2; while (r0 > 0) { a = r0; r0 = r0 - 1; } F = 1; } \
        thread P1 { r1 = F; if (r1 == 1) { r0 = a; } else { r0 = 0; } }";
    let p = bdrst::lang::parse(looping).expect("parses");
    assert_thread_states_match_their_bytes("loop", &p);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_thread_states_are_equal_exactly_when_their_bytes_are(p in small_program()) {
        assert_thread_states_match_their_bytes("random program", &p);
    }
}
