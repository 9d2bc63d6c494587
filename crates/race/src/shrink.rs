//! ddmin-style witness shrinking: minimise the program and the
//! interleaving while preserving the race.
//!
//! Zeller–Hildebrandt delta debugging ([`ddmin`]) over two item spaces:
//!
//! 1. **Program** — the top-level statements of every thread. A
//!    candidate keeps a subset of statements; it passes when exploring
//!    the smaller program still finds a race on the same location
//!    between the same thread pair.
//! 2. **Interleaving** — the witness trace's thread schedule. A
//!    candidate schedule is re-executed deterministically against the
//!    machine semantics ([`run_schedule`]); it passes when the resulting
//!    linear trace still races the same way.
//!
//! Both tests re-detect from scratch per candidate (the detector is the
//! oracle), so a shrunk witness is always a *real* witness of the shrunk
//! program — [`RaceWitness::validate`] is asserted on everything
//! returned.

use bdrst_core::engine::{EngineConfig, EngineError};
use bdrst_core::loc::{Loc, LocSet};
use bdrst_core::machine::{Expr, Machine, ThreadId, TransitionLabel};
use bdrst_lang::Program;

use bdrst_core::hb::{DetectorConfig, RaceDetector, RaceWitness};

use crate::detect::detect_races;

/// Classic ddmin: given `items` for which `test` holds, returns a
/// 1-minimal subsequence for which it still holds (removing any single
/// remaining item breaks the property). `test` must hold on the full
/// input; it is re-invoked on candidate subsequences only.
pub fn ddmin<T: Clone>(items: &[T], mut test: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut progressed = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // The complement of one chunk: the "reduce to complement"
            // step (trying the chunk itself is subsumed when granularity
            // is 2, and complements alone still reach 1-minimality).
            let complement: Vec<T> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if !complement.is_empty() && test(&complement) {
                current = complement;
                granularity = (granularity - 1).max(2);
                progressed = true;
                break;
            }
            start = end;
        }
        if !progressed {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// Deterministically re-executes a thread schedule: at each step, the
/// first enabled non-weak transition of the scheduled thread is taken.
/// Returns the resulting label trace, or `None` when a scheduled thread
/// has no enabled transition — the candidate schedule is simply invalid,
/// which ddmin treats as a failing test.
pub fn run_schedule<E: Expr>(
    locs: &LocSet,
    m0: &Machine<E>,
    schedule: &[ThreadId],
) -> Option<Vec<TransitionLabel>> {
    let mut m = m0.clone();
    let mut labels = Vec::with_capacity(schedule.len());
    for &t in schedule {
        let step = m
            .transitions(locs)
            .into_iter()
            .find(|tr| tr.label.thread == t && !tr.label.weak)?;
        labels.push(step.label);
        m = step.target;
    }
    Some(labels)
}

/// True when `w` is a race on the same location between the same thread
/// pair as the target — the property the shrinker preserves.
fn same_race(w: &RaceWitness, loc: Loc, threads: (ThreadId, ThreadId)) -> bool {
    w.loc == loc && (w.threads == threads || w.threads == (threads.1, threads.0))
}

/// A shrunk witness: the minimised program and a minimal racy
/// interleaving of it.
#[derive(Clone, Debug)]
pub struct ShrunkRace {
    /// The 1-minimal program still exhibiting the race.
    pub program: Program,
    /// A witness over the minimal program, with a 1-minimal schedule.
    pub witness: RaceWitness,
}

/// Shrinks `witness` (found on `program`) with ddmin: first the program
/// (dropping top-level statements), then the interleaving (dropping
/// schedule entries, revalidated against the semantics). The returned
/// witness is validated against the reference happens-before.
///
/// # Errors
///
/// [`EngineError`] if a detection run on the *original* program exceeds
/// the budget (candidate runs that exceed it are treated as failing
/// candidates, never as errors).
pub fn shrink_witness(
    program: &Program,
    witness: &RaceWitness,
    engine: EngineConfig,
) -> Result<ShrunkRace, EngineError> {
    let loc = witness.loc;
    let threads = witness.threads;
    // Candidate checks must not stop early at a witness cap: the target
    // race has to be found whenever it exists.
    let config = DetectorConfig {
        max_witnesses: usize::MAX,
    };

    // --- phase 1: the program ---------------------------------------
    // Items are (thread, statement) coordinates of top-level statements;
    // a candidate rebuilds the program from the kept coordinates.
    let coords: Vec<(usize, usize)> = program
        .threads
        .iter()
        .enumerate()
        .flat_map(|(ti, t)| (0..t.body.len()).map(move |si| (ti, si)))
        .collect();
    let rebuild = |kept: &[(usize, usize)]| -> Program {
        let mut p = program.clone();
        for (ti, t) in p.threads.iter_mut().enumerate() {
            t.body = t
                .body
                .iter()
                .enumerate()
                .filter(|(si, _)| kept.contains(&(ti, *si)))
                .map(|(_, s)| s.clone())
                .collect();
        }
        p
    };
    let races = |p: &Program| -> bool {
        detect_races(&p.locs, p.initial_machine(), engine, config)
            .map(|rep| rep.witnesses.iter().any(|w| same_race(w, loc, threads)))
            .unwrap_or(false)
    };
    // The full program must pass (the witness came from it).
    if !races(program) {
        // The witness was found under a different configuration than the
        // shrink is running with; re-detect to fail loudly rather than
        // ddmin from a failing base.
        detect_races(&program.locs, program.initial_machine(), engine, config)?;
        return Ok(ShrunkRace {
            program: program.clone(),
            witness: witness.clone(),
        });
    }
    let kept = ddmin(&coords, |cand| races(&rebuild(cand)));
    let shrunk = rebuild(&kept);
    let report = detect_races(&shrunk.locs, shrunk.initial_machine(), engine, config)?;
    let base = report
        .witnesses
        .into_iter()
        .find(|w| same_race(w, loc, threads))
        .expect("ddmin result passed the race test");

    // --- phase 2: the interleaving ----------------------------------
    // The schedule is the witness trace's thread sequence (truncated at
    // the racing access); candidates re-execute deterministically.
    let m0 = shrunk.initial_machine();
    let schedule: Vec<ThreadId> = base.trace.iter().map(|l| l.thread).collect();
    let racy_linear = |sched: &[ThreadId]| -> Option<RaceWitness> {
        let labels = run_schedule(&shrunk.locs, &m0, sched)?;
        RaceDetector::run_linear(&shrunk.locs, &labels).filter(|w| same_race(w, loc, threads))
    };
    let minimal = if racy_linear(&schedule).is_some() {
        ddmin(&schedule, |cand| racy_linear(cand).is_some())
    } else {
        // The deterministic re-execution of the recorded schedule can
        // diverge from the recorded trace (first-enabled tie-breaking);
        // keep the unshrunk schedule in that case.
        schedule
    };
    let witness = racy_linear(&minimal).unwrap_or(base);
    assert!(
        witness.validate(&shrunk.locs),
        "shrunk witness failed the reference check"
    );
    Ok(ShrunkRace {
        program: shrunk,
        witness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_the_minimal_pair() {
        // Property: the subset contains both 3 and 7.
        let items: Vec<u32> = (0..20).collect();
        let min = ddmin(&items, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(min, vec![3, 7]);
    }

    #[test]
    fn ddmin_single_item() {
        let items = vec![1u32, 2, 3];
        let min = ddmin(&items, |s| s.contains(&2));
        assert_eq!(min, vec![2]);
    }

    #[test]
    fn ddmin_keeps_everything_when_nothing_drops() {
        let items = vec![1u32, 2];
        let min = ddmin(&items, |s| s.len() == 2);
        assert_eq!(min, vec![1, 2]);
    }
}
