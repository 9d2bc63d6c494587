//! Translation validation through the operational model.
//!
//! A thread transformation is *observationally sound in a context* if every
//! outcome of the transformed thread composed with that context is an
//! outcome of the original thread in the same context. Contexts distinguish
//! far more than sequential runs do — the §7.1 negative example (redundant
//! store elimination) looks harmless sequentially but is caught by the
//! two-line context from the paper's Example 1 discussion.
//!
//! The comparison ignores the transformed thread's own registers (an
//! optimiser may rename or remove temporaries) and compares the *context
//! threads'* registers plus final memory.

use std::collections::BTreeSet;

use bdrst_core::engine::{EngineConfig, EngineError};
use bdrst_core::explore::reachable_terminals;
use bdrst_core::loc::{LocKind, LocSet, Val};
use bdrst_core::machine::Machine;
use bdrst_lang::{Stmt, ThreadState};

/// One observable of a terminated machine: context-thread registers plus
/// final memory.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ContextObservation {
    /// Register files of the context threads, in order.
    pub context_regs: Vec<Vec<Val>>,
    /// Final (coherence-latest) value per location.
    pub memory: Vec<Val>,
}

/// The outcome set of `thread` composed with `context`, projected onto
/// context registers and memory.
///
/// # Errors
///
/// Returns [`EngineError`] if exploration exceeds the budget.
pub fn context_outcomes(
    locs: &LocSet,
    thread: &[Stmt],
    context: &[Vec<Stmt>],
    config: EngineConfig,
) -> Result<BTreeSet<ContextObservation>, EngineError> {
    let mut exprs = vec![ThreadState::new(thread.to_vec())];
    exprs.extend(context.iter().map(|c| ThreadState::new(c.clone())));
    let m0 = Machine::initial(locs, exprs);
    let terminals = reachable_terminals(locs, m0, config)?;
    Ok(terminals
        .iter()
        .map(|m| ContextObservation {
            context_regs: m.threads[1..]
                .iter()
                .map(|t| t.expr.regs().to_vec())
                .collect(),
            memory: locs
                .iter()
                .map(|l| match locs.kind(l) {
                    LocKind::Nonatomic => m.store.history(l).latest().1,
                    LocKind::Atomic => m.store.atomic(l).1,
                })
                .collect(),
        })
        .collect())
}

/// The verdict of a translation validation run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationReport {
    /// Outcomes of the original thread in context.
    pub original: BTreeSet<ContextObservation>,
    /// Outcomes of the transformed thread in context.
    pub transformed: BTreeSet<ContextObservation>,
}

impl ValidationReport {
    /// True iff the transformation introduces no new observable outcome.
    pub fn refines(&self) -> bool {
        self.transformed.is_subset(&self.original)
    }
}

/// Validates `transformed` against `original` in a given parallel context.
///
/// # Errors
///
/// Returns [`EngineError`] if either exploration exceeds the budget.
pub fn validate_in_context(
    locs: &LocSet,
    original: &[Stmt],
    transformed: &[Stmt],
    context: &[Vec<Stmt>],
    config: EngineConfig,
) -> Result<ValidationReport, EngineError> {
    Ok(ValidationReport {
        original: context_outcomes(locs, original, context, config)?,
        transformed: context_outcomes(locs, transformed, context, config)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes;
    use bdrst_lang::Program;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    /// Parses a two-part program: thread P0 is the transformed subject,
    /// remaining threads are context.
    fn split(src: &str) -> (LocSet, Vec<Stmt>, Vec<Vec<Stmt>>) {
        let p = Program::parse(src).unwrap();
        let locs = p.locs.clone();
        let subject = p.threads[0].body.clone();
        let ctx = p.threads[1..].iter().map(|t| t.body.clone()).collect();
        (locs, subject, ctx)
    }

    #[test]
    fn cse_validates_in_racy_context() {
        let (locs, subject, ctx) = split(
            "nonatomic a b;
             thread P0 { r1 = a; r2 = b; r3 = a; }
             thread P1 { a = 1; a = 2; b = 1; }",
        );
        let opt = passes::cse_loads(&locs, &subject).unwrap();
        let rep = validate_in_context(&locs, &subject, &opt, &ctx, cfg()).unwrap();
        assert!(rep.refines());
    }

    #[test]
    fn dse_validates_in_racy_context() {
        let (locs, subject, ctx) = split(
            "nonatomic a b c;
             thread P0 { a = 1; b = c; a = 2; }
             thread P1 { r0 = a; r1 = a; }",
        );
        let opt = passes::dead_store_elimination(&locs, &subject).unwrap();
        let rep = validate_in_context(&locs, &subject, &opt, &ctx, cfg()).unwrap();
        assert!(rep.refines());
    }

    #[test]
    fn constant_propagation_validates() {
        let (locs, subject, ctx) = split(
            "nonatomic a b c;
             thread P0 { a = 1; b = c; r = a; }
             thread P1 { c = 5; }",
        );
        let opt = passes::constant_propagation(&locs, &subject).unwrap();
        let rep = validate_in_context(&locs, &subject, &opt, &ctx, cfg()).unwrap();
        assert!(rep.refines());
    }

    #[test]
    fn deliberately_wrong_transform_fails_validation() {
        // Reordering a load after a store (poRW violation) changes
        // observable behaviour in a context that synchronises on the
        // store: the LB-style context lets the hoisted store license a
        // write to `a` that the load then (wrongly) observes. The loaded
        // value is published through the `out` location so the projection
        // onto context + memory sees it.
        let (locs, subject, ctx) = split(
            "nonatomic a b out;
             thread P0 { r0 = a; b = 1; out = r0; }
             thread P1 { r1 = b; if (r1 == 1) { a = 1; } }",
        );
        // Illegal transform: the store to b first, then the load of a.
        let bad = vec![subject[1].clone(), subject[0].clone(), subject[2].clone()];
        let rep = validate_in_context(&locs, &subject, &bad, &ctx, cfg()).unwrap();
        assert!(
            !rep.refines(),
            "reordering load past store must introduce the LB outcome"
        );
    }

    #[test]
    fn sequentialisation_validates() {
        // [P ∥ Q] ⇒ [P; Q]: the sequentialised program's outcomes (with a
        // probe context) are a subset of the parallel original's.
        let p = Program::parse(
            "nonatomic a b;
             thread P0 { a = 1; }
             thread P1 { b = 1; }
             thread C  { r0 = a; r1 = b; }",
        )
        .unwrap();
        let seq = passes::sequentialise(&p, 0, 1);
        // Outcomes projected on the probe thread C and memory.
        let orig = context_outcomes(
            &p.locs,
            &p.threads[0].body,
            &[p.threads[1].body.clone(), p.threads[2].body.clone()],
            cfg(),
        )
        .unwrap();
        let seqd = context_outcomes(
            &seq.locs,
            &seq.threads[0].body,
            &[vec![], seq.threads[1].body.clone()],
            cfg(),
        )
        .unwrap();
        assert!(seqd.is_subset(&orig));
    }
}
