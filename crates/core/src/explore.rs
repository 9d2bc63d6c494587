//! Exhaustive exploration of the operational semantics — the convenience
//! layer over [`crate::engine`].
//!
//! State-space exploration ([`reachable_terminals`]) deduplicates
//! machines up to *timestamp renaming*: two stores that differ only in
//! the rational representatives of their timestamps are observationally
//! identical, so each location's timestamps are replaced by their rank
//! before hashing. Used for outcome enumeration.
//!
//! [`reachable_terminals`] is a thin wrapper over the sequential
//! [`WorklistEngine`], the reference every other outcome path is checked
//! against. The engines themselves (the worklist, interned canonical
//! states, the state-graph recorder, DPOR, the trace walk that
//! the trace-dependent DRF checkers drive) live in [`crate::engine`], and
//! checkers that need to steer the search implement
//! [`crate::engine::StateVisitor`] / [`crate::engine::TraceVisitor`]
//! directly.

use crate::engine::{Control, EngineConfig, EngineError, StateId, WorklistEngine};
use crate::loc::LocSet;
use crate::machine::{Expr, Machine};

pub use crate::engine::canonicalize;
pub use crate::engine::CanonState;
pub use crate::engine::ExploreStats;

/// Explores the full state space from `m0`, returning all *terminal*
/// machines (no thread can step), deduplicated canonically, on the
/// sequential depth-first engine.
///
/// # Errors
///
/// Returns [`EngineError::BudgetExceeded`] if more than `config.max_states`
/// canonical states are reachable, or [`EngineError::CorruptFrontier`] on a
/// corrupted machine.
pub fn reachable_terminals<E: Expr>(
    locs: &LocSet,
    m0: Machine<E>,
    config: EngineConfig,
) -> Result<Vec<Machine<E>>, EngineError> {
    let mut terminals = Vec::new();
    WorklistEngine::new(config).explore(locs, m0, &mut |m: &Machine<E>, _id: StateId| {
        if m.is_terminal() {
            terminals.push(m.clone());
        }
        Control::Continue
    })?;
    Ok(terminals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::{Loc, LocKind, Val};
    use crate::machine::{RecordedExpr, StepLabel};
    use std::collections::HashSet;

    fn locs_ab() -> (LocSet, Loc, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        let b = l.fresh("b", LocKind::Nonatomic);
        (l, a, b)
    }

    #[test]
    fn store_buffering_all_four_outcomes() {
        // SB: P0: a=1; r0=b   P1: b=1; r1=a — both reads CAN be stale:
        // each reader's frontier knows nothing of the other's write.
        let (locs, a, b) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1)), StepLabel::Read(b)]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(b, Val(1)), StepLabel::Read(a)]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let terms = reachable_terminals(&locs, m0, EngineConfig::default()).unwrap();
        let outcomes: HashSet<(Val, Val)> = terms
            .iter()
            .map(|m| (m.threads[0].expr.reads[0], m.threads[1].expr.reads[0]))
            .collect();
        // Racy programs admit all four outcomes (weak reads allowed).
        for o in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!(outcomes.contains(&(Val(o.0), Val(o.1))), "missing {o:?}");
        }
    }

    #[test]
    fn canonicalization_merges_timestamp_variants() {
        // Two threads writing to the same location in either order reach
        // stores with different rationals but (for the same value order)
        // identical canonical forms.
        let (locs, a, _) = locs_ab();
        let p0 = RecordedExpr::new(vec![StepLabel::Write(a, Val(1))]);
        let p1 = RecordedExpr::new(vec![StepLabel::Write(a, Val(2))]);
        let m0 = Machine::initial(&locs, [p0, p1]);
        let terms = reachable_terminals(&locs, m0, EngineConfig::default()).unwrap();
        // Terminal stores: histories [0,1,2] or [0,2,1] — exactly two
        // canonical classes.
        assert_eq!(terms.len(), 2);
    }

    #[test]
    fn budget_is_enforced() {
        let (locs, a, _) = locs_ab();
        let mk = || RecordedExpr::new(vec![StepLabel::Write(a, Val(1)); 6]);
        let m0 = Machine::initial(&locs, [mk(), mk(), mk()]);
        let tiny = EngineConfig {
            max_states: 10,
            max_traces: 10,
        };
        assert!(matches!(
            reachable_terminals(&locs, m0, tiny),
            Err(EngineError::BudgetExceeded { .. })
        ));
    }
}
