//! Compound optimisation passes (§7.1): each is a composition of blessed
//! reorderings and peepholes, exactly as the paper derives them.
//!
//! * CSE: reorder (`poRR` relax) + Redundant Load;
//! * constant propagation: reorder (`poWW`, `poWR`) + Store Forwarding;
//! * dead store elimination: reorder (`poWW`, `poWR`) + Dead Store;
//! * loop-invariant code motion: reorder (`poRR`, `poWR`) + cross-iteration
//!   Redundant Load;
//! * sequentialisation: `[P ∥ Q] ⇒ [P; Q]` — valid here, famously invalid
//!   in C++ and Java;
//! * redundant store elimination: **rejected** — requires relaxing `poRW`.

use std::collections::BTreeSet;

use bdrst_core::loc::{LocKind, LocSet};
use bdrst_lang::{Program, PureExpr, Reg, Stmt, ThreadProgram};

use crate::ir::{def, effect, Effect};
use crate::peephole;
use crate::reorder::{can_swap, constraints_between, ReorderViolation};

/// Moves `stmts[j]` up to position `dest` (`dest <= j`) by adjacent swaps,
/// verifying each swap. Returns the reordered sequence or the violation.
fn move_up(
    locs: &LocSet,
    stmts: &[Stmt],
    j: usize,
    dest: usize,
) -> Result<Vec<Stmt>, ReorderViolation> {
    let mut out = stmts.to_vec();
    let mut pos = j;
    while pos > dest {
        let (a, b) = (&out[pos - 1], &out[pos]);
        let constraints = constraints_between(locs, a, b);
        if !constraints.is_empty() {
            return Err(ReorderViolation {
                first: pos - 1,
                second: pos,
                constraints,
            });
        }
        out.swap(pos - 1, pos);
        pos -= 1;
    }
    Ok(out)
}

/// Common subexpression elimination on loads: rewrites the second of two
/// loads of the same nonatomic location into a register copy, when the
/// intervening statements permit moving the loads together (only `poRR`
/// and `poWR` edges are relaxed). Applies the first opportunity found;
/// returns `None` if there is none.
pub fn cse_loads(locs: &LocSet, stmts: &[Stmt]) -> Option<Vec<Stmt>> {
    for i in 0..stmts.len() {
        let Stmt::Load(_, l1) = &stmts[i] else {
            continue;
        };
        if locs.kind(*l1) != LocKind::Nonatomic {
            continue;
        }
        for j in i + 1..stmts.len() {
            if let Stmt::Load(_, l2) = &stmts[j] {
                if l1 == l2 {
                    // Try to move the second load adjacent to the first,
                    // then apply RL.
                    if let Ok(moved) = move_up(locs, stmts, j, i + 1) {
                        if let Some(out) = peephole::redundant_load(locs, &moved, i) {
                            return Some(out);
                        }
                    }
                }
            }
            // A conflicting access in between blocks this pair; later
            // pairs may still work.
            if effect_conflicts(locs, &stmts[j], *l1) {
                break;
            }
        }
    }
    None
}

fn effect_conflicts(locs: &LocSet, s: &Stmt, l: bdrst_core::loc::Loc) -> bool {
    let _ = locs;
    match effect(s) {
        Effect::Write(l2) => l2 == l,
        _ => false,
    }
}

/// Constant propagation: for a store of a constant followed (possibly at a
/// distance) by a load of the same nonatomic location, forwards the
/// constant into the load, when the store may legally move down to be
/// adjacent (`poWW`/`poWR` relaxed only).
pub fn constant_propagation(locs: &LocSet, stmts: &[Stmt]) -> Option<Vec<Stmt>> {
    for i in 0..stmts.len() {
        let Stmt::Store(l1, PureExpr::Const(_)) = &stmts[i] else {
            continue;
        };
        if locs.kind(*l1) != LocKind::Nonatomic {
            continue;
        }
        for j in i + 1..stmts.len() {
            match &stmts[j] {
                Stmt::Load(_, l2) if l1 == l2 => {
                    // Move every statement between i and j before the
                    // store (equivalently: the store down to j-1).
                    if let Ok(moved) = move_down(locs, stmts, i, j - 1) {
                        if let Some(out) = peephole::store_forwarding(locs, &moved, j - 1) {
                            return Some(out);
                        }
                    }
                }
                s if effect_conflicts_any(s, *l1) => break,
                _ => {}
            }
        }
    }
    None
}

fn effect_conflicts_any(s: &Stmt, l: bdrst_core::loc::Loc) -> bool {
    match effect(s) {
        Effect::Read(l2) | Effect::Write(l2) => l2 == l,
        Effect::Pure => false,
    }
}

/// Moves `stmts[i]` down to position `dest` (`dest >= i`) by adjacent
/// swaps, verifying each swap.
fn move_down(
    locs: &LocSet,
    stmts: &[Stmt],
    i: usize,
    dest: usize,
) -> Result<Vec<Stmt>, ReorderViolation> {
    let mut out = stmts.to_vec();
    let mut pos = i;
    while pos < dest {
        let (a, b) = (&out[pos], &out[pos + 1]);
        let constraints = constraints_between(locs, a, b);
        if !constraints.is_empty() {
            return Err(ReorderViolation {
                first: pos,
                second: pos + 1,
                constraints,
            });
        }
        out.swap(pos, pos + 1);
        pos += 1;
    }
    Ok(out)
}

/// Dead store elimination: removes a store that is overwritten before any
/// intervening same-location read, when the two stores may legally become
/// adjacent (`poWW`/`poWR` relaxed only).
pub fn dead_store_elimination(locs: &LocSet, stmts: &[Stmt]) -> Option<Vec<Stmt>> {
    for i in 0..stmts.len() {
        let Stmt::Store(l1, _) = &stmts[i] else {
            continue;
        };
        if locs.kind(*l1) != LocKind::Nonatomic {
            continue;
        }
        for j in i + 1..stmts.len() {
            match &stmts[j] {
                Stmt::Store(l2, _) if l1 == l2 => {
                    if let Ok(moved) = move_down(locs, stmts, i, j - 1) {
                        if let Some(out) = peephole::dead_store(locs, &moved, j - 1) {
                            return Some(out);
                        }
                    }
                }
                s if effect_conflicts_any(s, *l1) => break,
                _ => {}
            }
        }
    }
    None
}

/// Redundant store elimination — `[r1 = a; b = c; a = r1] ⇒ [r1 = a; b =
/// c]` — is **invalid** in this model: it needs the store `a = r1` to move
/// before the read of `c`, relaxing `poRW`. This function attempts the
/// derivation and returns the violation the checker raises, demonstrating
/// §7.1's negative example.
///
/// # Errors
///
/// Always returns the `poRW` (or data-dependency) violation for programs
/// of the shape above; `Ok` would mean the pattern was absent.
pub fn attempt_redundant_store_elimination(
    locs: &LocSet,
    stmts: &[Stmt],
) -> Result<(), ReorderViolation> {
    for i in 0..stmts.len() {
        let Stmt::Load(r, l) = &stmts[i] else {
            continue;
        };
        for j in i + 1..stmts.len() {
            if let Stmt::Store(l2, PureExpr::Reg(r2)) = &stmts[j] {
                if l == l2 && r == r2 {
                    // The derivation needs the store adjacent to the load.
                    move_up(locs, stmts, j, i + 1)?;
                }
            }
        }
    }
    Ok(())
}

/// Loop-invariant code motion: hoists a load of a location that the loop
/// body never writes (and that shares the body with no atomic operation)
/// out of the loop, replacing in-loop uses with the hoisted register. The
/// in-body reordering relaxes only `poRR` and `poWR`; collapsing the
/// per-iteration loads is the cross-iteration Redundant Load.
pub fn hoist_loop_invariant_load(locs: &LocSet, stmt: &Stmt) -> Option<(Vec<Stmt>, Stmt)> {
    let Stmt::While(cond, body, fuel) = stmt else {
        return None;
    };
    // Straight-line bodies only.
    if body
        .iter()
        .any(|s| matches!(s, Stmt::If(..) | Stmt::While(..)))
    {
        return None;
    }
    // No atomics anywhere in the body (poat− / po−at).
    if body.iter().any(|s| crate::ir::is_atomic(locs, s)) {
        return None;
    }
    for (k, s) in body.iter().enumerate() {
        let Stmt::Load(r, l) = s else { continue };
        if locs.kind(*l) != LocKind::Nonatomic {
            continue;
        }
        // The body must not write l (pocon across iterations)…
        if body
            .iter()
            .any(|s| matches!(effect(s), Effect::Write(l2) if l2 == *l))
        {
            continue;
        }
        // …must not redefine r elsewhere, and the condition must not use r
        // (we are changing where r is assigned).
        let redefined = body
            .iter()
            .enumerate()
            .any(|(x, s)| x != k && def(s) == Some(*r));
        let mut cond_uses = BTreeSet::new();
        crate::ir::expr_uses(cond, &mut cond_uses);
        if redefined || cond_uses.contains(r) {
            continue;
        }
        // Earlier body statements must permit the load to move to the top
        // (poRR/poWR relaxations plus no register deps).
        if !body[..k]
            .iter()
            .all(|s| can_swap(locs, s, &Stmt::Load(*r, *l)))
        {
            continue;
        }
        let mut new_body = body.clone();
        new_body.remove(k);
        let pre = vec![Stmt::Load(*r, *l)];
        return Some((pre, Stmt::While(cond.clone(), new_body, *fuel)));
    }
    None
}

/// Sequentialisation `[P ∥ Q] ⇒ [P; Q]` (§7.1): replaces two threads of a
/// program with their sequential composition. Since this only *adds* po
/// edges, no forbidden cycle can become allowed — the transformation is
/// unconditionally valid in this model (and invalid in C++/Java, as the
/// paper notes). The second thread's registers are renumbered to avoid
/// collisions.
///
/// # Panics
///
/// Panics if either thread index is out of range or they are equal.
pub fn sequentialise(program: &Program, first: usize, second: usize) -> Program {
    assert!(first != second, "cannot sequentialise a thread with itself");
    let p = &program.threads[first];
    let q = &program.threads[second];
    let offset = p.regs.len() as u16;
    let mut body = p.body.clone();
    body.extend(q.body.iter().map(|s| shift_regs(s, offset)));
    let mut regs = p.regs.clone();
    regs.extend(q.regs.iter().map(|r| format!("{}${r}", q.name)));
    let merged = ThreadProgram {
        name: format!("{}_{}", p.name, q.name),
        regs,
        body,
    };
    let mut threads = Vec::new();
    for (i, t) in program.threads.iter().enumerate() {
        if i == first {
            threads.push(merged.clone());
        } else if i != second {
            threads.push(t.clone());
        }
    }
    Program {
        locs: program.locs.clone(),
        threads,
    }
}

fn shift_regs(s: &Stmt, offset: u16) -> Stmt {
    match s {
        Stmt::Assign(r, e) => Stmt::Assign(Reg(r.0 + offset), shift_expr(e, offset)),
        Stmt::Load(r, l) => Stmt::Load(Reg(r.0 + offset), *l),
        Stmt::Store(l, e) => Stmt::Store(*l, shift_expr(e, offset)),
        Stmt::If(c, t, e) => Stmt::If(
            shift_expr(c, offset),
            t.iter().map(|s| shift_regs(s, offset)).collect(),
            e.iter().map(|s| shift_regs(s, offset)).collect(),
        ),
        Stmt::While(c, b, fuel) => Stmt::While(
            shift_expr(c, offset),
            b.iter().map(|s| shift_regs(s, offset)).collect(),
            *fuel,
        ),
    }
}

fn shift_expr(e: &PureExpr, offset: u16) -> PureExpr {
    match e {
        PureExpr::Const(v) => PureExpr::Const(*v),
        PureExpr::Reg(r) => PureExpr::Reg(Reg(r.0 + offset)),
        PureExpr::Unary(op, inner) => PureExpr::Unary(*op, Box::new(shift_expr(inner, offset))),
        PureExpr::Binary(op, l, r) => PureExpr::Binary(
            *op,
            Box::new(shift_expr(l, offset)),
            Box::new(shift_expr(r, offset)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::ReorderConstraint;

    fn parse_thread(src: &str) -> (LocSet, Vec<Stmt>) {
        let p = Program::parse(src).unwrap();
        (p.locs.clone(), p.threads[0].body.clone())
    }

    #[test]
    fn cse_over_intervening_load() {
        // The paper's CSE: r1 = a*2; r2 = b; r3 = a*2.
        let (locs, body) = parse_thread(
            "nonatomic a b;
             thread P0 { r1 = a * 2; r2 = b; r3 = a * 2; }",
        );
        let out = cse_loads(&locs, &body).expect("CSE applies");
        // The second load of a is gone: only loads of a (one) and b remain.
        let loads_of_a = out
            .iter()
            .filter(|s| matches!(s, Stmt::Load(_, l) if locs.name(*l) == "a"))
            .count();
        assert_eq!(loads_of_a, 1);
    }

    #[test]
    fn cse_blocked_by_atomic() {
        // poat−/po−at: an intervening atomic pins everything.
        let (locs, body) = parse_thread(
            "nonatomic a; atomic f;
             thread P0 { r1 = a; r2 = f; r3 = a; }",
        );
        assert!(cse_loads(&locs, &body).is_none());
    }

    #[test]
    fn cse_blocked_by_intervening_store() {
        let (locs, body) = parse_thread(
            "nonatomic a;
             thread P0 { r1 = a; a = 5; r3 = a; }",
        );
        assert!(cse_loads(&locs, &body).is_none());
    }

    #[test]
    fn constant_propagation_paper_shape() {
        // [a = 1; b = c; r = a] ⇒ [b = c; a = 1; r = 1].
        let (locs, body) = parse_thread(
            "nonatomic a b c;
             thread P0 { a = 1; b = c; r = a; }",
        );
        let out = constant_propagation(&locs, &body).expect("const-prop applies");
        // The load of a is replaced with the constant.
        assert!(out
            .iter()
            .any(|s| matches!(s, Stmt::Assign(_, PureExpr::Const(v)) if v.0 == 1)));
        assert!(!out
            .iter()
            .any(|s| matches!(s, Stmt::Load(_, l) if locs.name(*l) == "a")));
    }

    #[test]
    fn dse_paper_shape() {
        // [a = 1; b = c; a = 2] ⇒ [b = c; a = 2].
        let (locs, body) = parse_thread(
            "nonatomic a b c;
             thread P0 { a = 1; b = c; a = 2; }",
        );
        let out = dead_store_elimination(&locs, &body).expect("DSE applies");
        let stores_to_a = out
            .iter()
            .filter(|s| matches!(s, Stmt::Store(l, _) if locs.name(*l) == "a"))
            .count();
        assert_eq!(stores_to_a, 1);
    }

    #[test]
    fn rse_rejected_on_porw() {
        // [r1 = a; b = c; a = r1]: the derivation must fail on poRW.
        let (locs, body) = parse_thread(
            "nonatomic a b c;
             thread P0 { r1 = a; b = c; a = r1; }",
        );
        let err = attempt_redundant_store_elimination(&locs, &body).unwrap_err();
        assert!(
            err.constraints.contains(&ReorderConstraint::LoadStore),
            "expected poRW violation, got {:?}",
            err.constraints
        );
    }

    #[test]
    fn licm_paper_shape() {
        // while (k < 3) { a = k; r1 = c + 1; k = k + 1 } with c loop-
        // invariant: the load of c hoists. (The paper's example computes
        // c*c, which lowers to two loads; a single-load expression keeps
        // the post-condition easy to state — the second load would hoist
        // on a second application.)
        let (locs, body) = parse_thread(
            "nonatomic a c;
             thread P0 { while (k < 3) { a = k; r1 = c + 1; k = k + 1; } }",
        );
        // body = [Load($t of b?)...]; actually: while-cond is pure; find
        // the While statement.
        let w = body
            .iter()
            .find(|s| matches!(s, Stmt::While(..)))
            .expect("loop exists");
        let (pre, new_w) = hoist_loop_invariant_load(&locs, w).expect("LICM applies");
        assert_eq!(pre.len(), 1);
        assert!(matches!(&pre[0], Stmt::Load(_, l) if locs.name(*l) == "c"));
        let Stmt::While(_, new_body, _) = &new_w else {
            panic!()
        };
        assert!(!new_body
            .iter()
            .any(|s| matches!(s, Stmt::Load(_, l) if locs.name(*l) == "c")));
    }

    #[test]
    fn licm_blocked_when_loop_writes_location() {
        let (locs, body) = parse_thread(
            "nonatomic c;
             thread P0 { while (k < 3) { r1 = c; c = r1 + 1; k = k + 1; } }",
        );
        let w = body.iter().find(|s| matches!(s, Stmt::While(..))).unwrap();
        assert!(hoist_loop_invariant_load(&locs, w).is_none());
    }

    #[test]
    fn sequentialisation_merges_threads() {
        let p = Program::parse(
            "nonatomic a b;
             thread P0 { a = 1; r0 = b; }
             thread P1 { b = 1; r1 = a; }",
        )
        .unwrap();
        let seq = sequentialise(&p, 0, 1);
        assert_eq!(seq.threads.len(), 1);
        assert_eq!(seq.threads[0].body.len(), 4);
        // Register names stay distinguishable.
        assert!(seq.threads[0].regs.iter().any(|r| r.contains("P1$")));
    }
}
