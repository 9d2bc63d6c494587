//! Small-step semantics of the litmus language: the [`ThreadState`] type
//! implements [`bdrst_core::machine::Expr`], so whole programs run on the
//! operational memory model of `bdrst-core`.
//!
//! Proposition 4 of the paper ("read transitions are not picky about the
//! value being read") holds by construction: a [`Stmt::Load`] step accepts
//! whatever value the memory supplies.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bdrst_core::loc::Val;
use bdrst_core::machine::{Expr, StepLabel, Steps};

use crate::ast::{Reg, Stmt};

/// A continuation: the statements left to run, as a persistent stack of
/// shared frames (the next statement is the top frame).
///
/// Successor states share every frame below the one they pop or push, so
/// cloning and popping are a refcount bump. Each frame memoizes the stack's
/// length and a structural digest (its statement's hash combined with the
/// digest of the frame below), so hashing is O(1) and most unequal pairs
/// are told apart without a walk. Equality stays structural: it walks the
/// frames and stops at the first shared suffix.
#[derive(Clone, Default)]
struct Cont(Option<Arc<Frame>>);

struct Frame {
    stmt: Stmt,
    /// Frames in the stack this one tops, itself included.
    len: usize,
    /// Hash of `stmt` combined with the digest of `below`.
    digest: u64,
    below: Cont,
}

impl Cont {
    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |f| f.len)
    }

    fn digest(&self) -> u64 {
        self.0.as_ref().map_or(0, |f| f.digest)
    }

    fn top(&self) -> Option<&Stmt> {
        self.0.as_ref().map(|f| &f.stmt)
    }

    fn push(&mut self, stmt: Stmt) {
        let below = std::mem::take(self);
        let mut h = DefaultHasher::new();
        stmt.hash(&mut h);
        h.write_u64(below.digest());
        *self = Cont(Some(Arc::new(Frame {
            stmt,
            len: below.len() + 1,
            digest: h.finish(),
            below,
        })));
    }

    /// The statements bottom first, the order `Debug` lists them in.
    fn bottom_up(&self) -> Vec<&Stmt> {
        let mut stmts: Vec<&Stmt> =
            std::iter::successors(self.0.as_deref(), |f| f.below.0.as_deref())
                .map(|f| &f.stmt)
                .collect();
        stmts.reverse();
        stmts
    }
}

impl PartialEq for Cont {
    fn eq(&self, other: &Cont) -> bool {
        let (mut a, mut b) = (self.0.as_ref(), other.0.as_ref());
        loop {
            match (a, b) {
                (None, None) => return true,
                (Some(x), Some(y)) => {
                    if Arc::ptr_eq(x, y) {
                        return true;
                    }
                    if x.len != y.len || x.digest != y.digest || x.stmt != y.stmt {
                        return false;
                    }
                    (a, b) = (x.below.0.as_ref(), y.below.0.as_ref());
                }
                _ => return false,
            }
        }
    }
}

impl Eq for Cont {}

impl Hash for Cont {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        state.write_u64(self.digest());
    }
}

impl Drop for Cont {
    /// Unlinks uniquely owned frames one at a time: the default recursive
    /// drop would overflow the stack on a long straight-line thread.
    fn drop(&mut self) {
        let mut next = self.0.take();
        while let Some(frame) = next {
            next = Arc::into_inner(frame).and_then(|mut f| f.below.0.take());
        }
    }
}

impl fmt::Debug for Cont {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.bottom_up()).finish()
    }
}

/// The dynamic state of one thread: the remaining statements (a
/// continuation) and the register file.
///
/// Both halves are shared, so cloning a thread allocates nothing. The
/// continuation is a persistent stack of frames: a step pops or pushes one
/// frame and shares the rest with its predecessor, and the stack is hashed
/// by a digest memoized per frame. The register file is copied only by a
/// step that writes a register. Equality is still structural — two states
/// are equal exactly when their statements and registers are, which is
/// when their `Debug` renderings are — so state sets do not depend on how
/// a continuation was reached.
///
/// # Examples
///
/// ```
/// use bdrst_core::loc::{LocSet, LocKind, Val};
/// use bdrst_core::machine::Expr;
/// use bdrst_lang::ast::{PureExpr, Reg, Stmt};
/// use bdrst_lang::semantics::ThreadState;
///
/// let mut locs = LocSet::new();
/// let a = locs.fresh("a", LocKind::Nonatomic);
/// let t = ThreadState::new(vec![
///     Stmt::Load(Reg(0), a),
///     Stmt::Store(a, PureExpr::reg(Reg(0))),
/// ]);
/// assert_eq!(t.steps().len(), 1);
/// let t2 = t.apply_step(0, Val(7)); // the load observes 7
/// assert_eq!(t2.reg(Reg(0)), Val(7));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ThreadState {
    /// Remaining statements; the next one is on top.
    cont: Cont,
    /// The register file, copied on write.
    regs: Arc<[Val]>,
}

impl ThreadState {
    /// Creates the initial state for a thread body. All registers start at
    /// `Val::INIT`; the register file is sized by the largest register
    /// mentioned.
    pub fn new(body: Vec<Stmt>) -> ThreadState {
        let nregs = body
            .iter()
            .filter_map(Stmt::max_reg)
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut cont = Cont::default();
        for s in body.into_iter().rev() {
            cont.push(s);
        }
        ThreadState {
            cont,
            regs: vec![Val::INIT; nregs].into(),
        }
    }

    /// The current value of register `r` (registers the thread never
    /// mentions read as `Val::INIT`).
    pub fn reg(&self, r: Reg) -> Val {
        self.regs.get(r.index()).copied().unwrap_or(Val::INIT)
    }

    /// The whole register file.
    pub fn regs(&self) -> &[Val] {
        &self.regs
    }

    /// True if the thread has finished executing.
    pub fn is_done(&self) -> bool {
        self.cont.0.is_none()
    }

    fn set_reg(&mut self, r: Reg, v: Val) {
        if r.index() >= self.regs.len() {
            let mut regs = self.regs.to_vec();
            regs.resize(r.index() + 1, Val::INIT);
            self.regs = regs.into();
        }
        Arc::make_mut(&mut self.regs)[r.index()] = v;
    }

    fn push_block(&mut self, block: &[Stmt]) {
        for s in block.iter().rev() {
            self.cont.push(s.clone());
        }
    }
}

impl Expr for ThreadState {
    fn steps(&self) -> Steps {
        match self.cont.top() {
            None => Steps::none(),
            Some(Stmt::Assign(..)) | Some(Stmt::If(..)) | Some(Stmt::While(..)) => {
                Steps::one(StepLabel::Silent)
            }
            Some(Stmt::Load(_, loc)) => Steps::one(StepLabel::Read(*loc)),
            Some(Stmt::Store(loc, e)) => Steps::one(StepLabel::Write(*loc, e.eval(&self.regs))),
        }
    }

    fn has_step(&self) -> bool {
        !self.is_done()
    }

    fn apply_step(&self, index: usize, read_value: Val) -> ThreadState {
        assert_eq!(index, 0, "litmus threads expose exactly one step");
        let top = self.cont.0.as_ref().expect("apply_step on finished thread");
        let mut next = ThreadState {
            cont: top.below.clone(),
            regs: self.regs.clone(),
        };
        match &top.stmt {
            Stmt::Assign(r, e) => {
                let v = e.eval(&next.regs);
                next.set_reg(*r, v);
            }
            Stmt::Load(r, _) => next.set_reg(*r, read_value),
            Stmt::Store(..) => {}
            Stmt::If(c, then_b, else_b) => {
                if c.eval(&next.regs) != Val(0) {
                    next.push_block(then_b);
                } else {
                    next.push_block(else_b);
                }
            }
            Stmt::While(c, body, fuel) => {
                if *fuel > 0 && c.eval(&next.regs) != Val(0) {
                    next.cont
                        .push(Stmt::While(c.clone(), body.clone(), fuel - 1));
                    next.push_block(body);
                }
            }
        }
        next
    }
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{} stmts left; regs ", self.cont.len())?;
        write!(f, "[")?;
        for (i, v) in self.regs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "r{i}={v}")?;
        }
        write!(f, "]⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, PureExpr};
    use bdrst_core::loc::{Loc, LocKind, LocSet};

    fn loc_a() -> (LocSet, Loc) {
        let mut l = LocSet::new();
        let a = l.fresh("a", LocKind::Nonatomic);
        (l, a)
    }

    #[test]
    fn assign_evaluates_pure_exprs() {
        let t = ThreadState::new(vec![Stmt::Assign(
            Reg(0),
            PureExpr::constant(4).binary(BinOp::Mul, PureExpr::constant(10)),
        )]);
        let t = t.apply_step(0, Val::INIT);
        assert_eq!(t.reg(Reg(0)), Val(40));
        assert!(t.is_done());
    }

    #[test]
    fn load_accepts_any_value_prop4() {
        let (_, a) = loc_a();
        let t = ThreadState::new(vec![Stmt::Load(Reg(0), a)]);
        for v in [-5i64, 0, 7, i64::MAX] {
            let t2 = t.apply_step(0, Val(v));
            assert_eq!(t2.reg(Reg(0)), Val(v));
        }
    }

    #[test]
    fn store_evaluates_at_step_time() {
        let (_, a) = loc_a();
        let t = ThreadState::new(vec![
            Stmt::Assign(Reg(0), PureExpr::constant(3)),
            Stmt::Store(
                a,
                PureExpr::reg(Reg(0)).binary(BinOp::Add, PureExpr::constant(1)),
            ),
        ]);
        let t = t.apply_step(0, Val::INIT);
        assert_eq!(t.steps().as_slice(), &[StepLabel::Write(a, Val(4))]);
    }

    #[test]
    fn has_step_matches_steps_and_skips_enumeration() {
        let (_, a) = loc_a();
        let t = ThreadState::new(vec![Stmt::Load(Reg(0), a)]);
        assert!(t.has_step());
        let t = t.apply_step(0, Val::INIT);
        assert!(!t.has_step());
        assert!(t.steps().is_empty());
    }

    #[test]
    fn a_long_thread_builds_steps_compares_and_drops_iteratively() {
        // Far deeper than a recursive drop or equality walk could go on a
        // test thread's stack.
        let (_, a) = loc_a();
        let body = vec![Stmt::Store(a, PureExpr::constant(1)); 100_000];
        let t = ThreadState::new(body.clone());
        let mut stepped = t.clone();
        for _ in 0..3 {
            stepped = stepped.apply_step(0, Val::INIT);
        }
        assert_eq!(t.cont.len(), 100_000);
        assert_eq!(stepped.cont.len(), 99_997);
        // Built separately, so no frame is shared: a full structural walk.
        assert_eq!(ThreadState::new(body), t);
        drop(t);
        drop(stepped);
    }

    #[test]
    fn if_takes_the_right_branch() {
        let t = ThreadState::new(vec![Stmt::If(
            PureExpr::constant(1),
            vec![Stmt::Assign(Reg(0), PureExpr::constant(10))],
            vec![Stmt::Assign(Reg(0), PureExpr::constant(20))],
        )]);
        let t = t.apply_step(0, Val::INIT); // branch
        let t = t.apply_step(0, Val::INIT); // assign
        assert_eq!(t.reg(Reg(0)), Val(10));
    }

    #[test]
    fn while_loops_until_condition_fails() {
        // r0 = 3; while (r0 > 0) { r0 = r0 - 1; }
        let t = ThreadState::new(vec![
            Stmt::Assign(Reg(0), PureExpr::constant(3)),
            Stmt::While(
                PureExpr::reg(Reg(0)).binary(BinOp::Gt, PureExpr::constant(0)),
                vec![Stmt::Assign(
                    Reg(0),
                    PureExpr::reg(Reg(0)).binary(BinOp::Sub, PureExpr::constant(1)),
                )],
                100,
            ),
        ]);
        let mut t = t;
        let mut steps = 0;
        while !t.is_done() {
            t = t.apply_step(0, Val::INIT);
            steps += 1;
            assert!(steps < 100, "loop failed to terminate");
        }
        assert_eq!(t.reg(Reg(0)), Val(0));
    }

    #[test]
    fn while_fuel_bounds_execution() {
        // while (1) {} with fuel 5 terminates.
        let t = ThreadState::new(vec![Stmt::While(PureExpr::constant(1), vec![], 5)]);
        let mut t = t;
        let mut steps = 0;
        while !t.is_done() {
            t = t.apply_step(0, Val::INIT);
            steps += 1;
            assert!(steps < 100);
        }
        assert_eq!(steps, 6); // 5 unrollings + final exit
    }

    #[test]
    fn terminal_thread_has_no_steps() {
        let t = ThreadState::new(vec![]);
        assert!(t.steps().is_empty());
        assert!(t.is_done());
    }
}
