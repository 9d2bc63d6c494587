//! Abstract syntax of the litmus language.
//!
//! The paper's semantics leaves expressions abstract (§3); this crate
//! provides a concrete language in the style of litmus tests: per-thread
//! straight-line code with registers, arithmetic, bounded loops and
//! conditionals. *Pure* expressions range over registers and constants
//! only; every memory access is an explicit [`Stmt::Load`] or
//! [`Stmt::Store`] (the parser hoists location reads out of compound
//! expressions, preserving left-to-right read order).

use std::fmt;

use bdrst_core::loc::{Loc, Val};

/// A (thread-local) register identifier: an index into the thread's
/// register file.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl Reg {
    /// The register's raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Binary operators of pure expressions. Comparison and logical operators
/// evaluate to `1` (true) or `0` (false).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Equality test.
    Eq,
    /// Inequality test.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and (both operands nonzero).
    And,
    /// Logical or (either operand nonzero).
    Or,
}

impl BinOp {
    /// Applies the operator to two values.
    pub fn apply(self, l: Val, r: Val) -> Val {
        let b = |c: bool| Val(c as i64);
        match self {
            BinOp::Add => Val(l.0.wrapping_add(r.0)),
            BinOp::Sub => Val(l.0.wrapping_sub(r.0)),
            BinOp::Mul => Val(l.0.wrapping_mul(r.0)),
            BinOp::Eq => b(l == r),
            BinOp::Ne => b(l != r),
            BinOp::Lt => b(l.0 < r.0),
            BinOp::Le => b(l.0 <= r.0),
            BinOp::Gt => b(l.0 > r.0),
            BinOp::Ge => b(l.0 >= r.0),
            BinOp::And => b(l.0 != 0 && r.0 != 0),
            BinOp::Or => b(l.0 != 0 || r.0 != 0),
        }
    }

    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators of pure expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (zero ↦ 1, nonzero ↦ 0).
    Not,
}

impl UnOp {
    /// Applies the operator to a value.
    pub fn apply(self, v: Val) -> Val {
        match self {
            UnOp::Neg => Val(v.0.wrapping_neg()),
            UnOp::Not => Val((v.0 == 0) as i64),
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("!"),
        }
    }
}

/// A pure expression: registers and constants only — memory accesses are
/// statements, so every expression evaluates in a single silent step.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PureExpr {
    /// A constant value.
    Const(Val),
    /// A register read.
    Reg(Reg),
    /// A unary operation.
    Unary(UnOp, Box<PureExpr>),
    /// A binary operation.
    Binary(BinOp, Box<PureExpr>, Box<PureExpr>),
}

impl PureExpr {
    /// A constant expression.
    pub fn constant(v: i64) -> PureExpr {
        PureExpr::Const(Val(v))
    }

    /// A register expression.
    pub fn reg(r: Reg) -> PureExpr {
        PureExpr::Reg(r)
    }

    /// `self ⊕ other` for a binary operator.
    pub fn binary(self, op: BinOp, other: PureExpr) -> PureExpr {
        PureExpr::Binary(op, Box::new(self), Box::new(other))
    }

    /// Evaluates under a register file (`regs[i]` is register `i`).
    ///
    /// # Panics
    ///
    /// Panics if a register index is out of range for `regs`.
    pub fn eval(&self, regs: &[Val]) -> Val {
        match self {
            PureExpr::Const(v) => *v,
            PureExpr::Reg(r) => regs[r.index()],
            PureExpr::Unary(op, e) => op.apply(e.eval(regs)),
            PureExpr::Binary(op, l, r) => op.apply(l.eval(regs), r.eval(regs)),
        }
    }

    /// The highest register index mentioned, if any.
    pub fn max_reg(&self) -> Option<u16> {
        match self {
            PureExpr::Const(_) => None,
            PureExpr::Reg(r) => Some(r.0),
            PureExpr::Unary(_, e) => e.max_reg(),
            PureExpr::Binary(_, l, r) => l.max_reg().max(r.max_reg()),
        }
    }
}

impl fmt::Display for PureExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PureExpr::Const(v) => write!(f, "{v}"),
            PureExpr::Reg(r) => write!(f, "{r}"),
            PureExpr::Unary(op, e) => write!(f, "{op}({e})"),
            PureExpr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

/// A statement of the litmus language.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// `r = e;` — pure register assignment (a silent step).
    Assign(Reg, PureExpr),
    /// `r = ℓ;` — load from memory into a register (a read step).
    Load(Reg, Loc),
    /// `ℓ = e;` — store the value of a pure expression (a write step).
    Store(Loc, PureExpr),
    /// `if (e) { … } else { … }` — branch on a pure condition (silent).
    If(PureExpr, Vec<Stmt>, Vec<Stmt>),
    /// `while (e) { … }` — loop, bounded by the fuel: once the fuel is
    /// exhausted the loop exits regardless of the condition, keeping every
    /// program's state space finite.
    While(PureExpr, Vec<Stmt>, u32),
}

impl Stmt {
    /// The highest register index mentioned in the statement, if any.
    pub fn max_reg(&self) -> Option<u16> {
        match self {
            Stmt::Assign(r, e) => Some(r.0).max(e.max_reg()),
            Stmt::Load(r, _) => Some(r.0),
            Stmt::Store(_, e) => e.max_reg(),
            Stmt::If(c, t, e) => c
                .max_reg()
                .max(t.iter().filter_map(Stmt::max_reg).max())
                .max(e.iter().filter_map(Stmt::max_reg).max()),
            Stmt::While(c, b, _) => c.max_reg().max(b.iter().filter_map(Stmt::max_reg).max()),
        }
    }
}

fn fmt_block(f: &mut fmt::Formatter<'_>, block: &[Stmt], indent: usize) -> fmt::Result {
    for s in block {
        s.fmt_indented(f, indent)?;
    }
    Ok(())
}

impl Stmt {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Stmt::Assign(r, e) => writeln!(f, "{pad}{r} = {e};"),
            Stmt::Load(r, l) => writeln!(f, "{pad}{r} = {l};"),
            Stmt::Store(l, e) => writeln!(f, "{pad}{l} = {e};"),
            Stmt::If(c, t, e) => {
                writeln!(f, "{pad}if ({c}) {{")?;
                fmt_block(f, t, indent + 1)?;
                if e.is_empty() {
                    writeln!(f, "{pad}}}")
                } else {
                    writeln!(f, "{pad}}} else {{")?;
                    fmt_block(f, e, indent + 1)?;
                    writeln!(f, "{pad}}}")
                }
            }
            Stmt::While(c, b, fuel) => {
                writeln!(f, "{pad}while ({c}) {{ // fuel {fuel}")?;
                fmt_block(f, b, indent + 1)?;
                writeln!(f, "{pad}}}")
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(Val(2), Val(3)), Val(5));
        assert_eq!(BinOp::Sub.apply(Val(2), Val(3)), Val(-1));
        assert_eq!(BinOp::Mul.apply(Val(4), Val(3)), Val(12));
        assert_eq!(BinOp::Eq.apply(Val(3), Val(3)), Val(1));
        assert_eq!(BinOp::Ne.apply(Val(3), Val(3)), Val(0));
        assert_eq!(BinOp::Lt.apply(Val(1), Val(2)), Val(1));
        assert_eq!(BinOp::And.apply(Val(2), Val(0)), Val(0));
        assert_eq!(BinOp::Or.apply(Val(0), Val(7)), Val(1));
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(UnOp::Neg.apply(Val(5)), Val(-5));
        assert_eq!(UnOp::Not.apply(Val(0)), Val(1));
        assert_eq!(UnOp::Not.apply(Val(9)), Val(0));
    }

    #[test]
    fn eval_nested_expression() {
        // (r0 + 10) * (r1 == 0)
        let e = PureExpr::reg(Reg(0))
            .binary(BinOp::Add, PureExpr::constant(10))
            .binary(
                BinOp::Mul,
                PureExpr::reg(Reg(1)).binary(BinOp::Eq, PureExpr::constant(0)),
            );
        assert_eq!(e.eval(&[Val(5), Val(0)]), Val(15));
        assert_eq!(e.eval(&[Val(5), Val(1)]), Val(0));
        assert_eq!(e.max_reg(), Some(1));
    }

    #[test]
    fn wrapping_arithmetic() {
        assert_eq!(BinOp::Add.apply(Val(i64::MAX), Val(1)), Val(i64::MIN));
    }

    #[test]
    fn max_reg_over_statements() {
        let s = Stmt::If(
            PureExpr::reg(Reg(2)),
            vec![Stmt::Assign(Reg(5), PureExpr::constant(1))],
            vec![],
        );
        assert_eq!(s.max_reg(), Some(5));
    }

    #[test]
    fn display_round_shapes() {
        let s = Stmt::Store(
            Loc(0),
            PureExpr::reg(Reg(1)).binary(BinOp::Add, PureExpr::constant(10)),
        );
        assert_eq!(format!("{s}"), "ℓ0 = (r1 + 10);\n");
    }
}
