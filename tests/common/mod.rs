//! Shared random-program generators for the integration suites
//! (`properties`, `engine_agreement`, `differential`): one definition of
//! the generated fragment, so widening it (more threads, fences, ...)
//! widens every suite at once. Also a source builder for in-repo copies
//! of the benchmark's program families.

use proptest::prelude::*;

use bdrst::core::{Loc, LocKind, LocSet};
use bdrst::lang::{Program, PureExpr, Reg, Stmt, ThreadProgram};

/// Random straight-line statement over 2 nonatomic + 1 atomic locations,
/// 2 registers, constants 1..=2 (same shape as the litmus corpus).
fn stmt() -> impl Strategy<Value = Stmt> {
    let loc = 0u32..3;
    let reg = 0u16..2;
    let val = 1i64..3;
    prop_oneof![
        (reg.clone(), loc.clone()).prop_map(|(r, l)| Stmt::Load(Reg(r), Loc(l))),
        (loc, val).prop_map(|(l, v)| Stmt::Store(Loc(l), PureExpr::constant(v))),
        (reg.clone(), reg).prop_map(|(d, s)| Stmt::Assign(Reg(d), PureExpr::Reg(Reg(s)))),
    ]
}

/// A random two-thread program over a *wide* location set: 72 nonatomic
/// locations plus one atomic, with each thread touching a few scattered
/// locations. The state space stays small (few steps per thread) while
/// the store spans multiple pmap levels, so structural-sharing and
/// incremental-fingerprint properties are exercised on deep trees, not
/// just the 3-location corpus shape.
#[allow(dead_code)]
pub fn wide_program() -> impl Strategy<Value = Program> {
    const WIDE: u32 = 73; // 0..72 nonatomic, 72 atomic
    let stmt = || {
        let loc = 0u32..WIDE;
        let reg = 0u16..2;
        let val = 1i64..3;
        prop_oneof![
            (reg, loc.clone()).prop_map(|(r, l)| Stmt::Load(Reg(r), Loc(l))),
            (loc, val).prop_map(|(l, v)| Stmt::Store(Loc(l), PureExpr::constant(v))),
        ]
    };
    let t0 = prop::collection::vec(stmt(), 1..4);
    let t1 = prop::collection::vec(stmt(), 1..4);
    (t0, t1).prop_map(|(b0, b1)| {
        let mut locs = LocSet::new();
        for i in 0..WIDE - 1 {
            locs.fresh(format!("w{i}"), LocKind::Nonatomic);
        }
        locs.fresh("F", LocKind::Atomic);
        Program {
            locs,
            threads: vec![
                ThreadProgram {
                    name: "P0".into(),
                    regs: vec!["r0".into(), "r1".into()],
                    body: b0,
                },
                ThreadProgram {
                    name: "P1".into(),
                    regs: vec!["r0".into(), "r1".into()],
                    body: b1,
                },
            ],
        }
    })
}

/// A random two-thread program over the fixed location set.
pub fn small_program() -> impl Strategy<Value = Program> {
    let t0 = prop::collection::vec(stmt(), 1..4);
    let t1 = prop::collection::vec(stmt(), 1..4);
    (t0, t1).prop_map(|(b0, b1)| fixed_locations(vec![b0, b1]))
}

/// A random three-thread program over the fixed location set: the
/// smallest shape in which the axiomatic search checks a strict prefix
/// of the threads for consistency.
#[allow(dead_code)]
pub fn three_thread_program() -> impl Strategy<Value = Program> {
    let body = || prop::collection::vec(stmt(), 1..4);
    (body(), body(), body()).prop_map(|(b0, b1, b2)| fixed_locations(vec![b0, b1, b2]))
}

/// Threads `P0`, `P1`, ... with the given bodies over nonatomic `a`, `b`
/// and atomic `F`, each with registers `r0` and `r1`.
fn fixed_locations(bodies: Vec<Vec<Stmt>>) -> Program {
    let mut locs = LocSet::new();
    locs.fresh("a", LocKind::Nonatomic);
    locs.fresh("b", LocKind::Nonatomic);
    locs.fresh("F", LocKind::Atomic);
    Program {
        locs,
        threads: bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| ThreadProgram {
                name: format!("P{i}"),
                regs: vec!["r0".into(), "r1".into()],
                body,
            })
            .collect(),
    }
}

/// Source text builder in the benchmark's layout.
#[allow(dead_code)]
#[derive(Default)]
pub struct Src(pub String);

#[allow(dead_code)]
impl Src {
    pub fn decl(&mut self, kind: &str, names: &[String]) {
        if !names.is_empty() {
            self.0 += &format!("{kind} {};\n", names.join(" "));
        }
    }

    pub fn thread(&mut self, index: usize, body: &[String]) {
        self.0 += &format!("thread P{index} {{\n  {}\n}}\n", body.join("\n  "));
    }

    /// A guarded message-passing chain over the declared nonatomic
    /// locations `data`: hop `i` reads flag `i - 1` and, only when it is
    /// set, reads payload `i - 1`, writes payload `i` and sets flag `i`.
    pub fn chain(&mut self, data: &[String]) {
        let n = data.len();
        self.decl("atomic", &names("f", n - 1));
        self.thread(0, &[format!("{} = 3;", data[0]), "f0 = 1;".to_string()]);
        for i in 1..n {
            let mut guarded = vec![format!("r1 = {};", data[i - 1])];
            if i + 1 < n {
                guarded.push(format!("{} = r1 + 1;", data[i]));
                guarded.push(format!("f{i} = 1;"));
            }
            self.thread(
                i,
                &[
                    format!("r0 = f{};", i - 1),
                    format!("if (r0 == 1) {{ {} }}", guarded.join(" ")),
                ],
            );
        }
    }
}

/// `prefix0` .. `prefix{n-1}`.
#[allow(dead_code)]
pub fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// The benchmark's guarded message-passing chain `mp-chain-{threads}`.
#[allow(dead_code)]
pub fn mp_chain(threads: usize) -> String {
    let mut s = Src::default();
    let data = names("d", threads);
    s.decl("nonatomic", &data);
    s.chain(&data);
    s.0
}
