//! Whole litmus programs: location declarations plus named threads, with
//! convenience entry points for running them on the operational model.

use std::collections::BTreeSet;
use std::fmt;

use bdrst_core::engine::{
    dpor_reachable_terminals, Control, Dependence, EngineConfig, EngineError, ExploreStats,
    StateGraph, StateId, Strategy, WorkStealingEngine, WorklistEngine,
};
use bdrst_core::loc::{Loc, LocKind, LocSet, Val};
use bdrst_core::machine::Machine;

use bdrst_core::wire::{Codec, Reader, WireError};

use crate::ast::{PureExpr, Reg, Stmt};
use crate::semantics::ThreadState;

/// One named thread: its register names (index = [`Reg`] index) and body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadProgram {
    /// The thread's name (e.g. `P0`).
    pub name: String,
    /// Register names; `regs[i]` names register `Reg(i)`.
    pub regs: Vec<String>,
    /// The thread body.
    pub body: Vec<Stmt>,
}

impl ThreadProgram {
    /// Looks up a register by name.
    pub fn reg_by_name(&self, name: &str) -> Option<Reg> {
        self.regs
            .iter()
            .position(|r| r == name)
            .map(|i| Reg(i as u16))
    }
}

/// A complete litmus program.
///
/// # Examples
///
/// ```
/// use bdrst_lang::Program;
///
/// let p = Program::parse(
///     "nonatomic a; atomic F;
///      thread P0 { a = 1; F = 1; }
///      thread P1 { r0 = F; r1 = a; }",
/// )?;
/// let outcomes = p.outcomes(Default::default())?;
/// // Message passing: F = 1 read implies a = 1 read.
/// assert!(outcomes.iter().all(|o| {
///     !(o.reg_named("P1", "r0") == Some(1) && o.reg_named("P1", "r1") == Some(0))
/// }));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// The declared locations.
    pub locs: LocSet,
    /// The threads, in declaration order (thread `i` is `ThreadId(i)`).
    pub threads: Vec<ThreadProgram>,
}

impl Program {
    /// Parses a program from the litmus surface syntax; see [`crate::parser`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::parser::ParseError`] describing the first syntax
    /// or scoping problem.
    pub fn parse(src: &str) -> Result<Program, crate::parser::ParseError> {
        let mut span = bdrst_obs::span(bdrst_obs::Phase::Parse);
        span.set_arg(src.len() as u64);
        crate::parser::parse(src)
    }

    /// The initial machine `M₀` for this program (§3.1).
    pub fn initial_machine(&self) -> Machine<ThreadState> {
        Machine::initial(
            &self.locs,
            self.threads
                .iter()
                .map(|t| ThreadState::new(t.body.clone())),
        )
    }

    /// The observation of a (typically terminal) machine state.
    pub fn observe(&self, m: &Machine<ThreadState>) -> Observation {
        Observation {
            regs: m.threads.iter().map(|t| t.expr.regs().to_vec()).collect(),
            memory: self
                .locs
                .iter()
                .map(|l| match self.locs.kind(l) {
                    LocKind::Nonatomic => m.store.history(l).latest().1,
                    LocKind::Atomic => m.store.atomic(l).1,
                })
                .collect(),
        }
    }

    /// All final observations of the program under the operational model:
    /// every interleaving, every read choice, every write-timestamp gap.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the state space exceeds the budget.
    pub fn outcomes(&self, config: EngineConfig) -> Result<Outcomes, EngineError> {
        Ok(self.outcomes_with(config, Strategy::Dfs)?.0)
    }

    /// [`Program::outcomes`] under an explicit engine [`Strategy`], with
    /// the statistics of the walk that found them. All strategies produce
    /// the same observation set:
    ///
    /// * `Dfs` runs the sequential visitor walk, the reference; `visited`
    ///   counts canonical states;
    /// * `WorkStealing` records the state graph across the worker pool
    ///   ([`Program::state_graph_with`]) and reads the outcomes off it
    ///   ([`Program::outcomes_from_graph`]); `visited` counts canonical
    ///   states;
    /// * `Dpor` reaches every terminal through one representative trace
    ///   per equivalence class instead of visiting every canonical state
    ///   (the check service's path); `visited` counts the executed trace
    ///   extensions, and `config.max_states` bounds them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the exploration exceeds `max_states`.
    pub fn outcomes_with(
        &self,
        config: EngineConfig,
        strategy: Strategy,
    ) -> Result<(Outcomes, ExploreStats), EngineError> {
        match strategy {
            Strategy::Dfs => {
                let mut terminals = Vec::new();
                let stats = WorklistEngine::new(config).explore(
                    &self.locs,
                    self.initial_machine(),
                    &mut |m: &Machine<ThreadState>, _id: StateId| {
                        if m.is_terminal() {
                            terminals.push(m.clone());
                        }
                        Control::Continue
                    },
                )?;
                Ok((self.observe_all(&terminals), stats))
            }
            Strategy::WorkStealing => {
                let (graph, stats) = self.state_graph_with(config, strategy)?;
                Ok((self.outcomes_from_graph(&graph), stats))
            }
            Strategy::Dpor => {
                // The reduced walk charges executed extensions to
                // `max_traces`; outcome enumeration is bounded by
                // `max_states`, whatever the strategy.
                let reduced = EngineConfig {
                    max_traces: config.max_states,
                    ..config
                };
                let (terminals, stats) = dpor_reachable_terminals(
                    &self.locs,
                    self.initial_machine(),
                    reduced,
                    Dependence::Observational,
                )?;
                let stats = ExploreStats {
                    visited: stats.visited,
                    transitions: stats.transitions,
                };
                Ok((self.observe_all(&terminals), stats))
            }
        }
    }

    /// The outcome set observed at `terminals`.
    fn observe_all(&self, terminals: &[Machine<ThreadState>]) -> Outcomes {
        Outcomes {
            program: self.clone(),
            set: terminals.iter().map(|m| self.observe(m)).collect(),
        }
    }

    /// Fully explores the program's state space once, returning the
    /// interned successor graph (per dense state id: successors, terminal
    /// flag, and the canonical state itself) for replay-based
    /// re-checking — see [`Program::outcomes_from_graph`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the state space exceeds the budget.
    pub fn state_graph(
        &self,
        config: EngineConfig,
    ) -> Result<(StateGraph<ThreadState>, ExploreStats), EngineError> {
        self.state_graph_with(config, Strategy::Dfs)
    }

    /// [`Program::state_graph`] under an explicit engine [`Strategy`].
    /// `Dfs` (and `Dpor`) record through the sequential worklist;
    /// `WorkStealing` records through the work-stealing pool. All
    /// strategies record the same canonical state set (the engines
    /// guarantee it); only id order may differ.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the state space exceeds the budget.
    pub fn state_graph_with(
        &self,
        config: EngineConfig,
        strategy: Strategy,
    ) -> Result<(StateGraph<ThreadState>, ExploreStats), EngineError> {
        let m0 = self.initial_machine();
        match strategy {
            // A state graph is by definition the *full* interned
            // successor graph; the reduced walk cannot record one, so
            // Dpor falls back to the sequential DFS recorder.
            Strategy::Dfs | Strategy::Dpor => {
                WorklistEngine::new(config).explore_graph(&self.locs, m0)
            }
            Strategy::WorkStealing => WorkStealingEngine::new(config).explore_graph(&self.locs, m0),
        }
    }

    /// Re-derives the program's outcome set from a cached successor
    /// graph, without re-running the transition semantics: terminal
    /// canonical states already carry the final register files (thread
    /// expressions) and the coherence-latest value of every location.
    /// Equals [`Program::outcomes`]'s result on the same program — the
    /// litmus runner asserts this across the whole corpus.
    pub fn outcomes_from_graph(&self, graph: &StateGraph<ThreadState>) -> Outcomes {
        let set = graph
            .terminal_ids()
            .map(|id| {
                let canon = graph.state(id);
                Observation {
                    regs: canon.thread_exprs().map(|e| e.regs().to_vec()).collect(),
                    memory: canon.latest_values().collect(),
                }
            })
            .collect();
        Outcomes {
            program: self.clone(),
            set,
        }
    }

    /// Looks up a thread index by name.
    pub fn thread_by_name(&self, name: &str) -> Option<usize> {
        self.threads.iter().position(|t| t.name == name)
    }

    /// Prints the program back into *re-parseable* surface syntax: the
    /// round-trip printer behind the on-disk corpus and the result
    /// store's canonical program text.
    ///
    /// Location declarations are emitted in index order (grouped by runs
    /// of one kind) and statements use the declared location and register
    /// names, so re-parsing reproduces the same `Loc`/[`Reg`] index
    /// assignment. Parser-introduced temporaries (`$t0`, …) and any other
    /// name the lexer would reject are renamed to fresh `_hN` registers —
    /// re-parsing therefore yields a program identical up to register
    /// *names* (indices, bodies, locations and thread names all match;
    /// see `alpha_eq` in the round-trip tests). Loops are printed without
    /// their fuel, so programs whose loops carry the parser's
    /// [`crate::parser::ParseOptions`] fuel round-trip exactly; hand-built
    /// negative constants (which the parser never produces) re-parse as
    /// negation expressions — semantically equal, structurally the
    /// lexer's form.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        // Declarations: one per run of equal kind, preserving index order.
        let mut i = 0usize;
        while i < self.locs.len() {
            let kind = self.locs.kind(Loc(i as u32));
            out.push_str(match kind {
                LocKind::Nonatomic => "nonatomic",
                LocKind::Atomic => "atomic",
            });
            while i < self.locs.len() && self.locs.kind(Loc(i as u32)) == kind {
                out.push(' ');
                out.push_str(self.locs.name(Loc(i as u32)));
                i += 1;
            }
            out.push_str(";\n");
        }
        for t in &self.threads {
            let names = self.reg_names(t);
            out.push_str(&format!("thread {} {{\n", t.name));
            for s in &t.body {
                self.fmt_stmt(&mut out, s, &names, 1);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Printable register names for one thread: declared names where the
    /// lexer accepts them, fresh `_hN` substitutes otherwise (temporaries,
    /// keyword or location shadowing, out-of-range indices).
    fn reg_names(&self, t: &ThreadProgram) -> Vec<String> {
        let lexable = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !crate::parser::is_keyword(n)
                && self.locs.by_name(n).is_none()
        };
        let mut fresh = 0usize;
        let mut names: Vec<String> = Vec::with_capacity(t.regs.len());
        for n in &t.regs {
            if lexable(n) && !names.contains(n) {
                names.push(n.clone());
            } else {
                let sub = loop {
                    let cand = format!("_h{fresh}");
                    fresh += 1;
                    if lexable(&cand) && !names.contains(&cand) && !t.regs.contains(&cand) {
                        break cand;
                    }
                };
                names.push(sub);
            }
        }
        names
    }

    fn fmt_stmt(&self, out: &mut String, s: &Stmt, names: &[String], indent: usize) {
        let pad = "  ".repeat(indent);
        let reg = |r: &Reg| names[r.index()].clone();
        match s {
            Stmt::Assign(r, e) => {
                out.push_str(&format!("{pad}{} = {};\n", reg(r), fmt_expr(e, names)))
            }
            Stmt::Load(r, l) => {
                out.push_str(&format!("{pad}{} = {};\n", reg(r), self.locs.name(*l)))
            }
            Stmt::Store(l, e) => out.push_str(&format!(
                "{pad}{} = {};\n",
                self.locs.name(*l),
                fmt_expr(e, names)
            )),
            Stmt::If(c, t, e) => {
                out.push_str(&format!("{pad}if ({}) {{\n", fmt_expr(c, names)));
                for s in t {
                    self.fmt_stmt(out, s, names, indent + 1);
                }
                if e.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    for s in e {
                        self.fmt_stmt(out, s, names, indent + 1);
                    }
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            Stmt::While(c, b, _fuel) => {
                out.push_str(&format!("{pad}while ({}) {{\n", fmt_expr(c, names)));
                for s in b {
                    self.fmt_stmt(out, s, names, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }

    /// Pairs a raw observation with this program for name-based lookup
    /// (used when the observation came from the axiomatic or hardware
    /// semantics rather than [`Program::outcomes`]).
    pub fn name_observation<'a>(&'a self, obs: &'a Observation) -> NamedObservation<'a> {
        NamedObservation { program: self, obs }
    }

    /// Structural equality up to register *names*: locations, thread
    /// names, register counts and bodies (which reference registers by
    /// index) all match. This is the equivalence [`Program::to_source`]
    /// round-trips under — parser temporaries like `$t0` are printed
    /// under substitute names.
    pub fn alpha_eq(&self, other: &Program) -> bool {
        self.locs == other.locs
            && self.threads.len() == other.threads.len()
            && self
                .threads
                .iter()
                .zip(&other.threads)
                .all(|(a, b)| a.name == b.name && a.regs.len() == b.regs.len() && a.body == b.body)
    }
}

/// Prints a pure expression fully parenthesized with the thread's
/// register names — unambiguously re-parseable under any precedence.
///
/// The lexer has no negative literals (the parser builds `Unary(Neg, n)`
/// for `-n`), so a hand-built negative `Const` prints as a *semantically*
/// equal expression that re-parses to the negation form: `-5` becomes
/// `(-5)` ↦ `Neg(Const(5))`, and `i64::MIN` — whose magnitude is itself
/// unlexable — becomes `((-9223372036854775807) - 1)`. Parsed programs
/// never contain negative `Const`s, so their round trip stays structural.
fn fmt_expr(e: &PureExpr, names: &[String]) -> String {
    match e {
        PureExpr::Const(v) => {
            if v.0 == i64::MIN {
                format!("((-{}) - 1)", i64::MAX)
            } else if v.0 < 0 {
                format!("(-{})", v.0.unsigned_abs())
            } else {
                format!("{v}")
            }
        }
        PureExpr::Reg(r) => names[r.index()].clone(),
        PureExpr::Unary(op, inner) => format!("({op}{})", fmt_expr(inner, names)),
        PureExpr::Binary(op, l, r) => {
            format!("({} {op} {})", fmt_expr(l, names), fmt_expr(r, names))
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nas: Vec<&str> = self.locs.nonatomic().map(|l| self.locs.name(l)).collect();
        let ats: Vec<&str> = self.locs.atomic().map(|l| self.locs.name(l)).collect();
        if !nas.is_empty() {
            writeln!(f, "nonatomic {};", nas.join(" "))?;
        }
        if !ats.is_empty() {
            writeln!(f, "atomic {};", ats.join(" "))?;
        }
        for t in &self.threads {
            writeln!(f, "thread {} {{", t.name)?;
            for s in &t.body {
                write!(f, "  {s}")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// One final observation: the register file of every thread plus the final
/// (coherence-latest) value of every location.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Observation {
    /// Register values per thread, indexed `[thread][reg]`.
    pub regs: Vec<Vec<Val>>,
    /// Final value per location (history maximum for nonatomics).
    pub memory: Vec<Val>,
}

impl Observation {
    /// The value of register `r` of thread `t`, if in range.
    pub fn reg(&self, t: usize, r: Reg) -> Option<Val> {
        self.regs.get(t).and_then(|rs| rs.get(r.index())).copied()
    }

    /// The final value of `loc`.
    pub fn memory(&self, loc: Loc) -> Option<Val> {
        self.memory.get(loc.index()).copied()
    }
}

impl Codec for Observation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.regs.encode(out);
        self.memory.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Observation, WireError> {
        Ok(Observation {
            regs: Vec::decode(r)?,
            memory: Vec::decode(r)?,
        })
    }
}

/// The set of final observations of a program, with name-based lookups.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outcomes {
    program: Program,
    set: BTreeSet<Observation>,
}

impl Outcomes {
    /// The underlying observation set.
    pub fn set(&self) -> &BTreeSet<Observation> {
        &self.set
    }

    /// Number of distinct observations.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if the program has no terminal observation (e.g. all threads
    /// stuck), which cannot happen for well-formed litmus programs.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates over observations, paired with the program for lookups.
    pub fn iter(&self) -> impl Iterator<Item = NamedObservation<'_>> + '_ {
        self.set.iter().map(move |obs| NamedObservation {
            program: &self.program,
            obs,
        })
    }

    /// True if some observation satisfies the predicate.
    pub fn any(&self, pred: impl FnMut(NamedObservation<'_>) -> bool) -> bool {
        self.iter().any(pred)
    }

    /// True if every observation satisfies the predicate.
    pub fn all(&self, pred: impl FnMut(NamedObservation<'_>) -> bool) -> bool {
        self.iter().all(pred)
    }
}

/// An [`Observation`] paired with its [`Program`], for name-based lookup.
#[derive(Clone, Copy, Debug)]
pub struct NamedObservation<'a> {
    program: &'a Program,
    obs: &'a Observation,
}

impl NamedObservation<'_> {
    /// The value of register `reg` of thread `thread`, by name.
    pub fn reg_named(&self, thread: &str, reg: &str) -> Option<i64> {
        let ti = self.program.thread_by_name(thread)?;
        let r = self.program.threads[ti].reg_by_name(reg)?;
        self.obs.reg(ti, r).map(|v| v.0)
    }

    /// The final value of the location named `loc`.
    pub fn mem_named(&self, loc: &str) -> Option<i64> {
        let l = self.program.locs.by_name(loc)?;
        self.obs.memory(l).map(|v| v.0)
    }

    /// The raw observation.
    pub fn observation(&self) -> &Observation {
        self.obs
    }
}

impl fmt::Display for Outcomes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for o in self.set.iter() {
            write!(f, "{{")?;
            let mut first = true;
            for (ti, t) in self.program.threads.iter().enumerate() {
                for (ri, rname) in t.regs.iter().enumerate() {
                    if !first {
                        write!(f, ", ")?;
                    }
                    first = false;
                    write!(f, "{}:{}={}", t.name, rname, o.regs[ti][ri])?;
                }
            }
            for l in self.program.locs.iter() {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{}={}", self.program.locs.name(l), o.memory[l.index()])?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PureExpr;

    fn mini_program() -> Program {
        let mut locs = LocSet::new();
        let a = locs.fresh("a", LocKind::Nonatomic);
        Program {
            locs,
            threads: vec![
                ThreadProgram {
                    name: "P0".into(),
                    regs: vec![],
                    body: vec![Stmt::Store(a, PureExpr::constant(1))],
                },
                ThreadProgram {
                    name: "P1".into(),
                    regs: vec!["r0".into()],
                    body: vec![Stmt::Load(Reg(0), a)],
                },
            ],
        }
    }

    #[test]
    fn graph_outcomes_match_live_outcomes() {
        let p = mini_program();
        let live = p.outcomes(EngineConfig::default()).unwrap();
        let (graph, stats) = p.state_graph(EngineConfig::default()).unwrap();
        assert!(stats.visited > 0);
        let cached = p.outcomes_from_graph(&graph);
        assert_eq!(live.set(), cached.set());
    }

    #[test]
    fn outcomes_of_race() {
        let p = mini_program();
        let o = p.outcomes(EngineConfig::default()).unwrap();
        // The reader may see 0 or 1.
        assert!(o.any(|x| x.reg_named("P1", "r0") == Some(0)));
        assert!(o.any(|x| x.reg_named("P1", "r0") == Some(1)));
        // Final memory is always 1: the write is the only non-initial one.
        assert!(o.all(|x| x.mem_named("a") == Some(1)));
    }

    #[test]
    fn thread_and_reg_lookup() {
        let p = mini_program();
        assert_eq!(p.thread_by_name("P1"), Some(1));
        assert_eq!(p.threads[1].reg_by_name("r0"), Some(Reg(0)));
        assert_eq!(p.threads[1].reg_by_name("nope"), None);
    }

    #[test]
    fn display_is_parseable_shape() {
        let p = mini_program();
        let s = format!("{p}");
        assert!(s.contains("thread P0 {"));
        assert!(s.contains("nonatomic a;"));
    }

    #[test]
    fn to_source_round_trips_programs_with_temps_and_control_flow() {
        // Hoisted temporaries ($t0), interleaved declaration kinds,
        // if/else, while (default fuel), compound expressions.
        let sources = [
            "nonatomic a b c; thread P0 { c = a + 10; b = a + 10; } thread P1 { c = 1; }",
            "nonatomic a; atomic F; nonatomic b;
             thread P0 { a = 1; F = 1; }
             thread P1 { r = F; if (r == 1) { r0 = a; } else { r1 = b; } }",
            "nonatomic a; thread P0 { while (a == 0) { r1 = r1 + 1; } a = r1; }",
            "thread P0 { r0 = 1 + 2 * 3; r1 = !(r0 == 7) || r0 > 2; r2 = -r1; }",
        ];
        for src in sources {
            let p = Program::parse(src).unwrap();
            let printed = p.to_source();
            let q = Program::parse(&printed)
                .unwrap_or_else(|e| panic!("to_source output failed to parse: {e}\n{printed}"));
            assert!(
                p.alpha_eq(&q),
                "round trip diverged for {src:?}:\n{printed}\n{p:#?}\n{q:#?}"
            );
            // Printing is a fixpoint once names are lexable.
            assert_eq!(q.to_source(), q.to_source());
        }
    }

    #[test]
    fn to_source_handles_hand_built_negative_constants() {
        // The parser never produces negative Consts, but the printer must
        // still emit parseable, semantically equal text for them —
        // including i64::MIN, whose magnitude is not lexable.
        for v in [-1i64, -42, i64::MIN, i64::MIN + 1] {
            let p = Program {
                locs: LocSet::new(),
                threads: vec![ThreadProgram {
                    name: "P0".into(),
                    regs: vec!["r0".into()],
                    body: vec![Stmt::Assign(Reg(0), PureExpr::constant(v))],
                }],
            };
            let printed = p.to_source();
            let q = Program::parse(&printed)
                .unwrap_or_else(|e| panic!("unparseable for {v}: {e}\n{printed}"));
            match &q.threads[0].body[0] {
                Stmt::Assign(_, e) => assert_eq!(e.eval(&[]), Val(v), "{printed}"),
                other => panic!("expected assign, got {other:?}"),
            }
        }
    }

    #[test]
    fn observation_round_trips_through_the_wire() {
        let p = mini_program();
        let o = p.outcomes(EngineConfig::default()).unwrap();
        for named in o.iter() {
            let obs = named.observation();
            let mut bytes = Vec::new();
            obs.encode(&mut bytes);
            let mut r = Reader::new(&bytes);
            assert_eq!(&Observation::decode(&mut r).unwrap(), obs);
            assert!(r.is_done());
        }
    }
}
