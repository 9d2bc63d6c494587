//! Generating event graphs from programs (Fig. 2).
//!
//! The rules of Fig. 2 generate events from program execution with *free*
//! reads: a read event may carry any value, producing "all possible
//! executions, as well as many nonsensical executions" later filtered by
//! consistency. To keep the value space finite we compute, per location, a
//! *domain*: the initial value plus every value some generated write can
//! store. Because stored values may themselves depend on read values
//! (`r = a; b = r;`), the domains are computed by fixpoint iteration.

use std::collections::BTreeSet;
use std::fmt;

use bdrst_core::loc::{Action, Loc, Val};
use bdrst_core::machine::{Expr, StepLabel};
use bdrst_lang::{Program, ThreadState};

/// Limits for event-graph generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GenLimits {
    /// Maximum alternatives (event sequences) per thread.
    pub max_alternatives: usize,
    /// Maximum fixpoint iterations for the value domains.
    pub max_domain_iterations: usize,
}

impl Default for GenLimits {
    fn default() -> GenLimits {
        GenLimits {
            max_alternatives: 100_000,
            max_domain_iterations: 8,
        }
    }
}

/// Errors of event-graph generation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GenError {
    /// A thread exceeded [`GenLimits::max_alternatives`].
    TooManyAlternatives {
        /// The offending thread index.
        thread: usize,
    },
    /// The value domains failed to stabilise (e.g. a counter incremented in
    /// a loop) within [`GenLimits::max_domain_iterations`].
    DomainDiverged,
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::TooManyAlternatives { thread } => {
                write!(f, "thread {thread} has too many candidate event sequences")
            }
            GenError::DomainDiverged => {
                write!(f, "value domains did not reach a fixpoint")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// One complete per-thread event sequence under free reads, with the
/// thread's final register file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadAlternative {
    /// The actions, in program order.
    pub actions: Vec<(Loc, Action)>,
    /// The registers after the thread terminates.
    pub final_regs: Vec<Val>,
}

/// The result of generation: per-location value domains and per-thread
/// alternative event sequences.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Generated {
    /// `domains[l]` is the set of values a read of location `l` may return.
    pub domains: Vec<BTreeSet<Val>>,
    /// `per_thread[i]` lists every candidate event sequence of thread `i`.
    pub per_thread: Vec<Vec<ThreadAlternative>>,
}

impl Generated {
    /// The total number of whole-program event-graph candidates
    /// (the product of per-thread alternative counts).
    pub fn candidate_count(&self) -> usize {
        self.per_thread.iter().map(Vec::len).product()
    }
}

/// Generates all candidate per-thread event sequences for `program`.
///
/// # Errors
///
/// Returns [`GenError`] if a thread explodes combinatorially or the value
/// domains diverge.
pub fn generate(program: &Program, limits: GenLimits) -> Result<Generated, GenError> {
    let nlocs = program.locs.len();
    let mut domains: Vec<BTreeSet<Val>> = vec![[Val::INIT].into_iter().collect(); nlocs];
    for _ in 0..limits.max_domain_iterations {
        let per_thread = generate_with_domains(program, &domains, limits)?;
        let mut next = domains.clone();
        for alts in &per_thread {
            for alt in alts {
                for (loc, action) in &alt.actions {
                    if let Action::Write(v) = action {
                        next[loc.index()].insert(*v);
                    }
                }
            }
        }
        if next == domains {
            return Ok(Generated {
                domains,
                per_thread,
            });
        }
        domains = next;
    }
    Err(GenError::DomainDiverged)
}

/// Generates per-thread alternatives with fixed read-value domains.
fn generate_with_domains(
    program: &Program,
    domains: &[BTreeSet<Val>],
    limits: GenLimits,
) -> Result<Vec<Vec<ThreadAlternative>>, GenError> {
    let mut out = Vec::with_capacity(program.threads.len());
    for (ti, thread) in program.threads.iter().enumerate() {
        let mut alternatives = Vec::new();
        let initial = ThreadState::new(thread.body.clone());
        let mut stack: Vec<(ThreadState, Vec<(Loc, Action)>)> = vec![(initial, Vec::new())];
        while let Some((state, actions)) = stack.pop() {
            if alternatives.len() + stack.len() > limits.max_alternatives {
                return Err(GenError::TooManyAlternatives { thread: ti });
            }
            // The axiomatic generator probes the expression semantics
            // directly (it enumerates per-thread action sequences, not
            // machine transitions); count it like a machine expansion so
            // the cache suites can assert warm paths run no semantics.
            bdrst_core::machine::record_semantics_probe();
            let steps = state.steps();
            if steps.is_empty() {
                alternatives.push(ThreadAlternative {
                    actions,
                    final_regs: state.regs().to_vec(),
                });
                continue;
            }
            for (si, step) in steps.into_iter().enumerate() {
                match step {
                    StepLabel::Silent => {
                        stack.push((state.apply_step(si, Val::INIT), actions.clone()));
                    }
                    StepLabel::Write(loc, v) => {
                        let mut acts = actions.clone();
                        acts.push((loc, Action::Write(v)));
                        stack.push((state.apply_step(si, Val::INIT), acts));
                    }
                    StepLabel::Read(loc) => {
                        for &v in &domains[loc.index()] {
                            let mut acts = actions.clone();
                            acts.push((loc, Action::Read(v)));
                            stack.push((state.apply_step(si, v), acts));
                        }
                    }
                }
            }
        }
        out.push(alternatives);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_writer_one_alternative() {
        let p = Program::parse("nonatomic a; thread P0 { a = 1; }").unwrap();
        let g = generate(&p, GenLimits::default()).unwrap();
        assert_eq!(g.per_thread[0].len(), 1);
        let d: Vec<i64> = g.domains[0].iter().map(|v| v.0).collect();
        assert_eq!(d, vec![0, 1]);
    }

    #[test]
    fn reader_branches_over_domain() {
        let p = Program::parse("nonatomic a; thread P0 { a = 1; } thread P1 { r0 = a; }").unwrap();
        let g = generate(&p, GenLimits::default()).unwrap();
        // Reader: one alternative per domain value {0, 1}.
        assert_eq!(g.per_thread[1].len(), 2);
        assert_eq!(g.candidate_count(), 2);
    }

    #[test]
    fn data_dependent_store_reaches_fixpoint() {
        // b's domain must include values copied from a.
        let p = Program::parse("nonatomic a b; thread P0 { a = 1; } thread P1 { r0 = a; b = r0; }")
            .unwrap();
        let g = generate(&p, GenLimits::default()).unwrap();
        let db: Vec<i64> = g.domains[1].iter().map(|v| v.0).collect();
        assert_eq!(db, vec![0, 1]);
    }

    #[test]
    fn conditional_alternatives_differ_in_shape() {
        let p = Program::parse(
            "nonatomic a b;
             thread P0 { a = 1; }
             thread P1 { r0 = a; if (r0 == 1) { b = 1; } }",
        )
        .unwrap();
        let g = generate(&p, GenLimits::default()).unwrap();
        let lens: BTreeSet<usize> = g.per_thread[1].iter().map(|a| a.actions.len()).collect();
        // Read-only (r0 = 0) vs read+write (r0 = 1).
        assert_eq!(lens, [1, 2].into_iter().collect());
    }

    #[test]
    fn diverging_counter_detected() {
        // a = a + 1: each fixpoint round adds a new writable value.
        let p = Program::parse("nonatomic a; thread P0 { r0 = a; a = r0 + 1; }").unwrap();
        assert_eq!(
            generate(&p, GenLimits::default()),
            Err(GenError::DomainDiverged)
        );
    }

    #[test]
    fn alternative_explosion_detected() {
        // A loop whose body both reads and writes multiplies alternatives
        // past any reasonable budget.
        let p = Program::parse(
            "nonatomic a c;
             thread P0 { while (c == 0) { a = a + 1; } }
             thread P1 { c = 1; }",
        )
        .unwrap();
        let tight = GenLimits {
            max_alternatives: 1000,
            ..GenLimits::default()
        };
        assert!(matches!(
            generate(&p, tight),
            Err(GenError::TooManyAlternatives { .. }) | Err(GenError::DomainDiverged)
        ));
    }

    #[test]
    fn final_regs_recorded() {
        let p = Program::parse("nonatomic a; thread P0 { r0 = a; r1 = r0 + 5; }").unwrap();
        let g = generate(&p, GenLimits::default()).unwrap();
        for alt in &g.per_thread[0] {
            let read = match alt.actions[0].1 {
                Action::Read(v) => v,
                _ => panic!(),
            };
            assert_eq!(alt.final_regs[1], Val(read.0 + 5));
        }
    }
}
