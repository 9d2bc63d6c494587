//! Walks through the paper's §2 examples with the local-DRF machinery:
//! outcome sets, global DRF classification, and the local DRF theorem
//! checked from the initial state.

use bdrst_core::engine::EngineConfig;
use bdrst_core::localdrf::{check_global_drf, check_local_drf, DrfStatus};
use bdrst_core::trace::LocPredicate;
use bdrst_lang::Program;
use bdrst_litmus::corpus::{EXAMPLE1, EXAMPLE2, EXAMPLE3};

fn main() {
    for t in [&EXAMPLE1, &EXAMPLE2, &EXAMPLE3] {
        println!("=== {} — {}", t.name, t.description);
        let p = Program::parse(t.source).unwrap();
        println!("{p}");
        let outcomes = p.outcomes(EngineConfig::default()).unwrap();
        println!(
            "{} distinct outcomes under the operational model",
            outcomes.len()
        );
        match check_global_drf(&p.locs, p.initial_machine(), EngineConfig::default()) {
            Ok(DrfStatus::RaceFree) => println!("program is data-race-free (Thm 14 applies)"),
            Ok(DrfStatus::Racy(w)) => println!(
                "program has an SC race (transitions {} and {}) — local DRF still bounds it",
                w.first, w.second
            ),
            Err(e) => println!("global DRF check: {e}"),
        }
        // Local DRF with L = every nonatomic location of the program (§5's
        // rule of thumb).
        let l: LocPredicate = p.locs.nonatomic().collect();
        match check_local_drf(&p.locs, p.initial_machine(), &l, EngineConfig::default()) {
            Ok(stats) => println!(
                "Theorem 13 verified from the initial state ({} L-sequential prefixes)\n",
                stats.visited
            ),
            Err(e) => println!("Theorem 13 VIOLATED: {e}\n"),
        }
    }
}
