//! The Fig. 5 harness: synthetic instruction streams from workload models,
//! normalised-time measurement per scheme, and the table/series formatting
//! used by the `fig5a`/`fig5b`/`fig5c` binaries.
//!
//! The 29-workload sweep is embarrassingly parallel (each row simulates
//! four independent instruction streams), so [`figure5`] shards workloads
//! across the core engine's [`parallel_map`] rather than looping. Its
//! workers take the next unclaimed workload from a shared cursor —
//! workload costs vary with the padded access rate, so the sweep does not
//! straggle on the slowest rows (the worker count honours
//! `BDRST_ENGINE_THREADS`).

use bdrst_core::engine::parallel_map;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cpu::{Core, CoreModel, SimInstr, POWER, THUNDERX};
use crate::schemes::{lower, AccessCategory, Scheme};
use crate::workloads::{Workload, WORKLOADS};

/// Deterministic per-workload seed.
fn seed_of(w: &Workload) -> u64 {
    w.name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Generates the access sequence of a workload: `accesses` draws from the
/// Fig. 5a category mix, each tagged with whether it is floating-point.
pub fn access_sequence(w: &Workload, accesses: usize) -> Vec<(AccessCategory, bool)> {
    let mut rng = StdRng::seed_from_u64(seed_of(w));
    (0..accesses)
        .map(|_| {
            let x: f64 = rng.random_range(0.0..100.0);
            let cat = if x < w.imm_load {
                AccessCategory::ImmutableLoad
            } else if x < w.imm_load + w.init_store {
                AccessCategory::InitStore
            } else if x < w.imm_load + w.init_store + w.mut_load {
                AccessCategory::MutableLoad
            } else {
                AccessCategory::Assignment
            };
            let mutable = matches!(
                cat,
                AccessCategory::MutableLoad | AccessCategory::Assignment
            );
            let fp = mutable && rng.random_range(0.0..1.0) < w.fp_share;
            (cat, fp)
        })
        .collect()
}

/// Builds the full instruction stream for one workload under one scheme:
/// each access lowered per [`lower`], padded with compute instructions so
/// that the *baseline* run reproduces the workload's measured access rate
/// on the given core.
pub fn instruction_stream(
    w: &Workload,
    scheme: Scheme,
    core: &CoreModel,
    power: bool,
    accesses: usize,
) -> Vec<SimInstr> {
    // Cycles between accesses on the baseline: clock / rate.
    let cycles_per_access = 1000.0 * core.clock_ghz / w.rate_m;
    let pad = ((cycles_per_access - core.load_issue) / core.compute_cost).max(0.0) as usize;
    let seq = access_sequence(w, accesses);
    let mut out = Vec::with_capacity(accesses * (pad + 2));
    for (cat, fp) in seq {
        lower(scheme, cat, fp, power, &mut out);
        out.extend(std::iter::repeat_n(SimInstr::Compute, pad));
    }
    out
}

/// Runs one workload under one scheme and returns total cycles.
pub fn run_workload(
    w: &Workload,
    scheme: Scheme,
    core: CoreModel,
    power: bool,
    accesses: usize,
) -> f64 {
    let stream = instruction_stream(w, scheme, &core, power, accesses);
    let mut c = Core::new(core);
    c.run(stream);
    c.cycles()
}

/// One row of Fig. 5b/5c: a workload's normalised time under each scheme.
#[derive(Clone, PartialEq, Debug)]
pub struct Fig5Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Normalised time (baseline = 1.0) for BAL.
    pub bal: f64,
    /// Normalised time for FBS.
    pub fbs: f64,
    /// Normalised time for SRA.
    pub sra: f64,
}

/// The whole Fig. 5b (AArch64) or Fig. 5c (POWER) series.
#[derive(Clone, PartialEq, Debug)]
pub struct Fig5 {
    /// Which core was simulated.
    pub core: &'static str,
    /// Per-benchmark rows, in Fig. 5a order.
    pub rows: Vec<Fig5Row>,
}

impl Fig5 {
    /// Mean overhead (percent) of one scheme across the suite.
    pub fn mean_overhead(&self, scheme: Scheme) -> f64 {
        let xs: Vec<f64> = self
            .rows
            .iter()
            .map(|r| match scheme {
                Scheme::Bal => r.bal,
                Scheme::Fbs => r.fbs,
                Scheme::Sra => r.sra,
                Scheme::Baseline => 1.0,
            })
            .collect();
        (xs.iter().sum::<f64>() / xs.len() as f64 - 1.0) * 100.0
    }
}

/// Simulates the full Fig. 5b/5c experiment: 29 workloads × {BAL, FBS,
/// SRA}, normalised to the baseline scheme on the same core.
pub fn figure5(core: CoreModel, power: bool, accesses: usize) -> Fig5 {
    let rows = parallel_map(&WORKLOADS, |w| {
        let base = run_workload(w, Scheme::Baseline, core, power, accesses);
        let time = |s| run_workload(w, s, core, power, accesses) / base;
        Fig5Row {
            name: w.name,
            bal: time(Scheme::Bal),
            fbs: time(Scheme::Fbs),
            sra: time(Scheme::Sra),
        }
    });
    Fig5 {
        core: core.name,
        rows,
    }
}

/// Fig. 5b: the AArch64 series.
pub fn figure5b(accesses: usize) -> Fig5 {
    figure5(THUNDERX, false, accesses)
}

/// Fig. 5c: the POWER series.
pub fn figure5c(accesses: usize) -> Fig5 {
    figure5(POWER, true, accesses)
}

/// Formats Fig. 5a: the access-mix table.
pub fn format_figure5a() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>9} {:>10} {:>9} {:>8} {:>9} {:>4}\n",
        "benchmark", "imm-load%", "init-store%", "mut-load%", "assign%", "rate(M/s)", "fp"
    ));
    for w in &WORKLOADS {
        out.push_str(&format!(
            "{:<22} {:>9.1} {:>10.1} {:>9.1} {:>8.1} {:>9.2} {:>4.0}%\n",
            w.name,
            w.imm_load,
            w.init_store,
            w.mut_load,
            w.assign,
            w.rate_m,
            w.fp_share * 100.0
        ));
    }
    out
}

/// Formats a Fig. 5b/5c series as a table with suite means, in the shape
/// of the paper's bar charts.
pub fn format_figure5(fig: &Fig5) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Normalised time on {} (baseline = 1.00)\n",
        fig.core
    ));
    out.push_str(&format!(
        "{:<22} {:>6} {:>6} {:>6}\n",
        "benchmark", "BAL", "FBS", "SRA"
    ));
    for r in &fig.rows {
        out.push_str(&format!(
            "{:<22} {:>6.3} {:>6.3} {:>6.3}\n",
            r.name, r.bal, r.fbs, r.sra
        ));
    }
    out.push_str(&format!(
        "{:<22} {:>5.1}% {:>5.1}% {:>5.1}%   (mean overhead)\n",
        "suite mean",
        fig.mean_overhead(Scheme::Bal),
        fig.mean_overhead(Scheme::Fbs),
        fig.mean_overhead(Scheme::Sra),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 400;

    #[test]
    fn access_sequence_matches_mix() {
        let w = &WORKLOADS[0]; // almabench: 50% mutable loads
        let seq = access_sequence(w, 4000);
        let mut_loads = seq
            .iter()
            .filter(|(c, _)| *c == AccessCategory::MutableLoad)
            .count() as f64;
        let pct = 100.0 * mut_loads / 4000.0;
        assert!((pct - w.mut_load).abs() < 5.0, "{pct} vs {}", w.mut_load);
    }

    #[test]
    fn access_sequence_is_deterministic() {
        let w = &WORKLOADS[3];
        assert_eq!(access_sequence(w, 100), access_sequence(w, 100));
    }

    #[test]
    fn baseline_tracks_access_rate() {
        // The padded baseline should land near the workload's measured
        // cycles-per-access.
        let w = &WORKLOADS[1]; // rnd_access, 106.2 M/s on 2.5 GHz → ~23.5
        let cycles = run_workload(w, Scheme::Baseline, THUNDERX, false, N);
        let cpa = cycles / N as f64;
        let target = 1000.0 * THUNDERX.clock_ghz / w.rate_m;
        assert!((cpa - target).abs() / target < 0.15, "{cpa} vs {target}");
    }

    #[test]
    fn aarch64_ordering_fbs_cheapest_sra_dearest() {
        let fig = figure5b(N);
        let bal = fig.mean_overhead(Scheme::Bal);
        let fbs = fig.mean_overhead(Scheme::Fbs);
        let sra = fig.mean_overhead(Scheme::Sra);
        assert!(
            fbs < bal,
            "FBS ({fbs:.2}%) must beat BAL ({bal:.2}%) on AArch64"
        );
        assert!(bal < 8.0, "BAL should be a small overhead, got {bal:.2}%");
        assert!(fbs < 3.0, "FBS should be tiny, got {fbs:.2}%");
        assert!(sra > 30.0, "SRA must be drastically slower, got {sra:.2}%");
    }

    #[test]
    fn power_ordering_bal_cheapest_sra_dearest() {
        let fig = figure5c(N);
        let bal = fig.mean_overhead(Scheme::Bal);
        let fbs = fig.mean_overhead(Scheme::Fbs);
        let sra = fig.mean_overhead(Scheme::Sra);
        assert!(
            bal < fbs,
            "BAL ({bal:.2}%) must beat FBS ({fbs:.2}%) on POWER"
        );
        assert!(bal < 8.0, "BAL small on POWER, got {bal:.2}%");
        assert!(
            fbs > 10.0,
            "lwsync makes FBS expensive on POWER, got {fbs:.2}%"
        );
        assert!(
            sra > fbs,
            "SRA ({sra:.2}%) worst on POWER vs FBS ({fbs:.2}%)"
        );
    }

    #[test]
    fn sra_numeric_cliff_on_aarch64() {
        // §8.3: FP-heavy benchmarks suffer most under SRA on AArch64.
        let fig = figure5b(N);
        let almabench = fig.rows.iter().find(|r| r.name == "almabench").unwrap();
        let kb = fig.rows.iter().find(|r| r.name == "kb").unwrap();
        assert!(
            almabench.sra > 1.8,
            "FP benchmark should blow up under SRA: {:.2}",
            almabench.sra
        );
        assert!(
            almabench.sra > kb.sra,
            "FP cliff should exceed symbolic code"
        );
    }

    #[test]
    fn fig5a_table_has_all_rows() {
        let t = format_figure5a();
        assert_eq!(t.lines().count(), 30); // header + 29 workloads
        assert!(t.contains("almabench"));
        assert!(t.contains("sequence-cps"));
    }
}
