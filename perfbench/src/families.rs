//! Seeded program families with known answers.
//!
//! Every family is a parameterised litmus shape whose verdicts are known
//! without running the checker:
//!
//! * operational ≡ axiomatic holds for every program (the repository's
//!   equivalence theorem), so `models_agree` is always true;
//! * local DRF (Theorem 13) holds for every program, so `holds` is always
//!   true;
//! * racy or race-free is fixed by the shape: nonatomic accesses with no
//!   synchronisation race, guarded or atomic-only shapes do not.
//!
//! The seed varies location names and stored values, never the shape, so
//! two seeds give programs of the same size (and nearly the same cost)
//! that still have distinct cache keys. The server only ever sees the
//! generated source text.

use std::fmt::Write;

/// SplitMix64: a tiny, fully deterministic generator, so the same seed
/// gives byte-identical programs on every host and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One program family at one size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Store buffering on nonatomics over `threads` threads: each thread
    /// writes its own location and reads its neighbour's. Racy.
    Sb { threads: usize },
    /// Store buffering on atomics, each thread writing its location
    /// `writes` times before reading its neighbour's. Race-free; the
    /// multi-write shapes are where the axiomatic enumerator is costly.
    SbAt { threads: usize, writes: usize },
    /// Unguarded message passing: one writer stores `payload` nonatomic
    /// locations then an atomic flag; `readers` threads read the flag
    /// and then every payload whatever the flag said. Racy.
    Mp { payload: usize, readers: usize },
    /// Guarded message passing along a chain of `threads` threads: each
    /// hop reads the previous flag, and only if it is set reads the
    /// previous payload, writes its own, and sets its own flag.
    /// Race-free.
    MpChain { threads: usize },
    /// Independent reads of independent atomic writes: `writers` writer
    /// threads and two readers reading every location in opposite
    /// orders. Race-free.
    IriwAt { writers: usize },
    /// `threads` threads each writing only its own nonatomic location
    /// `writes` times. Race-free, and every transition commutes, so the
    /// state space is a grid and partial-order reduction keeps one trace.
    Indep { threads: usize, writes: usize },
    /// [`Family::MpChain`] with `threads` hops whose payload locations
    /// sit at seeded slots among `padding` declared nonatomic locations,
    /// so the store spans several persistent-map levels. Race-free.
    Wide { threads: usize, padding: usize },
}

/// The verdicts every request on a program must return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// `check`: operational and axiomatic outcome sets are equal.
    pub models_agree: bool,
    /// `check-global`: every sequentially consistent trace is race-free.
    pub racefree: bool,
    /// `check-races`: some explored trace races.
    pub racy: bool,
    /// `check-localdrf`: the local DRF theorem holds.
    pub holds: bool,
}

impl Family {
    /// A stable, human-readable label, e.g. `sb-at-3x2`.
    pub fn label(&self) -> String {
        match *self {
            Family::Sb { threads } => format!("sb-{threads}"),
            Family::SbAt { threads, writes } => format!("sb-at-{threads}x{writes}"),
            Family::Mp { payload, readers } => format!("mp-{payload}x{readers}"),
            Family::MpChain { threads } => format!("mp-chain-{threads}"),
            Family::IriwAt { writers } => format!("iriw-at-{writers}"),
            Family::Indep { threads, writes } => format!("indep-{threads}x{writes}"),
            Family::Wide { threads, padding } => format!("wide-{threads}of{padding}"),
        }
    }

    /// Whether some sequentially consistent trace of the family races.
    pub fn racy(&self) -> bool {
        matches!(self, Family::Sb { .. } | Family::Mp { .. })
    }

    /// The family's known answer.
    pub fn answer(&self) -> Answer {
        let racy = self.racy();
        Answer {
            models_agree: true,
            racefree: !racy,
            racy,
            holds: true,
        }
    }

    /// The family at its smallest interesting size (the shape the
    /// benchmark's own tests check exhaustively).
    pub fn smallest(&self) -> Family {
        match *self {
            Family::Sb { .. } => Family::Sb { threads: 2 },
            Family::SbAt { .. } => Family::SbAt {
                threads: 2,
                writes: 1,
            },
            Family::Mp { .. } => Family::Mp {
                payload: 1,
                readers: 1,
            },
            Family::MpChain { .. } => Family::MpChain { threads: 2 },
            Family::IriwAt { .. } => Family::IriwAt { writers: 2 },
            Family::Indep { .. } => Family::Indep {
                threads: 2,
                writes: 1,
            },
            Family::Wide { .. } => Family::Wide {
                threads: 2,
                padding: 8,
            },
        }
    }

    /// Generates the family's source text. `rng` picks the location-name
    /// tag and the stored values.
    pub fn source(&self, rng: &mut Rng) -> String {
        let tag = rng.below(100_000);
        let base = 1 + rng.below(40) as i64;
        let flag = 1 + rng.below(9) as i64;
        let mut g = Gen::default();
        match *self {
            Family::Sb { threads } => {
                g.decl("nonatomic", (0..threads).map(|i| format!("x{i}_{tag}")));
                for i in 0..threads {
                    let next = (i + 1) % threads;
                    g.thread(
                        i,
                        &[
                            format!("x{i}_{tag} = {};", base + i as i64),
                            format!("r0 = x{next}_{tag};"),
                        ],
                    );
                }
            }
            Family::SbAt { threads, writes } => {
                g.decl("atomic", (0..threads).map(|i| format!("A{i}_{tag}")));
                for i in 0..threads {
                    let next = (i + 1) % threads;
                    let mut body: Vec<String> = (0..writes)
                        .map(|w| format!("A{i}_{tag} = {};", base + w as i64))
                        .collect();
                    body.push(format!("r0 = A{next}_{tag};"));
                    g.thread(i, &body);
                }
            }
            Family::Mp { payload, readers } => {
                g.decl("nonatomic", (0..payload).map(|j| format!("d{j}_{tag}")));
                g.decl("atomic", [format!("f_{tag}")]);
                let mut writer: Vec<String> = (0..payload)
                    .map(|j| format!("d{j}_{tag} = {};", base + j as i64))
                    .collect();
                writer.push(format!("f_{tag} = {flag};"));
                g.thread(0, &writer);
                for t in 1..=readers {
                    let mut body = vec![format!("r0 = f_{tag};")];
                    body.extend((0..payload).map(|j| format!("r{} = d{j}_{tag};", j + 1)));
                    g.thread(t, &body);
                }
            }
            Family::MpChain { threads } => {
                let data: Vec<String> = (0..threads).map(|i| format!("d{i}_{tag}")).collect();
                g.decl("nonatomic", data.iter().cloned());
                g.chain(&data, tag, base, flag);
            }
            Family::Wide { threads, padding } => {
                // Distinct payload slots scattered over the padding.
                let mut slots: Vec<usize> = Vec::with_capacity(threads);
                while slots.len() < threads.min(padding) {
                    let s = rng.below(padding as u64) as usize;
                    if !slots.contains(&s) {
                        slots.push(s);
                    }
                }
                g.decl("nonatomic", (0..padding).map(|i| format!("w{i}_{tag}")));
                let data: Vec<String> = slots.iter().map(|s| format!("w{s}_{tag}")).collect();
                g.chain(&data, tag, base, flag);
            }
            Family::IriwAt { writers } => {
                g.decl("atomic", (0..writers).map(|i| format!("A{i}_{tag}")));
                for i in 0..writers {
                    g.thread(i, &[format!("A{i}_{tag} = {};", base + i as i64)]);
                }
                let forward: Vec<String> = (0..writers)
                    .map(|i| format!("r{i} = A{i}_{tag};"))
                    .collect();
                let backward: Vec<String> = (0..writers)
                    .rev()
                    .map(|i| format!("r{i} = A{i}_{tag};"))
                    .collect();
                g.thread(writers, &forward);
                g.thread(writers + 1, &backward);
            }
            Family::Indep { threads, writes } => {
                g.decl("nonatomic", (0..threads).map(|i| format!("x{i}_{tag}")));
                for i in 0..threads {
                    let body: Vec<String> = (0..writes)
                        .map(|w| format!("x{i}_{tag} = {};", base + w as i64))
                        .collect();
                    g.thread(i, &body);
                }
            }
        }
        g.out
    }
}

/// A random two-thread program in the shape of the integration suites'
/// generator: three statements per thread (the generator's longest, so
/// every program costs about the same) over nonatomic `a` and `b` and
/// atomic `F`, registers `r0` and `r1`, constants 1 and 2. Its
/// answer is not known by construction; callers derive it with an oracle.
/// `marker` is stored to `b` at the end of `P1`, so distinct markers give
/// distinct programs (and distinct cache keys) whatever the random
/// statements were.
pub fn small_program(rng: &mut Rng, marker: i64) -> String {
    let mut g = Gen::default();
    g.decl("nonatomic", ["a".to_string(), "b".to_string()]);
    g.decl("atomic", ["F".to_string()]);
    let locs = ["a", "b", "F"];
    for t in 0..2 {
        let mut body: Vec<String> = (0..3)
            .map(|_| {
                let reg = rng.below(2);
                let loc = locs[rng.below(3) as usize];
                match rng.below(3) {
                    0 => format!("r{reg} = {loc};"),
                    1 => format!("{loc} = {};", 1 + rng.below(2)),
                    _ => format!("r{reg} = r{};", rng.below(2)),
                }
            })
            .collect();
        if t == 1 {
            body.push(format!("b = {marker};"));
        }
        g.thread(t, &body);
    }
    g.out
}

#[derive(Default)]
struct Gen {
    out: String,
}

impl Gen {
    fn decl(&mut self, kind: &str, names: impl IntoIterator<Item = String>) {
        let names: Vec<String> = names.into_iter().collect();
        if !names.is_empty() {
            let _ = writeln!(self.out, "{kind} {};", names.join(" "));
        }
    }

    /// A guarded message-passing chain over the payload locations `data`
    /// (already declared): hop `i` reads flag `i - 1`, and only when it is
    /// set reads payload `i - 1`, writes payload `i` and sets flag `i`.
    fn chain(&mut self, data: &[String], tag: u64, base: i64, flag: i64) {
        let threads = data.len();
        self.decl("atomic", (0..threads - 1).map(|i| format!("f{i}_{tag}")));
        self.thread(
            0,
            &[
                format!("{} = {base};", data[0]),
                format!("f0_{tag} = {flag};"),
            ],
        );
        for i in 1..threads {
            let prev = i - 1;
            let mut guarded = vec![format!("r1 = {};", data[prev])];
            if i + 1 < threads {
                guarded.push(format!("{} = r1 + 1;", data[i]));
                guarded.push(format!("f{i}_{tag} = {flag};"));
            }
            self.thread(
                i,
                &[
                    format!("r0 = f{prev}_{tag};"),
                    format!("if (r0 == {flag}) {{ {} }}", guarded.join(" ")),
                ],
            );
        }
    }

    fn thread(&mut self, index: usize, body: &[String]) {
        let _ = writeln!(self.out, "thread P{index} {{");
        for stmt in body {
            let _ = writeln!(self.out, "  {stmt}");
        }
        self.out.push_str("}\n");
    }
}
