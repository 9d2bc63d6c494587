//! The three workloads: which programs are sent, with which commands,
//! and what every response must say.
//!
//! * `explore-cold` — state-heavy families, each sent once as `check`
//!   then `check-global` against an empty in-memory store. State
//!   exploration (canonicalisation, interning, the work-stealing engine)
//!   does most of the work; no trace tree is ever recorded.
//! * `races-cold` — families whose full trace trees hold 10⁴–10⁶
//!   traces, each sent as `check-races` then `check-localdrf`. Trace
//!   recording and replay do most of the work. A fixed share of programs
//!   carries a `max_traces` cap below its tree size, so recording trips
//!   its budget and the live detectors answer.
//! * `serve-warm` — corpus-size programs against a disk-backed store
//!   pre-populated during set-up, over one connection per core, with a
//!   command mix and a never-seen program every 50 ms per connection.
//!   The reactor, JSON handling, queue and store lookup do most of the
//!   work.

use std::sync::{Arc, OnceLock};

use bdrst_core::engine::EngineConfig;
use bdrst_core::localdrf::{sc_race_freedom, DrfStatus};
use bdrst_lang::Program;
use bdrst_service::Json;

use crate::families::{small_program, Answer, Family, Rng};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold `check` + `check-global` on state-heavy families.
    ExploreCold,
    /// Cold `check-races` + `check-localdrf` on trace-heavy families.
    RacesCold,
    /// Warm mixed traffic over a pre-populated disk-backed store.
    ServeWarm,
}

impl Workload {
    /// Every workload the benchmark runs (`BENCHMARK.json` gates the
    /// two cold ones).
    pub const ALL: [Workload; 3] = [
        Workload::ExploreCold,
        Workload::RacesCold,
        Workload::ServeWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore-cold",
            Workload::RacesCold => "races-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A protocol command the workloads send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmd {
    /// `parse`.
    Parse,
    /// `check`.
    Check,
    /// `check-global`.
    CheckGlobal,
    /// `check-races`.
    CheckRaces,
    /// `check-localdrf`.
    CheckLocalDrf,
}

impl Cmd {
    /// The command's name on the wire.
    pub fn wire(self) -> &'static str {
        match self {
            Cmd::Parse => "parse",
            Cmd::Check => "check",
            Cmd::CheckGlobal => "check-global",
            Cmd::CheckRaces => "check-races",
            Cmd::CheckLocalDrf => "check-localdrf",
        }
    }
}

/// What a response must say, derived from the program's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `parse`: the program's thread count.
    Parsed(usize),
    /// `check`: `models_agree`.
    ModelsAgree(bool),
    /// `check-global`: `racefree`.
    RaceFree(bool),
    /// `check-races`: `racy`.
    Racy(bool),
    /// `check-localdrf`: `holds`.
    Holds(bool),
}

/// One program the benchmark sends, with its answer.
#[derive(Debug)]
pub struct Prog {
    /// Family label or corpus name, for reports.
    pub label: String,
    /// The source text the server receives.
    pub source: String,
    answer: OnceLock<(Answer, usize)>,
}

impl Prog {
    /// A family program: the answer is known by construction.
    pub fn family(family: Family, rng: &mut Rng) -> Prog {
        let source = family.source(rng);
        let threads = source.matches("thread ").count();
        let answer = OnceLock::new();
        let _ = answer.set((family.answer(), threads));
        Prog {
            label: family.label(),
            source,
            answer,
        }
    }

    /// A program whose answer the oracle derives on first use.
    pub fn unknown(label: String, source: String) -> Prog {
        Prog {
            label,
            source,
            answer: OnceLock::new(),
        }
    }

    /// Whether the answer is already known (by construction, or derived
    /// earlier), so checking a response against it costs nothing.
    pub fn is_known(&self) -> bool {
        self.answer.get().is_some()
    }

    /// The program's answer and thread count. Programs not built from a
    /// family are checked against the *full* sequentially consistent
    /// race scan, an independent path from the server's reduced one;
    /// `models_agree` and `holds` are theorems of the model.
    ///
    /// # Errors
    ///
    /// A parse or engine failure of the oracle.
    pub fn answer(&self) -> Result<(Answer, usize), String> {
        if let Some(a) = self.answer.get() {
            return Ok(*a);
        }
        let program = Program::parse(&self.source).map_err(|e| e.to_string())?;
        let status = sc_race_freedom(
            &program.locs,
            program.initial_machine(),
            EngineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let racy = matches!(status, DrfStatus::Racy(_));
        let answer = Answer {
            models_agree: true,
            racefree: !racy,
            racy,
            holds: true,
        };
        Ok(*self.answer.get_or_init(|| (answer, program.threads.len())))
    }
}

/// One request: a command on a program, with an optional trace budget.
#[derive(Clone, Debug)]
pub struct Request {
    /// The command.
    pub cmd: Cmd,
    /// The program.
    pub prog: Arc<Prog>,
    /// A `max_traces` cap sent with the request.
    pub max_traces: Option<usize>,
}

impl Request {
    /// The request as one protocol line (without the newline).
    pub fn line(&self, id: u64) -> String {
        let mut fields = vec![
            ("id", Json::Int(id as i64)),
            ("cmd", Json::Str(self.cmd.wire().to_string())),
            ("source", Json::Str(self.prog.source.clone())),
        ];
        if let Some(cap) = self.max_traces {
            fields.push(("max_traces", Json::Int(cap as i64)));
        }
        Json::obj(fields).render()
    }

    /// The verdict every correct response carries.
    ///
    /// # Errors
    ///
    /// As [`Prog::answer`].
    pub fn expected(&self) -> Result<Verdict, String> {
        let (a, threads) = self.prog.answer()?;
        Ok(match self.cmd {
            Cmd::Parse => Verdict::Parsed(threads),
            Cmd::Check => Verdict::ModelsAgree(a.models_agree),
            Cmd::CheckGlobal => Verdict::RaceFree(a.racefree),
            Cmd::CheckRaces => Verdict::Racy(a.racy),
            Cmd::CheckLocalDrf => Verdict::Holds(a.holds),
        })
    }
}

/// Reads the verdict out of a response line.
///
/// # Errors
///
/// An error response, a malformed line, or a missing field.
pub fn verdict_of(cmd: Cmd, line: &str) -> Result<Verdict, String> {
    let json = Json::parse(line).map_err(|e| format!("bad response: {e}"))?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error response: {line}"));
    }
    let flag = |key: &str| {
        json.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("response lacks `{key}`: {line}"))
    };
    Ok(match cmd {
        Cmd::Parse => Verdict::Parsed(
            json.get("threads")
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("response lacks `threads`: {line}"))? as usize,
        ),
        Cmd::Check => Verdict::ModelsAgree(flag("models_agree")?),
        Cmd::CheckGlobal => Verdict::RaceFree(flag("racefree")?),
        Cmd::CheckRaces => Verdict::Racy(flag("racy")?),
        Cmd::CheckLocalDrf => Verdict::Holds(flag("holds")?),
    })
}

/// One program slot of a cold workload's cycle.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// The family and size.
    pub family: Family,
    /// The commands sent on the program, in order.
    pub cmds: &'static [Cmd],
    /// The `max_traces` cap sent with every request, if any.
    pub cap: Option<usize>,
}

const EXPLORE: &[Cmd] = &[Cmd::Check, Cmd::CheckGlobal];
const RACES: &[Cmd] = &[Cmd::CheckRaces, Cmd::CheckLocalDrf];

const fn slot(family: Family, cmds: &'static [Cmd]) -> Slot {
    Slot {
        family,
        cmds,
        cap: None,
    }
}

/// `explore-cold`'s cycle: 10³–10⁴ canonical states per program, no
/// trace recording. The `sb-at` slots with several writes per thread put
/// the axiomatic enumerator in the latency tail. One slot is sent only
/// as `check-global`, which then explores, enumerates and runs the
/// reduced race scan in one request; it also makes the cycle's request
/// count odd, so the median falls inside one family's samples rather
/// than between two.
pub const EXPLORE_CYCLE: [Slot; 8] = [
    slot(Family::MpChain { threads: 6 }, EXPLORE),
    slot(
        Family::SbAt {
            threads: 6,
            writes: 1,
        },
        EXPLORE,
    ),
    slot(Family::IriwAt { writers: 4 }, EXPLORE),
    slot(
        Family::Indep {
            threads: 7,
            writes: 2,
        },
        EXPLORE,
    ),
    slot(
        Family::Wide {
            threads: 6,
            padding: 64,
        },
        EXPLORE,
    ),
    slot(Family::MpChain { threads: 7 }, EXPLORE),
    slot(
        Family::SbAt {
            threads: 4,
            writes: 2,
        },
        &[Cmd::CheckGlobal],
    ),
    slot(
        Family::SbAt {
            threads: 3,
            writes: 3,
        },
        EXPLORE,
    ),
];

/// `races-cold`'s cycle: full trace trees of 10⁴–10⁶ traces. The capped
/// slots' caps sit below the full tree (recording trips) but above the
/// live detectors' filtered walks (the fallback completes). One slot is
/// sent only as `check-localdrf`, which then records and replays in one
/// request, and makes the cycle's request count odd.
pub const RACES_CYCLE: [Slot; 8] = [
    slot(Family::Sb { threads: 4 }, RACES),
    slot(
        Family::Mp {
            payload: 2,
            readers: 2,
        },
        RACES,
    ),
    slot(Family::MpChain { threads: 4 }, RACES),
    slot(
        Family::SbAt {
            threads: 5,
            writes: 1,
        },
        RACES,
    ),
    Slot {
        family: Family::Sb { threads: 4 },
        cmds: RACES,
        cap: Some(12_000),
    },
    slot(Family::MpChain { threads: 5 }, RACES),
    Slot {
        family: Family::Mp {
            payload: 2,
            readers: 2,
        },
        cmds: RACES,
        cap: Some(10_000),
    },
    slot(
        Family::SbAt {
            threads: 4,
            writes: 1,
        },
        &[Cmd::CheckLocalDrf],
    ),
];

/// The requests of one cold-workload program: generated from the seed,
/// the cycle number and the slot, so every run with the same seed sends
/// byte-identical sources.
fn cold_group(workload: Workload, seed: u64, cycle: u64, slot_index: usize) -> Vec<Request> {
    let slots: &[Slot] = match workload {
        Workload::ExploreCold => &EXPLORE_CYCLE,
        Workload::RacesCold => &RACES_CYCLE,
        Workload::ServeWarm => panic!("serve-warm has no cold cycle"),
    };
    let s = slots[slot_index];
    let mut rng = Rng::new(mix(seed, cycle * 64 + slot_index as u64));
    let prog = Arc::new(Prog::family(s.family, &mut rng));
    s.cmds
        .iter()
        .map(|&cmd| Request {
            cmd,
            prog: Arc::clone(&prog),
            max_traces: s.cap,
        })
        .collect()
}

/// The requests of one cycle of a cold workload, program by program.
pub fn cold_cycle(workload: Workload, seed: u64, cycle: u64) -> Vec<Vec<Request>> {
    let slots = match workload {
        Workload::ExploreCold => EXPLORE_CYCLE.len(),
        Workload::RacesCold => RACES_CYCLE.len(),
        Workload::ServeWarm => 0,
    };
    (0..slots)
        .map(|slot| cold_group(workload, seed, cycle, slot))
        .collect()
}

/// Cycles of a cold workload generated during set-up. A run that gets
/// further generates the rest as it sends them, identically: a program
/// depends only on the seed, the cycle and the slot.
pub const PREGEN_CYCLES: u64 = 64;

/// A cold workload's inputs.
pub struct ColdPlan {
    workload: Workload,
    seed: u64,
    cycles: Vec<Vec<Vec<Request>>>,
}

impl ColdPlan {
    /// Generates the first [`PREGEN_CYCLES`] cycles.
    pub fn new(workload: Workload, seed: u64) -> ColdPlan {
        ColdPlan {
            workload,
            seed,
            cycles: (0..PREGEN_CYCLES)
                .map(|c| cold_cycle(workload, seed, c))
                .collect(),
        }
    }

    /// The requests of cycle `cycle`, program by program.
    pub fn cycle(&self, cycle: u64) -> Vec<Vec<Request>> {
        match self.cycles.get(cycle as usize) {
            Some(c) => c.clone(),
            None => cold_cycle(self.workload, self.seed, cycle),
        }
    }
}

/// Seeded small programs in `serve-warm`'s pool, beside the built-in
/// corpus.
pub const WARM_SMALL: usize = 40;

/// Each `serve-warm` connection sends a never-seen program at most once
/// per this many seconds: 40 misses a second over two connections, about
/// one request in 250 at a two-core host's 10⁴ requests per second.
/// Scheduling misses by time rather than by count keeps the number of
/// entries the store gains in a run, and so the process's memory and
/// disk writes, the same whatever the throughput. One miss in fifty
/// requests wrote (and then deleted) about 180 MB of entries per run,
/// and the disk work stalled later runs.
pub const WARM_FRESH_INTERVAL_S: f64 = 0.05;

/// `serve-warm`'s command mix, as (command, weight).
pub const WARM_MIX: [(Cmd, u64); 5] = [
    (Cmd::Parse, 20),
    (Cmd::Check, 25),
    (Cmd::CheckGlobal, 20),
    (Cmd::CheckRaces, 20),
    (Cmd::CheckLocalDrf, 15),
];

/// A small program whose statements depend only on `shape` and whose
/// stored marker depends on the seed: every seed gets programs of the
/// same cost that are still new to the store.
fn small(label: String, shape: u64, marker: i64) -> Arc<Prog> {
    let source = small_program(&mut Rng::new(mix(0, shape)), marker);
    Arc::new(Prog::unknown(label, source))
}

/// `serve-warm`'s pre-populated pool: the built-in corpus (the programs
/// of `corpus/`) plus seeded small programs.
pub fn warm_pool(seed: u64) -> Vec<Arc<Prog>> {
    let mut pool: Vec<Arc<Prog>> = bdrst_litmus::all_tests()
        .into_iter()
        .map(|t| Arc::new(Prog::unknown(t.name.to_string(), t.source.to_string())))
        .collect();
    let base = 10_000 + 100 * (seed % 10_000) as i64;
    for i in 0..WARM_SMALL {
        pool.push(small(format!("small-{i}"), i as u64, base + i as i64));
    }
    pool
}

/// One `serve-warm` connection's request stream: pool programs under the
/// command mix, and a never-seen program whenever one is due.
pub struct WarmStream {
    pool: Arc<Vec<Arc<Prog>>>,
    rng: Rng,
    seed: u64,
    conn: u64,
    fresh: u64,
    next_fresh_s: f64,
}

impl WarmStream {
    /// The stream of connection `conn`.
    pub fn new(pool: Arc<Vec<Arc<Prog>>>, seed: u64, conn: u64) -> WarmStream {
        WarmStream {
            pool,
            rng: Rng::new(mix(seed, 1 << 32 | conn)),
            seed,
            conn,
            fresh: 0,
            next_fresh_s: WARM_FRESH_INTERVAL_S,
        }
    }

    /// The next request, `now_s` seconds into the phase.
    pub fn next_request(&mut self, now_s: f64) -> Request {
        let total: u64 = WARM_MIX.iter().map(|(_, w)| w).sum();
        let mut pick = self.rng.below(total);
        let mut cmd = WARM_MIX[0].0;
        for (c, w) in WARM_MIX {
            if pick < w {
                cmd = c;
                break;
            }
            pick -= w;
        }
        let prog = if now_s >= self.next_fresh_s {
            self.next_fresh_s = now_s + WARM_FRESH_INTERVAL_S;
            self.fresh += 1;
            // Markers are unique per (connection, miss) and disjoint from
            // the pool's, so the program is never-seen by construction.
            let marker = 1_000_000_000 * (self.conn as i64 + 1)
                + 1_000_000 * (self.seed % 1000) as i64
                + self.fresh as i64;
            small(
                format!("fresh-{}-{}", self.conn, self.fresh),
                (self.conn + 1) << 32 | self.fresh,
                marker,
            )
        } else {
            let i = self.rng.below(self.pool.len() as u64) as usize;
            Arc::clone(&self.pool[i])
        };
        Request {
            cmd,
            prog,
            max_traces: None,
        }
    }
}

/// Derives an independent stream seed from the run seed and a stream id.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64()
}
