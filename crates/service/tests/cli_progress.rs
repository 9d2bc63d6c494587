//! `bdrst races FILE --progress` against the built binary: the work-unit
//! lines on stderr grow, and the last one counts at least the DPOR
//! extensions `bdrst check` reports for the file plus the rows of its
//! trace recording, so the recording is metered too.

use std::process::Command;

use bdrst_core::engine::TraceEngine;
use bdrst_lang::Program;
use bdrst_service::server;

/// Five threads writing five private locations each: one DPOR trace of
/// 25 extensions, and a recording of 6^5 rows, more than one 4096-unit
/// progress interval.
fn private_writes() -> String {
    let mut src = String::new();
    for t in 0..5 {
        src += &format!("nonatomic x{t}; ");
    }
    for t in 0..5 {
        src += &format!("thread P{t} {{ ");
        for v in 1..=5 {
            src += &format!("x{t} = {v}; ");
        }
        src += "} ";
    }
    src
}

fn bdrst(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bdrst"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn progress_counts_the_recording() {
    let source = private_writes();
    let path = std::env::temp_dir().join(format!("bdrst-progress-{}.litmus", std::process::id()));
    std::fs::write(&path, &source).unwrap();
    let file = path.to_str().unwrap();

    let check = bdrst(&["check", file]);
    assert_eq!(check.status.code(), Some(0), "{check:?}");
    let stdout = String::from_utf8(check.stdout).unwrap();
    let extensions: u64 = stdout
        .split(": ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no DPOR extension count in {stdout:?}"));

    let program = Program::parse(&source).unwrap();
    let (graph, _) = TraceEngine::new(server::default_run_config().explore)
        .record(&program.locs, program.initial_machine())
        .unwrap();
    assert!(graph.rows() > 4096, "{} rows", graph.rows());

    let races = bdrst(&["races", file, "--progress"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(races.status.code(), Some(0), "{races:?}");
    let stderr = String::from_utf8(races.stderr).unwrap();
    let counts: Vec<u64> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("progress: "))
        .map(|l| {
            l.split(' ')
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("odd progress line {l:?}"))
        })
        .collect();
    assert!(counts.len() >= 2, "{stderr}");
    assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
    let last = *counts.last().unwrap();
    assert!(
        last >= extensions + graph.rows() as u64,
        "{last} < {extensions} DPOR extensions + {} rows",
        graph.rows()
    );
}
