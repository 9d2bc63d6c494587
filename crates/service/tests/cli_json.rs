//! The CLI's `check --json` and `races --json` entries against the
//! server's responses: the built binary runs each command over the whole
//! `corpus/`, and every entry must carry exactly the fields `handle_line`
//! answers for the same source — apart from the entry's `file` or
//! `name` and the response's `id` and `ok` — so the two surfaces render
//! through one function per command and cannot drift.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use bdrst_service::json::Json;
use bdrst_service::server::{self, handle_line};
use bdrst_service::service::CheckService;
use bdrst_service::store::ResultStore;

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no corpus files");
    files
}

/// `fields` without the named keys.
fn without(json: &Json, keys: &[&str]) -> Vec<(String, Json)> {
    let Json::Obj(fields) = json else {
        panic!("not an object: {}", json.render());
    };
    fields
        .iter()
        .filter(|(k, _)| !keys.contains(&k.as_str()))
        .cloned()
        .collect()
}

/// Runs `bdrst <cmd> --json` over the corpus and compares the entries
/// under `list` with the server's `request` responses, in file order
/// through one in-process service, as the CLI checks them.
fn cli_matches_server(cmd: &str, list: &str, request: &str, label: &str) {
    let files = corpus_files();
    let out = Command::new(env!("CARGO_BIN_EXE_bdrst"))
        .arg(cmd)
        .arg("--json")
        .args(&files)
        .output()
        .unwrap();
    assert_ne!(out.status.code(), Some(2), "{cmd} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let cli = Json::parse(stdout.trim()).unwrap();
    let entries = cli.get(list).and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), files.len(), "one entry per file");

    let service = CheckService::new(
        Arc::new(ResultStore::in_memory()),
        server::default_run_config(),
    );
    for (path, entry) in files.iter().zip(entries) {
        let source = std::fs::read_to_string(path).unwrap();
        let line = Json::obj([
            ("cmd", Json::Str(request.into())),
            ("source", Json::Str(source)),
        ])
        .render();
        let response = handle_line(&service, &line);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}: {}",
            path.display(),
            response.render()
        );
        assert_eq!(
            without(entry, &[label]),
            without(&response, &["id", "ok"]),
            "{}: `{cmd} --json` and `{request}` disagree",
            path.display()
        );
    }
}

#[test]
fn check_json_entries_match_the_check_response() {
    cli_matches_server("check", "checks", "check", "file");
}

#[test]
fn races_json_entries_match_the_check_races_response() {
    cli_matches_server("races", "races", "check-races", "name");
}
