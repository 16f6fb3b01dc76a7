//! Fixture tests for the roar-lint rule engine.
//!
//! Each fixture under `tests/fixtures/` violates exactly one rule; the
//! harness lexes it under an in-scope *virtual* path (the rules scope
//! themselves by path) and asserts the engine reports the exact findings —
//! rule, line, and column, no more and no fewer. The fixtures directory is
//! excluded from workspace scans (`SKIP_PREFIXES` in the lint crate): the
//! files exist to be caught here, not by `cargo run -p roar-lint`.

use roar_lint::{check_file, Finding, SourceFile};
use std::collections::HashMap;
use std::path::Path;

fn fixture(name: &str, virtual_path: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    SourceFile::new(virtual_path, src)
}

fn spans(findings: &[Finding]) -> Vec<(&'static str, u32, u32)> {
    findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
}

#[test]
fn unsafe_without_safety_comment_is_reported() {
    let file = fixture("unsafe_missing_safety.rs", "crates/core/src/fixture.rs");
    let findings = check_file(&file);
    assert_eq!(
        spans(&findings),
        vec![
            ("unsafe-needs-safety", 9, 5),  // bare unsafe block
            ("unsafe-needs-safety", 13, 5), // unsafe fn with only a doc comment
        ]
    );
}

#[test]
fn ordering_without_comment_is_reported() {
    let file = fixture("ordering_missing.rs", "crates/cluster/src/fixture.rs");
    let findings = check_file(&file);
    // the justified fetch_add, the cmp::Ordering return type, and the
    // #[cfg(test)] store are all exempt; only the bare load remains
    assert_eq!(spans(&findings), vec![("ordering-needs-comment", 9, 12)]);
    assert!(findings[0].message.contains("Ordering::Acquire"));
}

#[test]
fn thread_spawn_outside_shims_is_reported() {
    let file = fixture("thread_spawn.rs", "crates/cluster/src/fixture.rs");
    let findings = check_file(&file);
    // thread::Builder and the #[cfg(test)] spawn are exempt
    assert_eq!(spans(&findings), vec![("no-thread-spawn", 5, 10)]);
}

#[test]
fn wall_clock_in_reconcile_is_reported() {
    let file = fixture("wall_clock_reconcile.rs", "crates/cluster/src/reconcile.rs");
    let findings = check_file(&file);
    assert_eq!(
        spans(&findings),
        vec![
            ("no-wall-clock-in-reconcile", 5, 26),  // SystemTime in the use
            ("no-wall-clock-in-reconcile", 8, 19),  // Instant::now()
            ("no-wall-clock-in-reconcile", 10, 11), // SystemTime::now()
        ]
    );
}

#[test]
fn wall_clock_rule_is_scoped_to_reconcile() {
    // the same source under any other path is outside the rule's scope
    let file = fixture("wall_clock_reconcile.rs", "crates/cluster/src/frontend.rs");
    assert!(check_file(&file).is_empty());
}

#[test]
fn unwrap_in_request_path_reports_every_site() {
    let file = fixture(
        "unwrap_request_path.rs",
        "crates/cluster/src/transport/fixture.rs",
    );
    let findings = check_file(&file);
    // both sites reported; unwrap_or and the test unwrap are not
    assert_eq!(
        spans(&findings),
        vec![
            ("no-unwrap-in-request-path", 6, 7),
            ("no-unwrap-in-request-path", 10, 7),
        ]
    );
}

#[test]
fn unwrap_rule_is_scoped_to_request_paths() {
    let file = fixture("unwrap_request_path.rs", "crates/cluster/src/frontend.rs");
    assert!(check_file(&file).is_empty());
}

#[test]
fn json_by_hand_in_the_bench_crate_is_reported() {
    let file = fixture("json_by_hand.rs", "crates/bench/src/fixture.rs");
    let findings = check_file(&file);
    // the literal push_str, the plain-text format! and the test are exempt
    assert_eq!(
        spans(&findings),
        vec![
            ("no-json-by-hand", 8, 7),   // push_str(&format!(
            ("no-json-by-hand", 9, 17),  // format!("{{
            ("no-json-by-hand", 10, 15), // format!(r#"{{
        ]
    );
    assert!(findings[0].message.contains("roar_util::Json"));
    // the same source anywhere else (e.g. the benchmark/ report writer's
    // neighbours, a text table in util) is outside the rule's scope
    let file = fixture("json_by_hand.rs", "crates/util/src/report.rs");
    assert!(check_file(&file).is_empty());
}

#[test]
fn shims_are_exempt_from_ordering_and_spawn_rules() {
    let src = "pub fn park(s: &AtomicU8) {\n    s.store(1, Ordering::SeqCst);\n    \
               std::thread::spawn(|| {});\n}\n";
    let file = SourceFile::new("crates/shims/tokio/src/reactor.rs", src);
    assert!(check_file(&file).is_empty());
}

#[test]
fn loom_model_threads_are_exempt_from_the_spawn_rule() {
    let src = "pub fn model_body() {\n    let h = loom::thread::spawn(|| {});\n    h.join();\n}\n";
    let file = SourceFile::new("crates/cluster/tests/loom_fixture.rs", src);
    assert!(check_file(&file).is_empty());
}

#[test]
fn trailing_comment_on_the_same_line_justifies() {
    let src = "pub fn publish(s: &AtomicU8) {\n    \
               s.store(1, Ordering::Release); // ORDERING: Release — publishes init\n}\n";
    let file = SourceFile::new("crates/cluster/src/fixture.rs", src);
    assert!(check_file(&file).is_empty());
}

#[test]
fn strings_and_comments_cannot_fool_the_rules() {
    let src = "// unsafe { } in a comment is not code\n\
               pub fn log() {\n    \
               let _ = \"unsafe { Ordering::SeqCst }; std::thread::spawn; x.unwrap()\";\n}\n";
    let file = SourceFile::new("crates/cluster/src/transport/fixture.rs", src);
    assert!(check_file(&file).is_empty());
}

#[test]
fn loc_counts_code_lines_outside_tests_and_comments() {
    let src = "//! module doc\n\
               \n\
               /// doc comment\n\
               pub fn f() -> u32 { // trailing comment: still a code line\n    \
               /* block\n       comment */\n    \
               let s = \"two\n    lines\";\n    \
               1\n\
               }\n\
               \n\
               #[cfg(test)]\n\
               mod tests {\n    \
               #[test]\n    \
               fn t() {}\n\
               }\n";
    // `pub fn`, the two lines the string literal spans, `1`, `}`
    assert_eq!(roar_lint::code_lines(&SourceFile::new("x.rs", src)), 5);
}

#[test]
fn loc_report_rows_add_up() {
    let root = roar_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let extra = ["crates/lint/src/lexer.rs".to_string()];
    let rows: HashMap<String, usize> = roar_lint::loc_report(&root, &extra).into_iter().collect();
    // per-crate rows are keyed by the crate directory: no `/src` in them
    let crates: usize = rows
        .iter()
        .filter(|(k, _)| !k.contains("/src") && !k.starts_with("total"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(crates, rows["total (all crates)"]);
    assert!(rows["crates/cluster/src/transport"] < rows["crates/cluster"]);
    assert!(rows["crates/lint/src/lexer.rs"] > 100);
    assert!(rows["crates/lint/src/lexer.rs"] < rows["crates/lint"]);
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = roar_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let (findings, checked) = roar_lint::check_workspace(&root);
    let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "the workspace must stay lint-clean:\n{}",
        report.join("\n")
    );
    assert!(checked >= 100, "suspiciously few files scanned: {checked}");
}
