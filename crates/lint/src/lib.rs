//! # roar-lint — workspace static analysis for repo invariants
//!
//! PR 7 and PR 8 moved the hot path onto hand-rolled concurrency: an epoll
//! reactor with an `AtomicU8` task state machine and raw libc FFI, a
//! Mutex/Condvar batch-engine admission queue, and SIMD intrinsics across
//! four SHA-1 backends. The disciplines that keep that sound — `SAFETY:`
//! comments, ordering justifications, the fixed thread budget, determinism
//! of the reconciler, no-panic request paths — were enforced by review
//! alone. This crate makes them machine-checked: a hand-rolled token-level
//! lexer (same no-crates.io discipline as the JSON parser behind
//! `repro check_bench_schema`) plus a rule engine over every workspace
//! `.rs` file.
//!
//! Run it with `cargo run -p roar-lint`; CI runs it as a required gate.
//! The rule catalog lives in `crates/lint/README.md`.

pub mod lexer;
pub mod rules;

pub use rules::{check_file, code_lines, Finding, SourceFile};

use std::path::{Path, PathBuf};

/// Directories (workspace-relative) that are scanned for `.rs` files.
const SCAN_ROOTS: &[&str] = &["src", "tests", "examples", "crates"];

/// Path prefixes never scanned: build output and the lint fixtures (which
/// exist to violate the rules).
const SKIP_PREFIXES: &[&str] = &["target", "crates/lint/tests/fixtures"];

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn collect_rs_files(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) {
    let abs = root.join(rel);
    let Ok(entries) = std::fs::read_dir(&abs) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let rel = rel.join(entry.file_name());
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if SKIP_PREFIXES.iter().any(|p| rel_str.starts_with(p)) {
            continue;
        }
        let Ok(ft) = entry.file_type() else { continue };
        if ft.is_dir() {
            collect_rs_files(root, &rel, out);
        } else if rel_str.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// Every scanned `.rs` file under `root`, lexed, in path order.
fn workspace_files(root: &Path) -> Vec<SourceFile> {
    let mut rel_paths = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(root, Path::new(scan), &mut rel_paths);
    }
    rel_paths
        .iter()
        .filter_map(|rel| {
            let src = std::fs::read_to_string(root.join(rel)).ok()?;
            Some(SourceFile::new(
                rel.to_string_lossy().replace('\\', "/"),
                src,
            ))
        })
        .collect()
}

/// Scan the whole workspace under `root`. Returns all findings plus the
/// number of files checked.
pub fn check_workspace(root: &Path) -> (Vec<Finding>, usize) {
    let files = workspace_files(root);
    let mut findings: Vec<Finding> = files.iter().flat_map(check_file).collect();
    findings.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    (findings, files.len())
}

/// Path prefixes `--loc` always reports beside the per-crate rows.
const LOC_PREFIXES: &[&str] = &["crates/cluster/src/transport"];

/// The `--loc` report: non-test, non-comment Rust lines ([`code_lines`])
/// under every crate's `src/` (one row per crate, keyed by the crate
/// directory; `tests/`, `benches/` and `examples/` are test code and never
/// count), then one row per path prefix in `LOC_PREFIXES` and `extra`,
/// then the total over all crates. A report, not a rule: nothing here can
/// fail the lint.
pub fn loc_report(root: &Path, extra: &[String]) -> Vec<(String, usize)> {
    let counted: Vec<(String, usize)> = workspace_files(root)
        .iter()
        .filter(|f| f.path.starts_with("src/") || f.path.contains("/src/"))
        .map(|f| (f.path.clone(), code_lines(f)))
        .collect();
    let mut per_crate = std::collections::BTreeMap::<String, usize>::new();
    for (path, n) in &counted {
        let krate = match path.find("/src/") {
            Some(at) => &path[..at],
            None => "(root crate)",
        };
        *per_crate.entry(krate.to_string()).or_default() += n;
    }
    let total = per_crate.values().sum();
    let mut rows: Vec<(String, usize)> = per_crate.into_iter().collect();
    for prefix in LOC_PREFIXES
        .iter()
        .copied()
        .chain(extra.iter().map(String::as_str))
    {
        let n = counted
            .iter()
            .filter(|(path, _)| path.starts_with(prefix))
            .map(|(_, n)| n)
            .sum();
        rows.push((prefix.to_string(), n));
    }
    rows.push(("total (all crates)".to_string(), total));
    rows
}
