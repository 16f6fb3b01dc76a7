//! `roar-lint` CLI: scan the workspace, print findings, exit non-zero on
//! any violation.
//!
//! ```console
//! $ cargo run -p roar-lint                # scan the enclosing workspace
//! $ cargo run -p roar-lint -- <root>      # scan an explicit root
//! $ cargo run -p roar-lint -- --file <f> --as <virtual-path>
//! $ cargo run -p roar-lint -- --loc [<path-prefix>...]
//! ```
//!
//! `--file` lints one file in isolation; `--as` assigns the
//! workspace-relative path the rules scope by (defaults to the file path),
//! which is how the fixture suite demonstrates each violation exits
//! non-zero: the fixtures live outside the scanned tree but are checked
//! *as if* they sat on an in-scope path.
//!
//! `--loc` is a report, not a check: non-test, non-comment Rust lines per
//! crate, for `crates/cluster/src/transport`, and for every extra path
//! prefix named — the one command the line counts quoted in CHANGES.md and
//! ROADMAP.md come from. It always exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: roar-lint [<root> | --file <path> [--as <virtual-path>] | --loc [<path-prefix>...]]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--file") => {
            let Some(file) = args.get(1) else {
                return usage();
            };
            let virt = match (args.get(2).map(String::as_str), args.get(3)) {
                (Some("--as"), Some(v)) => v.clone(),
                (None, _) => file.clone(),
                _ => return usage(),
            };
            let src = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("roar-lint: {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let checked = roar_lint::SourceFile::new(virt, src);
            let findings = roar_lint::check_file(&checked);
            report(findings, 1)
        }
        Some("--loc") => match enclosing_workspace() {
            Some(root) => {
                for (what, lines) in roar_lint::loc_report(&root, &args[1..]) {
                    println!("{lines:>7}  {what}");
                }
                ExitCode::SUCCESS
            }
            None => ExitCode::FAILURE,
        },
        Some(root) => scan(PathBuf::from(root)),
        None => match enclosing_workspace() {
            Some(root) => scan(root),
            None => ExitCode::FAILURE,
        },
    }
}

/// The workspace root above the current directory; complains on stderr
/// when there is none.
fn enclosing_workspace() -> Option<PathBuf> {
    let cwd = std::env::current_dir().expect("cwd");
    let root = roar_lint::find_workspace_root(&cwd);
    if root.is_none() {
        eprintln!("roar-lint: no workspace root found above {}", cwd.display());
    }
    root
}

fn scan(root: PathBuf) -> ExitCode {
    let (findings, checked) = roar_lint::check_workspace(&root);
    report(findings, checked)
}

fn report(findings: Vec<roar_lint::Finding>, checked: usize) -> ExitCode {
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("roar-lint: {checked} file(s) clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "roar-lint: {} finding(s) across {} file(s) checked",
            findings.len(),
            checked
        );
        ExitCode::FAILURE
    }
}
