//! Running the benchmark as child processes: all four workloads in one
//! go, and the A/A harness that runs the same code against itself.
//!
//! Every run is its own process, so `peak_rss_mb` is that run's own
//! high-water mark and nothing warm carries over between runs.

use crate::report::END_TO_END;
use crate::stats::{iqr_share, quartiles};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// What a child run reported, parsed from its `e2e` / `layer` / `inputs`
/// lines.
#[derive(Debug, Default)]
pub struct ChildReport {
    pub metrics: BTreeMap<String, f64>,
    /// `inputs_fnv64` and `prf_calls_per_record` as printed: both must be
    /// identical wherever the seed is.
    pub inputs: String,
    pub fingerprint: String,
    pub ok: bool,
}

/// Run one workload in a child process, echoing its output.
pub fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool, echo: bool) -> ChildReport {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn benchmark run");
    let mut report = ChildReport::default();
    let stdout = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if echo {
            println!("{line}");
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("e2e" | "layer") => {
                if let (Some(name), Some(Ok(value))) = (words.next(), words.next().map(str::parse))
                {
                    report.metrics.insert(name.to_string(), value);
                }
            }
            Some("inputs") => report.inputs = line.clone(),
            Some("fingerprint") => report.fingerprint = line.clone(),
            _ => {}
        }
    }
    // the child has closed stdout; wait until it has ended
    report.ok = child.wait().is_ok_and(|status| status.success());
    report
}

/// Every workload once, traced or not; non-zero if any run failed.
pub fn run_all(seed: u64, seconds: f64, trace: bool) -> i32 {
    let mut code = 0;
    for w in WORKLOADS {
        if !run_child(w.name, seed, seconds, trace, true).ok {
            code = 1;
        }
    }
    code
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// A/A: `sets` sets of `runs` runs of the same code, alternated run by
/// run; run `i` of every set uses seed `seed + i`, so the sets receive
/// identical inputs. Every later set is compared with the first: per
/// workload × metric a pair is `OUT` when the later median is worse by
/// more than the metric's bound, and `unresolved` when a set's quartile
/// spread is wider than the bound (a difference of that size could not be
/// told from noise). Prints a Markdown report; non-zero on any `OUT`.
pub fn aa(sets: usize, runs: usize, seed: u64, seconds: f64) -> i32 {
    assert!(
        sets >= 2 && runs >= 2,
        "A/A needs at least 2 sets of 2 runs"
    );
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut inputs: BTreeMap<(&str, usize), String> = BTreeMap::new();
    let mut fingerprint = String::new();
    let mut failures = Vec::new();
    for run in 0..runs {
        for set in 0..sets {
            for w in WORKLOADS {
                let run_seed = seed + run as u64;
                eprintln!("aa: set {set} run {run} {} seed {run_seed}", w.name);
                let report = run_child(w.name, run_seed, seconds, false, false);
                if !report.ok {
                    failures.push(format!("{} set {set} run {run}: run failed", w.name));
                }
                let first = inputs
                    .entry((w.name, run))
                    .or_insert_with(|| report.inputs.clone());
                if *first != report.inputs {
                    failures.push(format!(
                        "{} run {run}: inputs differ between sets ({first} vs {})",
                        w.name, report.inputs
                    ));
                }
                if fingerprint.is_empty() {
                    fingerprint = report.fingerprint;
                }
                for (name, ..) in END_TO_END {
                    let per_set = values
                        .entry((w.name, name))
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(report.metrics.get(name).copied().unwrap_or(0.0));
                }
            }
        }
    }

    println!("# A/A: the same code against itself\n");
    println!(
        "`roar-benchmark aa --sets {sets} --runs {runs} --seed {seed} --seconds {seconds}` — sets alternate run by run; \
         run *i* of every set uses seed {seed} + *i*.\n"
    );
    println!("`{fingerprint}`\n");
    println!(
        "Per workload and metric: the median and quartiles (Python's `statistics.quantiles(values, n=4)`) of the first \
         set (A) and of each later set, each set's spread (Q3 − Q1 as a share of its median), and by how much the later \
         set's median is worse than A's. `OUT`: worse by more than the bound. `unresolved`: a spread wider than the \
         bound (`setup_s` excepted, whose spread the acceptance check does not judge).\n"
    );
    println!("| workload | metric | median A | Q1..Q3 A | spread A | set | median | Q1..Q3 | spread | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut widest: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut unresolved = 0;
    for w in WORKLOADS {
        for (name, _unit, higher, bound) in END_TO_END {
            let per_set = &values[&(w.name, name)];
            let a = &per_set[0];
            let qa = quartiles(a);
            for (set, b) in per_set.iter().enumerate().skip(1) {
                let qb = quartiles(b);
                let spread = iqr_share(a).max(iqr_share(b));
                let diff = worse_by(qa[1], qb[1], higher);
                let verdict = if diff > bound {
                    failures.push(format!(
                        "{} {name}: set {set} worse by {diff:.4}, bound {bound}",
                        w.name
                    ));
                    "OUT"
                } else if name != "setup_s" && spread > bound {
                    unresolved += 1;
                    "unresolved"
                } else {
                    "ok"
                };
                let e = widest.entry(name).or_default();
                *e = (e.0.max(spread), e.1.max(diff.abs()));
                println!(
                    "| {} | {name} | {:.4} | {:.4}..{:.4} | {:.2} % | {} | {:.4} | {:.4}..{:.4} | {:.2} % | {:+.2} % | {:.0} % | {verdict} |",
                    w.name,
                    qa[1], qa[0], qa[2], iqr_share(a) * 100.0,
                    (b'A' + set as u8) as char,
                    qb[1], qb[0], qb[2], iqr_share(b) * 100.0,
                    diff * 100.0,
                    bound * 100.0,
                );
            }
        }
    }
    println!("\nEvery run made, in the order run (for each seed, one run of every set):\n");
    for w in WORKLOADS {
        let header: Vec<String> = (0..runs)
            .map(|r| format!("seed {}", seed + r as u64))
            .collect();
        println!("| {} | {} |", w.name, header.join(" | "));
        println!("|---|{}", "---|".repeat(runs));
        for (name, ..) in END_TO_END {
            let per_set = &values[&(w.name, name)];
            let cells: Vec<String> = (0..runs)
                .map(|r| {
                    let of_sets: Vec<String> =
                        per_set.iter().map(|s| format!("{:.4}", s[r])).collect();
                    of_sets.join(" / ")
                })
                .collect();
            println!("| {name} | {} |", cells.join(" | "));
        }
        println!();
    }
    println!("| metric | widest spread | largest difference | bound |");
    println!("|---|---|---|---|");
    for (name, _, _, bound) in END_TO_END {
        let (spread, diff) = widest[name];
        println!(
            "| {name} | {:.2} % | {:.2} % | {:.0} % |",
            spread * 100.0,
            diff * 100.0,
            bound * 100.0
        );
    }
    println!(
        "\n`inputs_fnv64` and `pps.prf_calls_per_record` of run *i* were {} across sets ({} workload × seed pairs).",
        if failures.iter().any(|f| f.contains("inputs differ")) { "NOT identical" } else { "identical" },
        inputs.len()
    );
    if failures.is_empty() {
        println!(
            "\nEvery workload × metric pair is inside its bound; {unresolved} have a spread wider than the bound."
        );
        0
    } else {
        println!("\nOut of bounds:\n");
        for f in &failures {
            println!("- {f}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, false), 0.0);
    }
}
