//! `repro pair` — a paired comparison of two builds of the stand-alone
//! benchmark (`benchmark/`, binary `roar-benchmark`) on one workload.
//!
//! ```text
//! repro pair <parent-bin> <change-bin> --workload W [--seeds 13..22] [--seconds 24] [--out DIR]
//! ```
//!
//! For every seed (`a..b` is inclusive; a single number is one seed) both
//! binaries run once, untraced, one after the other: the parent first on
//! even seeds, the change first on odd ones, so a drift of the machine's
//! speed over the session does not favour one side. Every run's whole
//! stdout is kept as `DIR/<W>-seed<N>-<parent|change>.txt` (default `DIR`:
//! `results/pair-<W>`).
//!
//! Each run's last line is the benchmark's result object, read with
//! [`Json::parse`]. For every `end_to_end` metric `BENCHMARK.json` (in the
//! working directory, read only) declares, the report prints the parent's
//! median and quartiles, the change's, the ratio of the medians, and in
//! how many of the pairs the change came out better in the metric's
//! direction. A metric is `unresolved` when the parent's inter-quartile
//! range is at least the difference of the medians, and `beyond bound`
//! when the change is worse than the parent by more than the declared
//! bound.
//!
//! The process exits non-zero when any run failed an operation or was not
//! `correct`, or when the two runs of one seed disagree on `inputs_fnv64`
//! or `prf_calls_per_record` (the benchmark's `inputs` line: counts that
//! must repeat exactly for one seed, on any commit).

use roar_util::{percentile, Json, Table};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What one side of one pair reported.
struct Run {
    correct: bool,
    failed: f64,
    /// The `inputs` line's values: `inputs_fnv64`, `prf_calls_per_record`.
    inputs: String,
    metrics: Json,
}

/// One `end_to_end` entry of `BENCHMARK.json`.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Opts {
    bins: [String; 2],
    workload: String,
    seeds: Vec<u64>,
    seconds: String,
    out: PathBuf,
}

const SIDES: [&str; 2] = ["parent", "change"];

/// Parse `repro pair`'s arguments (everything after `pair`).
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut bins = Vec::new();
    let (mut workload, mut seeds, mut seconds, mut out) = (None, "13..22", "24", None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seeds" => seeds = value()?,
            "--seconds" => seconds = value()?,
            "--out" => out = Some(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            bin => bins.push(bin.to_string()),
        }
    }
    let [parent, change]: [String; 2] = bins
        .try_into()
        .map_err(|_| "give the parent and the change binary".to_string())?;
    let workload = workload.ok_or("--workload is required")?.to_string();
    let seed = |s: &str| s.parse::<u64>().map_err(|_| format!("bad seed {s:?}"));
    let seeds = match seeds.split_once("..") {
        Some((a, b)) => (seed(a)?..=seed(b)?).collect(),
        None => vec![seed(seeds)?],
    };
    if seeds.is_empty() {
        return Err("--seeds names no seed".into());
    }
    seconds
        .parse::<f64>()
        .map_err(|_| format!("bad --seconds {seconds:?}"))?;
    let out = out.map_or_else(
        || Path::new("results").join(format!("pair-{workload}")),
        PathBuf::from,
    );
    Ok(Opts {
        bins: [parent, change],
        workload,
        seeds,
        seconds: seconds.to_string(),
        out,
    })
}

/// The `end_to_end` metrics `BENCHMARK.json` declares.
fn metrics(benchmark: &str) -> Result<Vec<Metric>, String> {
    let doc = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            Ok(Metric {
                name: field("name")?.as_str().ok_or("name")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound")?,
            })
        })
        .collect()
}

/// Read one run's stdout: the last line's result object and the `inputs`
/// line.
fn read_run(stdout: &str) -> Result<Run, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let result = Json::parse(last).map_err(|e| format!("last line: {e}"))?;
    let inputs = stdout
        .lines()
        .find_map(|l| l.strip_prefix("inputs "))
        .ok_or("no inputs line")?;
    Ok(Run {
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
        failed: result
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        inputs: inputs.trim().to_string(),
        metrics: result.get("metrics").cloned().ok_or("no metrics")?,
    })
}

/// Run `bin` on one seed and keep its stdout at `keep`.
fn run_one(bin: &str, o: &Opts, seed: u64, keep: &Path) -> Result<Run, String> {
    let output = Command::new(bin)
        .args(["--workload", &o.workload, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds, "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {bin}: {e}"))?;
    std::fs::write(keep, &output.stdout).map_err(|e| format!("write {}: {e}", keep.display()))?;
    read_run(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{}: {e} (exit {})", keep.display(), output.status))
}

fn value(run: &Run, metric: &str) -> f64 {
    run.metrics
        .path(&[metric, "value"])
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// The comparison table over the pairs, one row per metric.
fn table(metrics: &[Metric], pairs: &[[Run; 2]]) -> Table {
    let mut t = Table::new([
        "metric",
        "parent median [q1-q3]",
        "change median [q1-q3]",
        "change/parent",
        "wins",
        "verdict",
    ]);
    let spread = |xs: &[f64]| {
        let q = |p| percentile(xs, p);
        (q(50.0), q(25.0), q(75.0))
    };
    for m in metrics {
        let side = |s: usize| {
            pairs
                .iter()
                .map(|p| value(&p[s], &m.name))
                .collect::<Vec<_>>()
        };
        let (parent, change) = (side(0), side(1));
        let better = |c: f64, p: f64| if m.lower_is_better { c < p } else { c > p };
        let wins = parent
            .iter()
            .zip(&change)
            .filter(|&(&p, &c)| better(c, p))
            .count();
        let ((pm, p1, p3), (cm, c1, c3)) = (spread(&parent), spread(&change));
        let ratio = cm / pm;
        let worse_by = if m.lower_is_better {
            ratio - 1.0
        } else {
            1.0 - ratio
        };
        let verdict = if worse_by > m.bound {
            "beyond bound"
        } else if p3 - p1 >= (cm - pm).abs() {
            "unresolved"
        } else if better(cm, pm) {
            "better"
        } else {
            "worse"
        };
        let cell = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}-{q3:.4}]");
        t.row([
            m.name.clone(),
            cell((pm, p1, p3)),
            cell((cm, c1, c3)),
            format!("{ratio:.3}"),
            format!("{wins}/{}", pairs.len()),
            verdict.to_string(),
        ]);
    }
    t
}

/// `repro pair …`: run the pairs, print the table; the process exit code.
pub fn main(args: &[String]) -> i32 {
    let o = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro pair: {e}\nusage: repro pair <parent-bin> <change-bin> --workload W [--seeds 13..22] [--seconds 24] [--out DIR]");
            return 2;
        }
    };
    match compare(&o) {
        Ok(clean) => i32::from(!clean),
        Err(e) => {
            eprintln!("repro pair: {e}");
            1
        }
    }
}

/// Run every pair and print the report; `Ok(false)` when a run failed an
/// operation, was not correct, or a seed's inputs differ.
fn compare(o: &Opts) -> Result<bool, String> {
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let metrics = metrics(&benchmark)?;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("create {}: {e}", o.out.display()))?;
    let mut pairs = Vec::new();
    let mut problems = Vec::new();
    for &seed in &o.seeds {
        // parent first on even seeds, change first on odd ones
        let order = if seed % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut runs: [Option<Run>; 2] = [None, None];
        for s in order {
            let keep = o
                .out
                .join(format!("{}-seed{seed}-{}.txt", o.workload, SIDES[s]));
            eprintln!("pair: {} seed {seed} {}", o.workload, SIDES[s]);
            runs[s] = Some(run_one(&o.bins[s], o, seed, &keep)?);
        }
        let [Some(parent), Some(change)] = runs else {
            unreachable!("both sides ran")
        };
        for (side, run) in SIDES.iter().zip([&parent, &change]) {
            if !run.correct || run.failed != 0.0 {
                problems.push(format!(
                    "seed {seed} {side}: correct {} failed {}",
                    run.correct, run.failed
                ));
            }
        }
        if parent.inputs != change.inputs {
            problems.push(format!(
                "seed {seed}: inputs differ (parent {:?}, change {:?})",
                parent.inputs, change.inputs
            ));
        }
        pairs.push([parent, change]);
    }
    println!(
        "{} — {} pairs (seeds {:?}), --seconds {}, raw output in {}\n{}",
        o.workload,
        pairs.len(),
        o.seeds,
        o.seconds,
        o.out.display(),
        table(&metrics, &pairs).render()
    );
    for p in &problems {
        println!("FAIL {p}");
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seeds_are_an_inclusive_range_or_one_number() {
        let o = parse(&args("a b --workload fanout_tcp")).unwrap();
        assert_eq!(o.seeds, (13..=22).collect::<Vec<_>>());
        assert_eq!(o.out, Path::new("results/pair-fanout_tcp"));
        let o = parse(&args("a b --workload w --seeds 7 --seconds 2 --out d")).unwrap();
        assert_eq!(
            (o.seeds, o.seconds.as_str(), o.out),
            (vec![7], "2", "d".into())
        );
        assert!(parse(&args("a --workload w")).is_err());
        assert!(parse(&args("a b c --workload w")).is_err());
        assert!(parse(&args("a b")).is_err());
        assert!(parse(&args("a b --workload w --seeds 9..3")).is_err());
    }

    /// A run as the benchmark prints it: the `inputs` line and the result
    /// object last.
    fn stdout(qps: f64, fnv: &str, correct: bool) -> String {
        format!(
            "roar-benchmark workload=w\ninputs inputs_fnv64 {fnv} prf_calls_per_record 2.5\nops_attempted 9\n\
             {{\"correct\": {correct}, \"attempted\": 9, \"failed\": {}, \"metrics\": \
             {{\"queries_per_s\": {{\"value\": {qps}, \"unit\": \"1/s\"}}, \
             \"query_p50_ms\": {{\"value\": 2, \"unit\": \"ms\"}}}}}}\n",
            u8::from(!correct)
        )
    }

    #[test]
    fn reads_the_result_line_and_the_inputs_line() {
        let run = read_run(&stdout(410.5, "00ab", true)).unwrap();
        assert!(run.correct && run.failed == 0.0);
        assert_eq!(run.inputs, "inputs_fnv64 00ab prf_calls_per_record 2.5");
        assert_eq!(value(&run, "queries_per_s"), 410.5);
        assert!(value(&run, "absent").is_nan());
        assert!(!read_run(&stdout(1.0, "00ab", false)).unwrap().correct);
        assert!(read_run("no json here\n").is_err());
    }

    #[test]
    fn table_counts_wins_and_marks_unresolved_and_bound() {
        let benchmark = r#"{"end_to_end": [
            {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}"#;
        let metrics = metrics(benchmark).unwrap();
        let pair =
            |p: f64, c: f64| [p, c].map(|qps| read_run(&stdout(qps, "1", true)).expect("run"));
        // the change wins 2 of 3 on throughput, by less than the parent's
        // spread; p50 is equal on every run
        let pairs = [pair(100.0, 104.0), pair(120.0, 119.0), pair(140.0, 145.0)];
        let text = table(&metrics, &pairs).render();
        let qps = row(&text, "queries_per_s");
        assert!(qps.contains("2/3") && qps.contains("unresolved"), "{text}");
        let p50 = row(&text, "query_p50_ms");
        assert!(p50.contains("0/3") && p50.contains("unresolved"), "{text}");
        // a clear gain, then a throughput a third lower: beyond the bound
        let pairs = [pair(100.0, 130.0), pair(101.0, 131.0), pair(102.0, 132.0)];
        let text = table(&metrics, &pairs).render();
        assert!(row(&text, "queries_per_s").ends_with("better"), "{text}");
        let pairs = [pair(100.0, 60.0), pair(100.0, 66.0), pair(100.0, 70.0)];
        let text = table(&metrics, &pairs).render();
        assert!(
            row(&text, "queries_per_s").ends_with("beyond bound"),
            "{text}"
        );
    }

    fn row(text: &str, name: &str) -> String {
        text.lines()
            .find(|l| l.starts_with(name))
            .unwrap()
            .to_string()
    }
}
