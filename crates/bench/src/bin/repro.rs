//! `repro` — regenerate any table or figure of the ROAR evaluation, and
//! every committed `BENCH_*.json`.
//!
//! Usage:
//!   repro list                     list experiment ids and benches
//!   repro `<name>` ...               run specific experiments (e.g. fig6_1)
//!                                  and/or benches (e.g. bench_tail)
//!   repro all                      run every paper experiment
//!   repro benches                  run every row of the bench table —
//!                                  the one command that regenerates every
//!                                  BENCH_*.json and then checks them
//!   --quick                        reduced workloads (smoke/CI); leaves
//!                                  committed artifacts untouched
//!   --scenario S / --transport T   run one slice of a bench's matrix
//!                                  (bench_churn; bench_churn, bench_scale,
//!                                  bench_capacity) — CI's smoke legs
//!   --backend scalar|sse2|avx2|auto
//!                                  pin bench_pps' batched path to one SHA-1
//!                                  lane engine
//!   --append N                     add bench_pps' measurement to the
//!                                  BENCH_pps.json trajectory as PR N's entry
//!
//! Paper experiments print their report and save it under
//! `results/<id>.txt`. A bench prints its JSON document on stdout and one
//! verdict line on stderr; the [`benches`] table says what each measures,
//! which artifact a full, unsliced run rewrites, and which gate makes the
//! process exit non-zero (after the remaining rows have run).

use roar_bench::{
    capacity, churn, congestion, incast, node_concurrency, pps_bench, registry, scale, schema,
    tail, trajectory, ungated, Filters, Scale,
};
use roar_crypto::sha1::Backend;
use roar_util::Json;
use std::path::Path;

/// How a bench's document reaches a committed file.
#[derive(Clone, Copy)]
enum Artifact {
    /// Rewritten by a full-scale run of the whole matrix; quick smokes and
    /// sliced runs must not overwrite it with a partial document.
    Snapshot(&'static str),
    /// Grows by one entry per `--append <pr>`.
    Trajectory(&'static str),
    /// Nothing committed: a check over other rows' artifacts, or a table
    /// under `results/`.
    None,
}

/// One row of the bench table.
struct Bench {
    name: &'static str,
    artifact: Artifact,
    /// What the row measures and what its gate enforces, in one line.
    headline: &'static str,
    run: fn(Scale, &Filters) -> Result<Json, String>,
    gate: fn(&Json, Scale) -> Result<(), String>,
}

/// The bench table: measuring rows first, then the checks over what they
/// wrote. README's *Benchmarks* table mirrors it row for row.
fn benches() -> Vec<Bench> {
    use Artifact::{Snapshot, Trajectory};
    let row = |name, artifact, headline, run, gate| Bench {
        name,
        artifact,
        headline,
        run,
        gate,
    };
    vec![
        row(
            "bench_pps",
            Trajectory(trajectory::FILE),
            "scalar vs batched PPS matching throughput (§5.7 setup), the 256-record small-window rate, staging / MAC / filter ns per record (rows and columns) and the nonce sweep's MAC/s; fails if a small window runs under 0.25x the large-corpus rate, the L2-resident filter stage costs over 0.4x the MAC stage or the 16-lane fused kernel runs under 1.5x its compress-staged default",
            pps_bench::run,
            pps_bench::gate,
        ),
        row(
            "bench_pps_backends",
            Artifact::None,
            "batched throughput, nonce-sweep MAC/s and trapdoor-preparation time per available SHA-1 backend -> results/bench_pps_backends.txt",
            pps_bench::run_backends,
            ungated,
        ),
        row(
            "bench_incast",
            Snapshot("BENCH_incast.json"),
            "UDP app-RTO vs TCP-min-RTO fan-in under synchronized reply loss (§4.8.4); measures only",
            incast::run,
            ungated,
        ),
        row(
            "bench_tail",
            Snapshot("BENCH_tail.json"),
            "hedged vs unhedged tail under an invisible straggler; fails if hedged p99 > unhedged",
            tail::run,
            tail::gate,
        ),
        row(
            "bench_congestion",
            Snapshot("BENCH_congestion.json"),
            "fixed-RTO UDP vs ccudp under ramped cross traffic; fails if ccudp loses on p99 or goodput at the top of the ramp",
            congestion::run,
            congestion::gate,
        ),
        row(
            "bench_churn",
            Snapshot("BENCH_churn.json"),
            "reconciler under rolling restart / flash crowd / rack failure per transport; fails if a cell does not converge or rolling restart drops windowed harvest below 0.9",
            churn::run,
            churn::gate,
        ),
        row(
            "bench_scale",
            Snapshot("BENCH_scale.json"),
            "closed-loop qps and tails at 16..512 nodes per transport; fails if harvest slips or best scaling is under 4x (quick: 1.5x)",
            scale::run,
            scale::gate,
        ),
        row(
            "bench_node_concurrency",
            Snapshot("BENCH_node_concurrency.json"),
            "cross-query batched node execution vs thread-per-query at 1/8/64 resident; fails if 64-resident < 1-resident throughput, or (full) < 1.5x the baseline",
            node_concurrency::run,
            node_concurrency::gate,
        ),
        row(
            "bench_capacity",
            Snapshot("BENCH_capacity.json"),
            "open-loop capacity curve, knee, and SLO admission at 2x the knee per transport; fails if the door loses to the bare cluster or trades harvest, or (full) misses the SLO",
            capacity::run,
            capacity::gate,
        ),
        row(
            "check_pps_trajectory",
            Artifact::None,
            "fails on a > 20% batched-throughput regression between consecutive BENCH_pps.json entries",
            trajectory::read,
            trajectory::gate,
        ),
        row(
            "check_bench_schema",
            Artifact::None,
            "fails unless every BENCH_*.json here is strict JSON carrying its required keys",
            schema::check_committed,
            ungated,
        ),
    ]
}

/// Put `doc` where `row` keeps it; returns the note for the verdict line.
fn persist(
    row: &Bench,
    doc: &Json,
    full_matrix: bool,
    append: Option<u32>,
) -> Result<String, String> {
    let write = |file: &str, doc: &Json| {
        std::fs::write(file, doc.render()?).map_err(|e| format!("write {file}: {e}"))
    };
    match (row.artifact, append) {
        (Artifact::Snapshot(file), _) if full_matrix => {
            write(file, doc)?;
            Ok(format!(" -> {file}"))
        }
        (Artifact::Snapshot(file), _) => Ok(format!(" (partial/quick run: {file} left untouched)")),
        (Artifact::Trajectory(file), Some(pr)) => {
            let existing = match std::fs::read_to_string(file) {
                Ok(text) => Some(text),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(format!("read {file}: {e}")),
            };
            write(file, &trajectory::append(existing.as_deref(), pr, doc)?)?;
            Ok(format!(" -> appended PR {pr} entry to {file}"))
        }
        _ => Ok(String::new()),
    }
}

/// Run one row end to end: measure, print, persist, judge.
fn run_bench(
    row: &Bench,
    scale: Scale,
    filters: &Filters,
    append: Option<u32>,
) -> Result<String, String> {
    let doc = (row.run)(scale, filters)?;
    print!("{}", doc.render()?);
    let full_matrix = scale == Scale::Full && *filters == Filters::default();
    let note = persist(row, &doc, full_matrix, append)?;
    (row.gate)(&doc, scale)?;
    Ok(note)
}

/// The value after `flag`, if the flag is present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    Some(
        args.get(at + 1)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
    )
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}; try `repro list`");
    std::process::exit(2);
}

/// `--scenario` / `--transport`: the value, checked against the axis' names.
fn axis(args: &[String], flag: &str, names: &[&str]) -> Option<String> {
    let value = flag_value(args, flag)?;
    if !names.contains(&value) {
        usage(&format!(
            "{flag} {value:?} not recognised ({})",
            names.join("|")
        ));
    }
    Some(value.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let append: Option<u32> = flag_value(&args, "--append").map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage("--append needs a PR number"))
    });
    // `None` = auto-detect
    let backend = flag_value(&args, "--backend")
        .filter(|&name| name != "auto")
        .map(|name| {
            let b = Backend::from_name(name).unwrap_or_else(|| {
                usage(&format!(
                    "--backend {name:?} not recognised (scalar|sse2|avx2|auto)"
                ))
            });
            if !b.available() {
                usage(&format!("--backend {name} is not available on this CPU"));
            }
            b
        });
    let filters = Filters {
        scenario: axis(&args, "--scenario", &churn::SCENARIOS),
        transport: axis(&args, "--transport", &roar_bench::driver::TRANSPORTS),
        backend,
    };
    // a quick-workload or pinned-backend measurement (e.g. scalar at ~1/4
    // the auto throughput) is not comparable to the full-scale auto-backend
    // entries the regression gate diffs; appending one would either trip
    // the gate forever or silently re-baseline it
    if append.is_some() && (quick || filters.backend.is_some()) {
        usage(
            "--append records a full run on the auto-detected backend (drop --quick / --backend)",
        );
    }
    let value_flags = ["--append", "--backend", "--scenario", "--transport"];
    let wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            let follows_flag = i > 0 && value_flags.contains(&args[i - 1].as_str());
            a != "--quick" && !value_flags.contains(&a.as_str()) && !follows_flag
        })
        .map(|(_, a)| a.as_str())
        .collect();

    if wanted.is_empty() || wanted[0] == "list" {
        println!("{:<10} {:<10} title", "id", "paper");
        println!("{}", "-".repeat(70));
        for e in registry() {
            println!("{:<10} {:<10} {}", e.id, e.paper_ref, e.title);
        }
        println!("\n{:<23} measures / enforces", "bench");
        println!("{}", "-".repeat(70));
        for b in benches() {
            println!("{:<23} {}", b.name, b.headline);
        }
        println!(
            "\nrun: repro <id|bench> ... | repro all | repro benches   \
             [--quick] [--scenario S] [--transport T] [--backend B] [--append N]"
        );
        return;
    }

    // the same lookup serves both tables: a name selects its row,
    // `benches` every bench row, `all` every paper experiment
    let mut ran = 0usize;
    let mut failed: Vec<&str> = Vec::new();
    for row in benches() {
        if !wanted.iter().any(|&w| w == row.name || w == "benches") {
            continue;
        }
        ran += 1;
        let t0 = std::time::Instant::now();
        match run_bench(&row, scale, &filters, append) {
            Ok(note) => {
                let took = t0.elapsed().as_secs_f64();
                eprintln!("{}: ok in {took:.1}s{note}", row.name);
            }
            Err(why) => {
                eprintln!("{}: FAIL — {why} [{}]", row.name, row.headline);
                failed.push(row.name);
            }
        }
    }
    for e in registry() {
        if !wanted.iter().any(|&w| w == e.id || w == "all") {
            continue;
        }
        ran += 1;
        eprintln!(">>> {} ({}) — {}", e.id, e.paper_ref, e.title);
        let t0 = std::time::Instant::now();
        let report = (e.run)(scale);
        report
            .save_and_print(Path::new("results"), e.id)
            .expect("write result");
        eprintln!("<<< {} done in {:.1}s\n", e.id, t0.elapsed().as_secs_f64());
    }
    if ran == 0 {
        usage(&format!("no experiment or bench matched {wanted:?}"));
    }
    if !failed.is_empty() {
        eprintln!("{ran} run, FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
    eprintln!("{ran} experiment(s) done");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root")
    }

    /// Every row, run for real at quick scale on the one-cell slice CI's
    /// smoke legs use, renders and satisfies its own artifact's schema.
    #[test]
    fn every_row_renders_a_document_its_schema_accepts() {
        // the check rows read the committed artifacts relative to the
        // working directory (this is the only test here that depends on it)
        std::env::set_current_dir(workspace_root()).expect("chdir to workspace root");
        let slice = Filters {
            scenario: Some("rolling_restart".into()),
            transport: Some("tcp".into()),
            backend: None,
        };
        for row in benches() {
            let doc =
                (row.run)(Scale::Quick, &slice).unwrap_or_else(|e| panic!("{}: {e}", row.name));
            let (file, doc) = match row.artifact {
                Artifact::Snapshot(file) => (file, doc),
                // a trajectory row's document is one entry of its file
                Artifact::Trajectory(file) => {
                    (file, trajectory::append(None, 0, &doc).expect("entry"))
                }
                Artifact::None => ("", doc),
            };
            let text = doc.render().unwrap_or_else(|e| panic!("{}: {e}", row.name));
            schema::check_artifact(file, &text).unwrap_or_else(|e| panic!("{}: {e}", row.name));
            assert_eq!(Json::parse(&text).as_ref(), Ok(&doc), "{}", row.name);
            // a quick smoke never writes, whatever the row
            assert!(
                !persist(&row, &doc, false, None)
                    .expect("persist")
                    .contains("->"),
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn readme_benchmarks_table_matches_the_bench_table() {
        let readme = std::fs::read_to_string(workspace_root().join("README.md")).expect("README");
        for row in benches() {
            let artifact = match row.artifact {
                Artifact::Snapshot(file) | Artifact::Trajectory(file) => file,
                Artifact::None => "—",
            };
            let line = format!("| `repro {}` | `{artifact}` |", row.name).replace("`—`", "—");
            assert!(readme.contains(&line), "README lacks the row {line:?}");
        }
        let names: Vec<&str> = benches().iter().map(|b| b.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "bench names are unique");
        assert!(registry().iter().all(|e| !names.contains(&e.id)));
    }
}
