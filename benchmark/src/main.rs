//! `roar-benchmark`: real encrypted queries through an in-process ROAR
//! cluster (`spawn_cluster`, `QueryBody::Pps`, `overhead_s = 0`), measured
//! end to end and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! roar-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! roar-benchmark [--trace] [--seed <n>] [--seconds <s>]     all four workloads
//! roar-benchmark aa [--sets 2] [--runs 5] [--seed <n>] [--seconds <s>]
//! ```

mod aa;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

/// The measured window `BENCHMARK.json` asks for (`run_seconds`).
const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_SEED: u64 = 13;

fn usage(problem: &str) -> ! {
    eprintln!("roar-benchmark: {problem}");
    eprintln!(
        "usage: roar-benchmark [aa] [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--sets <n>] [--runs <n>]",
        workloads::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let aa_mode = args.next_if(|a| a == "aa").is_some();
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    let (mut sets, mut runs) = (2usize, 5usize);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                workload = Some(
                    workloads::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--sets" => {
                sets = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --sets"))
            }
            "--runs" => {
                runs = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --runs"))
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`
            "--trace" => {
                trace = args
                    .next_if(|a| a == "0" || a == "1")
                    .is_none_or(|v| v == "1")
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let code = if aa_mode {
        aa::aa(sets, runs, seed, seconds)
    } else if let Some(spec) = workload {
        run::run(&run::RunOpts {
            spec,
            seed,
            seconds,
            trace,
        })
    } else {
        aa::run_all(seed, seconds, trace)
    };
    std::process::exit(code)
}
