//! What a run prints: the metric registry `BENCHMARK.json` mirrors, the
//! machine fingerprint, and the result line.

use std::fmt::Write as _;

/// Every end-to-end metric, in `BENCHMARK.json` order: `(name, unit,
/// higher is better, bound)`. The bound is the share of the parent's
/// median by which the metric may get worse before a change counts as a
/// regression. Each is the largest of: the issue's start bound, twice the
/// largest A/A difference seen, and three times the widest quartile
/// spread seen (the acceptance check of this benchmark refuses a spread
/// above the bound and asks for spreads below a third of it) — capped at
/// the 25 % that check allows. `README.md` ("A/A and the bounds") has the
/// numbers; on the reference box, whose speed switches between two levels
/// ≈ 25 % apart every few minutes, all six reach the cap.
pub const END_TO_END: [(&str, &str, bool, f64); 6] = [
    ("setup_s", "s", false, 0.25),
    ("queries_per_s", "1/s", true, 0.25),
    ("query_p50_ms", "ms", false, 0.25),
    ("query_p90_ms", "ms", false, 0.25),
    ("cpu_ms_per_query", "ms", false, 0.25),
    ("peak_rss_mb", "MB", false, 0.25),
];

/// `(name, unit)` of every per-layer metric; the prefix is the module.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workload.gen_lateness_p99_ms", "ms"),
    ("workload.offered_per_s", "1/s"),
    ("workload.late_queries", "count"),
    ("client.subqueries_per_query", "count"),
    ("client.retries", "count"),
    ("client.hedges", "count"),
    ("client.refused", "count"),
    ("client.lost", "count"),
    ("client.query_p99_ms", "ms"),
    ("client.merge_tail_us_p50", "us"),
    ("client.unaccounted_share", "share"),
    ("core.plan_us_p50", "us"),
    ("core.plan_probe_us", "us"),
    ("admission.decide_ns_per_call", "ns"),
    ("transport.flight_us_p50", "us"),
    ("transport.flight_us_p99", "us"),
    ("transport.rpc_errors", "count"),
    ("transport.ping_rtt_us_p50", "us"),
    ("transport.store_rpc_mb_per_s", "MB/s"),
    ("proto.encode_subquery_ns", "ns"),
    ("proto.decode_result_ns", "ns"),
    ("proto.subquery_bytes", "B"),
    ("proto.result_bytes", "B"),
    ("proto.store_batch_bytes", "B"),
    ("node.proc_ms_p50", "ms"),
    ("node.proc_ms_p99", "ms"),
    ("node.proc_share", "share"),
    ("node.scanned_per_query", "count"),
    ("node.records_per_s", "1/s"),
    ("node.direct_subquery_us_p50", "us"),
    ("pps.inline_records_per_s", "1/s"),
    ("pps.batch_records_per_s_1q", "1/s"),
    ("pps.batch_records_per_s_8q", "1/s"),
    ("pps.prf_calls_per_record", "count"),
    ("crypto.mac_per_s", "1/s"),
    ("admin.store_batch_p50_ms", "ms"),
    ("admin.store_batch_late", "count"),
    ("admin.set_p_up_ms_p50", "ms"),
    ("admin.set_p_down_ms_p50", "ms"),
    ("admin.records_stored", "count"),
    ("runtime.reactor_wakeups_per_query", "count"),
    ("runtime.threads", "count"),
    ("trace.overhead_frac", "share"),
];

/// Metric values keyed by registry name; anything a workload does not
/// exercise stays 0.
#[derive(Debug, Default, Clone)]
pub struct Metrics(std::collections::BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|e| e.0 == name) || PER_LAYER.iter().any(|l| l.0 == name),
            "{name} is not a registered metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The contract's result line: one JSON object, last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    registry: impl Iterator<Item = (&'static str, &'static str)>,
    metrics: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in registry.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest decimal that round-trips: every digit
        // measured, nothing rounded away
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            metrics.get(name)
        );
    }
    out.push_str("}}");
    out
}

// ---- /proc readers ----------------------------------------------------------

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn thread_count() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// CPU time (user + system) this process has used, milliseconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_ms() -> f64 {
    const MS_PER_TICK: f64 = 10.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are at offsets 11 and 12
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 * MS_PER_TICK
}

// ---- fingerprint ------------------------------------------------------------

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory; the
/// acceptance checkout is not a repository and reports `unknown`.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.to_string()
    }
}

/// Where the numbers come from, as one JSON object.
pub fn fingerprint_json(seed: u64, inputs_fnv64: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rt_workers = std::env::var("ROAR_RT_WORKERS").unwrap_or_else(|_| "default".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"sha1_backend\": \"{}\", \"ROAR_RT_WORKERS\": \"{rt_workers}\", \
         \"git_commit\": \"{}\", \"seed\": {seed}, \"open_rate_per_s\": {}, \"inputs_fnv64\": \"{inputs_fnv64:016x}\", \
         \"network\": \"loopback only\"}}",
        cpu_model().replace(['"', '\\'], ""),
        roar_crypto::sha1::Backend::auto().name(),
        git_commit(),
        crate::workloads::OPEN_RATE_PER_S,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_registry_metrics() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        m.set("queries_per_s", f64::NAN);
        let line = result_line(true, 10, 0, END_TO_END.iter().map(|e| (e.0, e.1)), &m);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"
        ));
        assert!(line.contains("\"queries_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn benchmark_json_names_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry = format!(
                "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workloads::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name)));
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        // burn a few ticks so the counter has something to show
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() >= 10.0);
    }
}
