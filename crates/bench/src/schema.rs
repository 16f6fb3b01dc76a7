//! `repro check_bench_schema` — validate every committed `BENCH_*.json`.
//!
//! Every artifact is a [`roar_util::Json`] document rendered by the one
//! renderer, so a fresh one cannot be malformed; what can still go wrong
//! is a hand-edited or stale committed file, or a writer that drops a
//! member a consumer (a CI gate, the scheduled bench job, a human reader)
//! relies on. This module is the cheap insurance: the strict
//! [`Json::parse`] plus a per-file list of required key names that must
//! appear somewhere in the document.
//!
//! It validates *shape*, not values: each bench's own gate judges the
//! numbers.

use crate::{Filters, Scale};
use roar_util::Json;

/// Keys that must appear (as JSON object keys) in the named artifact.
/// Unknown `BENCH_*.json` files fall back to requiring only `benchmark` —
/// new benches get well-formedness checking for free and can add their
/// required fields here when they grow a consumer.
pub fn required_keys(file_name: &str) -> &'static [&'static str] {
    match file_name {
        "BENCH_pps.json" => &[
            "benchmark",
            "trajectory",
            "pr",
            "batched",
            "records_per_s",
            "small_window",
            "one_keyword_records_per_s",
            "two_predicate_and_records_per_s",
            "vs_large",
            "stages_l2",
            "stages_full",
            "columns_staging_ns",
            "columns_mac_ns",
            "columns_filter_ns",
            "filter_vs_mac",
            "mac",
            "mac_per_s",
            "staged_mac_per_s",
            "vs_staged",
        ],
        "BENCH_incast.json" => &[
            "benchmark",
            "config",
            "modes",
            "p50_ms",
            "p99_ms",
            "p99_speedup_udp_vs_tcp",
        ],
        "BENCH_tail.json" => &[
            "benchmark",
            "config",
            "modes",
            "p99_ms",
            "p99_speedup_hedged",
            "fanout_overhead",
        ],
        "BENCH_churn.json" => &[
            "benchmark",
            "config",
            "transports",
            "scenarios",
            "harvest_floor",
            "p99_ms",
            "converged",
            "final_n",
        ],
        "BENCH_node_concurrency.json" => &[
            "benchmark",
            "config",
            "backends",
            "points",
            "resident",
            "baseline_rps",
            "batched_rps",
            "speedup",
            "speedup_64",
        ],
        "BENCH_scale.json" => &[
            "benchmark",
            "config",
            "transports",
            "sizes",
            "nodes",
            "qps",
            "p99_ms",
            "scaling",
            "best_scaling",
        ],
        "BENCH_capacity.json" => &[
            "benchmark",
            "config",
            "slo_ms",
            "transports",
            "points",
            "offered_qps",
            "goodput_qps",
            "p99_ms",
            "knee_qps",
            "admission",
            "yield_frac",
            "admitted_p99_ms",
            "baseline_p99_ms",
        ],
        "BENCH_congestion.json" => &[
            "benchmark",
            "config",
            "modes",
            "points",
            "cross_frac",
            "goodput_records_per_s",
            "p99_ms",
            "p99_speedup_ccudp_vs_fixed",
            "goodput_ratio_ccudp_vs_fixed",
        ],
        _ => &["benchmark"],
    }
}

/// Validate one artifact's text: parse it fully, then check every
/// required key occurs as an object key somewhere in the document.
pub fn check_artifact(file_name: &str, text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let mut keys = Vec::new();
    collect_keys(&doc, &mut keys);
    match required_keys(file_name).iter().find(|k| !keys.contains(k)) {
        Some(missing) => Err(format!("missing required key {missing:?}")),
        None => Ok(()),
    }
}

/// Every object key in `doc`, in document order.
fn collect_keys<'a>(doc: &'a Json, keys: &mut Vec<&'a str>) {
    match doc {
        Json::Obj(members) => {
            for (key, value) in members {
                keys.push(key);
                collect_keys(value, keys);
            }
        }
        Json::Arr(items) => items.iter().for_each(|item| collect_keys(item, keys)),
        _ => {}
    }
}

/// Check every `BENCH_*.json` in `dir`; returns the validated file names.
pub fn check_dir(dir: &std::path::Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {dir:?}: {e}"))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no BENCH_*.json artifacts found in {dir:?}"));
    }
    for name in &names {
        let text = std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("{name}: read failed: {e}"))?;
        check_artifact(name, &text).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(names)
}

/// `repro check_bench_schema`'s measurement: the artifacts of the working
/// directory that validated (the first that does not is the error).
pub fn check_committed(_: Scale, _: &Filters) -> Result<Json, String> {
    let checked = check_dir(std::path::Path::new("."))?;
    Ok(Json::obj([
        ("benchmark", "bench_schema".into()),
        ("checked", checked.into_iter().collect()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_json() {
        // the malformed-input table lives with the parser
        // (`roar_util::json`); here: a parse failure fails the artifact
        let err = check_artifact("BENCH_future.json", "{\"benchmark\": 1,}").unwrap_err();
        assert!(err.contains("at byte"), "{err}");
    }

    #[test]
    fn rejects_missing_required_keys() {
        let err = check_artifact("BENCH_incast.json", "{\"benchmark\": \"x\"}")
            .expect_err("incast artifact without modes must fail");
        assert!(err.contains("missing required key"), "{err}");
        // unknown artifacts only need the generic key
        check_artifact("BENCH_future.json", "{\"benchmark\": \"x\"}").expect("generic ok");
        check_artifact("BENCH_future.json", "{\"other\": 1}").expect_err("generic missing");
    }

    #[test]
    fn collects_nested_keys() {
        let doc = Json::parse("{\"a\": [{\"b\": {\"c\": [1, true, null, \"s\"]}}]}").unwrap();
        let mut keys = Vec::new();
        collect_keys(&doc, &mut keys);
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn committed_artifacts_in_repo_root_validate() {
        // guards the actually-committed files; runs from the crate dir, so
        // walk up to the workspace root
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let checked = check_dir(&root).expect("all committed artifacts validate");
        assert!(
            checked.len() >= 8,
            "expected every bench's artifact, got {checked:?}"
        );
    }
}
