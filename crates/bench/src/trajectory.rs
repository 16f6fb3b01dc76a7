//! `BENCH_pps.json` as a tracked per-PR trajectory.
//!
//! The file holds one JSON object with a `trajectory` array, one entry —
//! one line — per PR (PR 1's baseline is point zero). `repro bench_pps
//! --append <pr>` appends a freshly measured entry; `repro
//! check_pps_trajectory` is the CI gate: it fails when any entry's batched
//! throughput regresses more than [`MAX_REGRESSION`] versus the entry
//! before it. Reading and writing both go through [`roar_util::Json`]:
//! append is parse → push → render, the gate a path lookup per entry.

use crate::{number, Filters, Scale};
use roar_util::Json;

/// The committed trajectory, relative to the working directory.
pub const FILE: &str = "BENCH_pps.json";

/// Largest tolerated drop in `batched.records_per_s` between consecutive
/// trajectory entries (0.20 = 20%).
pub const MAX_REGRESSION: f64 = 0.20;

/// The trajectory in `file_text` (`None` starts a new one) with `doc` — a
/// [`crate::pps_bench::run`] document — appended as PR `pr`'s entry. A
/// malformed file is an error: the gate's history must never be silently
/// replaced by a one-entry file.
pub fn append(file_text: Option<&str>, pr: u32, doc: &Json) -> Result<Json, String> {
    let mut file = match file_text {
        Some(text) => Json::parse(text)?,
        None => Json::obj([
            ("benchmark", "pps_match_throughput".into()),
            ("trajectory", Json::Arr(Vec::new())),
        ]),
    };
    // an entry is the measured document with `pr` in place of `benchmark`
    let Json::Obj(measured) = doc else {
        return Err("a trajectory entry must be an object".into());
    };
    let measured = measured.iter().filter(|(key, _)| key != "benchmark");
    let entry = Json::obj([("pr", pr.into())]).merge(Json::Obj(measured.cloned().collect()));
    let Json::Obj(members) = &mut file else {
        return Err("no trajectory array found — regenerate the file".into());
    };
    match members.iter_mut().find(|(key, _)| key == "trajectory") {
        Some((_, Json::Arr(entries))) => entries.push(entry),
        _ => return Err("no trajectory array found — regenerate the file".into()),
    }
    Ok(file)
}

/// The `batched.records_per_s` of every entry, in file order.
pub fn batched_throughputs(file: &Json) -> Result<Vec<f64>, String> {
    let entries = file.get("trajectory").and_then(Json::as_array);
    let entries = entries.ok_or("no trajectory array found")?;
    entries
        .iter()
        .map(|entry| number(entry, &["batched", "records_per_s"]))
        .collect()
}

/// `repro check_pps_trajectory`'s measurement: the committed file, parsed.
pub fn read(_: Scale, _: &Filters) -> Result<Json, String> {
    let text = std::fs::read_to_string(FILE).map_err(|e| format!("read {FILE}: {e}"))?;
    Json::parse(&text)
}

/// The CI gate: every consecutive pair of entries must not regress by more
/// than [`MAX_REGRESSION`].
pub fn gate(file: &Json, _: Scale) -> Result<(), String> {
    let tp = batched_throughputs(file)?;
    if tp.is_empty() {
        return Err("trajectory has no entries".into());
    }
    for (i, pair) in tp.windows(2).enumerate() {
        let (prev, next) = (pair[0], pair[1]);
        let floor = prev * (1.0 - MAX_REGRESSION);
        if next < floor {
            return Err(format!(
                "entry {} regressed: batched {:.0} records/s < {:.0} \
                 (> {:.0}% below previous entry's {:.0})",
                i + 1,
                next,
                floor,
                MAX_REGRESSION * 100.0,
                prev
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(rps: f64) -> Json {
        Json::obj([
            ("benchmark", "pps_match_throughput".into()),
            ("scalar", Json::obj([("records_per_s", Json::Num(1.0))])),
            (
                "batched",
                Json::obj([("records_per_s", rps.into()), ("hits", 0usize.into())]),
            ),
            ("speedup", Json::Num(2.0)),
            (
                "small_window",
                Json::obj([
                    ("one_keyword_records_per_s", Json::Num(1.0)),
                    ("two_predicate_and_records_per_s", Json::Num(1.0)),
                    ("vs_large", Json::Num(0.5)),
                ]),
            ),
            ("stages_l2", stages()),
            ("stages_full", stages()),
            (
                "mac",
                Json::obj([
                    ("mac_per_s", Json::Num(2.0)),
                    ("staged_mac_per_s", Json::Num(1.0)),
                    ("vs_staged", Json::Num(2.0)),
                ]),
            ),
        ])
    }

    fn stages() -> Json {
        Json::obj([
            ("columns_staging_ns", Json::Num(1.0)),
            ("columns_mac_ns", Json::Num(4.0)),
            ("columns_filter_ns", Json::Num(1.0)),
            ("filter_vs_mac", Json::Num(0.25)),
        ])
    }

    fn trajectory(rps: &[f64]) -> Json {
        let mut text: Option<String> = None;
        for (i, &v) in rps.iter().enumerate() {
            let file = append(text.as_deref(), i as u32 + 1, &measured(v)).unwrap();
            text = Some(file.render().unwrap());
        }
        Json::parse(&text.expect("at least one entry")).unwrap()
    }

    #[test]
    fn roundtrip_new_append_extract() {
        let file = trajectory(&[1_000_000.0, 1_100_000.0, 950_000.0]);
        assert_eq!(
            batched_throughputs(&file).unwrap(),
            vec![1_000_000.0, 1_100_000.0, 950_000.0]
        );
        // one line per entry keeps diffs reviewable
        let text = file.render().unwrap();
        assert_eq!(text.matches("\"pr\":").count(), 3);
        assert_eq!(text.lines().filter(|l| l.contains("\"pr\":")).count(), 3);
        assert!(!text.contains("\"benchmark\": \"pps_match_throughput\", \"scalar\""));
        crate::schema::check_artifact(FILE, &text).expect("trajectory schema");
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let ok = trajectory(&[1_000_000.0, 850_000.0]);
        assert!(
            gate(&ok, Scale::Full).is_ok(),
            "15% down is within the 20% budget"
        );
        let bad = trajectory(&[1_000_000.0, 700_000.0]);
        let err = gate(&bad, Scale::Full).expect_err("30% down must fail");
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn gate_rejects_empty_or_alien_files() {
        assert!(gate(&Json::parse("{}").unwrap(), Scale::Full).is_err());
        assert!(gate(&Json::parse("{\"trajectory\": []}").unwrap(), Scale::Full).is_err());
        assert!(append(Some("{}"), 1, &measured(1.0)).is_err());
        assert!(append(Some("{\"trajectory\": ["), 1, &measured(1.0)).is_err());
    }

    #[test]
    fn appending_to_the_committed_file_preserves_every_entry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(FILE);
        let text = std::fs::read_to_string(path).expect("committed trajectory");
        let before = Json::parse(&text).unwrap();
        let old = before.get("trajectory").and_then(Json::as_array).unwrap();
        gate(&before, Scale::Full).expect("committed trajectory passes its gate");

        let after = append(Some(&text), 99, &measured(7_000_000.0)).unwrap();
        // through the renderer and back: what a later run would read
        let after = Json::parse(&after.render().unwrap()).unwrap();
        let new = after.get("trajectory").and_then(Json::as_array).unwrap();
        assert_eq!(new.len(), old.len() + 1);
        assert_eq!(
            &new[..old.len()],
            old,
            "existing entries keep values and order"
        );
        assert_eq!(number(&new[old.len()], &["pr"]), Ok(99.0));
        assert_eq!(after.get("benchmark"), before.get("benchmark"));
    }
}
