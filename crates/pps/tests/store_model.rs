//! Model-based property test of the run store: random sequences of
//! `append` (fresh records, replica re-pushes, nonce-changing updates,
//! single-record bursts and bulk loads that force the tiered merges up to
//! the cap) and `retain_window` (contiguous, wrapped, full, empty) against
//! a `BTreeMap<id, (nonce, filter)>`.
//!
//! After every step the store must agree with the model on its length, on
//! the id list of every probe window, and on every stored bit (the whole
//! ring materialised as rows); an id lives in exactly one run, every run
//! is sorted, none is empty, and the tiered rule keeps the unsealed runs
//! few.

use proptest::prelude::*;
use roar_core::ring::Window;
use roar_crypto::bloom::BloomFilter;
use roar_pps::bloom_kw::BloomMetadata;
use roar_pps::store::{Run, MERGE_FAN_IN, RUN_CAP};
use roar_pps::{EncryptedMetadata, MetadataStore};
use std::collections::BTreeMap;
use std::sync::Arc;

type Model = BTreeMap<u64, (u64, BloomFilter)>;

/// Spread a small key over the ring, so windows cut the key space anywhere.
fn id_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Version `version` of record `key`: the nonce and every filter bit are
/// functions of both, and filter lengths differ from record to record
/// (1 to 3 words), so a slab offset that slips shows.
fn record(key: u64, version: u64) -> EncryptedMetadata {
    let mix = |x: u64| (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let nonce = mix(key.wrapping_mul(31) ^ mix(version + 1));
    let mut filter = BloomFilter::new(1 + (key % 190) as usize);
    for k in 0..=key % 5 {
        filter.set(mix(nonce ^ k));
    }
    EncryptedMetadata {
        id: id_of(key),
        body: BloomMetadata { nonce, filter },
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Records `(key, fresh)`: `fresh` stores a new version (an update if
    /// the key is held), otherwise the held version is pushed again.
    Append(Vec<(u64, bool)>),
    /// `n` appends of one new record each.
    Burst(u64),
    /// One append of `n` new records.
    Bulk(u64),
    Retain(Window),
}

fn arb_window() -> impl Strategy<Value = Window> {
    (0u8..6, any::<u64>(), any::<u64>()).prop_map(|(kind, a, b)| match kind {
        0 => Window::full(a),
        // no record: ids are odd multiples apart, this holds one position
        1 => Window::new(a, a.wrapping_add(1)),
        // two thirds of the ring from `a` on: wraps for most `a`
        2 => Window::new(a, a.wrapping_add(u64::MAX / 3 * 2)),
        _ => Window::new(a, b),
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let batch = proptest::collection::vec((0u64..300, any::<bool>()), 0..40);
    (0u8..10, batch, 1u64..20, arb_window()).prop_map(|(kind, batch, n, w)| match kind {
        0..=4 => Op::Append(batch),
        5 => Op::Burst(n),
        6 => Op::Bulk(n * 150),
        _ => Op::Retain(w),
    })
}

/// The windows every step is probed with (`store.rs`'s own list).
fn probe_windows() -> Vec<Window> {
    let mut windows = vec![
        Window::full(3),
        Window::new(15, 40),
        Window::new(u64::MAX - 10, 50),
        Window::new(1 << 62, (1 << 62) + 1),
        Window::new(7, 7),
    ];
    let points = roar_core::ring::query_points(42, 9);
    windows.extend(roar_core::ring::windows_of_points(&points));
    windows
}

fn check(store: &MetadataStore, model: &Model, windows: &[Window]) {
    let mut seen = std::collections::BTreeSet::new();
    for run in store.runs() {
        prop_assert!(!run.is_empty(), "an empty run is kept");
        prop_assert!(run.ids().windows(2).all(|w| w[0] < w[1]), "run not sorted");
        for &id in run.ids() {
            prop_assert!(seen.insert(id), "id {id} lives in two runs");
        }
    }
    prop_assert_eq!(store.len(), model.len());
    prop_assert_eq!(store.is_empty(), model.is_empty());
    let unsealed = store.runs().iter().filter(|r| r.len() < RUN_CAP / 2);
    prop_assert!(unsealed.count() < 4 * MERGE_FAN_IN, "runs pile up unmerged");
    for w in windows {
        let mut got: Vec<u64> = Vec::new();
        for r in store.window_ranges(w) {
            prop_assert!(r.start < r.end, "an empty range is listed");
            got.extend(&store.runs()[r.run].ids()[r.start..r.end]);
        }
        got.sort_unstable();
        let want: Vec<u64> = model.keys().copied().filter(|&id| w.contains(id)).collect();
        prop_assert_eq!(got, want, "window {:?}", w);
    }
    // every stored nonce and filter bit, through the materialising reader
    let mut rows = store.window_records(&Window::full(0));
    rows.sort_by_key(|r| r.id);
    prop_assert_eq!(rows.len(), model.len());
    for (row, (&id, (nonce, filter))) in rows.iter().zip(model) {
        prop_assert_eq!(row.id, id);
        prop_assert_eq!(row.body.nonce, *nonce, "nonce of {}", id);
        prop_assert_eq!(&row.body.filter, filter, "filter of {}", id);
    }
}

/// Runs `ops` against store and model side by side, checking every step.
fn run(ops: &[Op]) {
    let windows = probe_windows();
    let (mut store, mut model) = (MetadataStore::new(), Model::new());
    // versions stored so far per key; new keys for bursts and bulk loads
    let mut versions: BTreeMap<u64, u64> = BTreeMap::new();
    let mut next_key = 1_000u64;
    let append = |store: &mut MetadataStore, model: &mut Model, batch: &[EncryptedMetadata]| {
        store.append(Arc::new(Run::from_records(batch)));
        for r in batch {
            // the last of equal ids in a batch wins, as in the model
            model.insert(r.id, (r.body.nonce, r.body.filter.clone()));
        }
    };
    for op in ops {
        match op {
            Op::Append(keys) => {
                let batch: Vec<EncryptedMetadata> = keys
                    .iter()
                    .map(|&(key, fresh)| {
                        let version = versions.entry(key).or_insert(0);
                        *version += u64::from(fresh);
                        record(key, *version)
                    })
                    .collect();
                append(&mut store, &mut model, &batch);
            }
            Op::Burst(n) => {
                for key in next_key..next_key + n {
                    append(&mut store, &mut model, &[record(key, 0)]);
                    check(&store, &model, &windows[..1]);
                }
                next_key += n;
            }
            Op::Bulk(n) => {
                let batch: Vec<_> = (next_key..next_key + n).map(|k| record(k, 0)).collect();
                append(&mut store, &mut model, &batch);
                next_key += n;
            }
            Op::Retain(keep) => {
                let before = model.len();
                model.retain(|&id, _| keep.contains(id));
                let dropped = store.retain_window(keep);
                prop_assert_eq!(dropped, before - model.len(), "retain {:?}", keep);
            }
        }
        check(&store, &model, &windows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn store_agrees_with_the_model_after_every_step(
        ops in proptest::collection::vec(arb_op(), 1..28),
    ) {
        run(&ops);
    }
}

/// The merges the random walk seldom reaches: enough bulk to seal runs at
/// the cap, re-pushed whole, updated in part, cut by a wrapped coverage.
#[test]
fn sealed_runs_survive_repush_update_and_retain() {
    let keys: Vec<(u64, bool)> = (0..300).map(|k| (k, false)).collect();
    let update: Vec<(u64, bool)> = (0..300).step_by(7).map(|k| (k, true)).collect();
    let ops = [
        Op::Bulk(RUN_CAP as u64 / 2),
        Op::Bulk(RUN_CAP as u64 / 2),
        Op::Append(keys.clone()),
        Op::Bulk(RUN_CAP as u64 + 9),
        Op::Append(keys),
        Op::Append(update),
        Op::Burst(2 * MERGE_FAN_IN as u64 + 1),
        Op::Retain(Window::new(3 << 62, 1 << 62)),
        Op::Retain(Window::new(5, 6)),
    ];
    run(&ops);
}
