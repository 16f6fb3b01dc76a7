//! Zero-copy sub-query execution: once records are stored, matching them
//! must not deep-clone a single `EncryptedMetadata` — the node hands the
//! matcher pool an immutable `Arc` epoch snapshot plus window index
//! ranges, never a `.cloned().collect()` of the window.
//!
//! The same holds on the write side: a `Store` beside a live snapshot
//! builds the next store from the snapshot's own runs — every run it does
//! not replace is shared, none is copied — and swaps it in whole, so a
//! snapshot sees a batch entirely or not at all. The front-end's backend
//! copy is the same store: ingest through `Admin` and the re-push a `set_p`
//! decrease makes from it copy no record either.
//!
//! This lives in its own integration binary so the process-wide clone
//! counter ([`roar_pps::metadata::record_clone_count`]) sees no traffic
//! from unrelated tests.

use roar_cluster::harness::{spawn_cluster, ClusterConfig};
use roar_cluster::node::{DataNode, NodeConfig};
use roar_cluster::proto::{
    read_frame, write_frame, Frame, Msg, QueryBody, WireRecord, WireTrapdoor,
};
use roar_cluster::transport::Handler;
use roar_pps::metadata::{record_clone_count, FileMeta, MetaEncryptor};
use roar_pps::query::{Combiner, Predicate, QueryCompiler};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tokio::net::TcpStream;

fn node() -> Arc<DataNode> {
    Arc::new(DataNode::new(NodeConfig {
        id: 0,
        speed: 1e6,
        overhead_s: 0.0,
    }))
}

/// A `Store` of `len` two-word records with ids `first..first + len`.
fn store_msg(first: u64, len: u64) -> Msg {
    let wire = |id: u64| WireRecord {
        id,
        nonce: !id,
        filter: id.to_le_bytes().repeat(2),
        filter_bits: 100,
    };
    Msg::Store {
        records: (first..first + len).map(wire).collect(),
        synthetic_ids: vec![],
    }
}

async fn rpc(stream: &mut TcpStream, id: u64, body: Msg) -> Msg {
    write_frame(stream, &Frame { id, body }).await.unwrap();
    loop {
        let f = read_frame(stream).await.unwrap().unwrap();
        if f.id == id {
            return f.body;
        }
    }
}

#[tokio::test]
async fn subqueries_do_not_clone_stored_records() {
    let node = node();
    let (tx, rx) = tokio::sync::oneshot::channel();
    let n2 = Arc::clone(&node);
    tokio::spawn(async move {
        let _ = n2.serve(tx).await;
    });
    let addr = rx.await.unwrap();
    let mut s = TcpStream::connect(addr).await.unwrap();

    let enc = MetaEncryptor::with_points(b"noclone", vec![1], vec![1]);
    let mut rng = roar_util::det_rng(4242);
    let recs: Vec<_> = (0..300)
        .map(|i| {
            enc.encrypt(
                &mut rng,
                &FileMeta {
                    path: format!("/n/f{i}"),
                    keywords: vec![format!("w{}", i % 10), "common".into()],
                    size: 1,
                    mtime: 1,
                },
            )
        })
        .collect();
    assert_eq!(
        rpc(
            &mut s,
            1,
            Msg::Store {
                records: recs.iter().map(WireRecord::from_record).collect(),
                synthetic_ids: vec![],
            },
        )
        .await,
        Msg::Ok
    );
    assert_eq!(node.record_count(), 300, "all records inserted");

    // every sub-query from here on must execute without copying a record:
    // full-ring windows, partial windows and wrapped windows alike
    let before = record_clone_count();
    let qc = QueryCompiler::new(&enc);
    let windows = [
        (0u64, 0u64),                 // full ring
        (0, u64::MAX / 2),            // half
        (u64::MAX / 2, u64::MAX / 4), // wrapped
    ];
    let mut total_matches = 0usize;
    for (i, &(ws, we)) in windows.iter().enumerate() {
        for qi in 0..4u64 {
            let q = qc.compile(
                &[
                    Predicate::Keyword("common".into()),
                    Predicate::Keyword(format!("w{qi}")),
                ],
                Combiner::And,
            );
            let reply = rpc(
                &mut s,
                10 + (i as u64) * 10 + qi,
                Msg::SubQuery {
                    query_id: qi,
                    window_start: ws,
                    window_end: we,
                    body: QueryBody::Pps {
                        trapdoors: q
                            .trapdoors
                            .iter()
                            .map(WireTrapdoor::from_trapdoor)
                            .collect(),
                        conjunctive: true,
                    },
                    backend: None,
                },
            )
            .await;
            let Msg::SubQueryResult { matches, .. } = reply else {
                panic!("unexpected reply {reply:?}");
            };
            total_matches += matches.len();
        }
    }
    assert!(total_matches > 0, "queries should match something");
    let cloned = record_clone_count() - before;
    assert_eq!(
        cloned, 0,
        "sub-query execution deep-cloned {cloned} records; the snapshot path must copy none"
    );
}

/// A write beside a live sub-query snapshot: at the parent the first
/// `make_mut` deep-cloned every stored record; now no record is cloned and
/// every run the batch did not replace is the snapshot's own.
#[tokio::test]
async fn store_beside_live_snapshot_shares_runs() {
    let node = node();
    for first in [0, 5_000] {
        assert_eq!(node.clone().handle(store_msg(first, 300)).await, Msg::Ok);
    }
    let snapshot = node.store_snapshot();
    assert_eq!((snapshot.len(), snapshot.runs().len()), (600, 2));

    let before = record_clone_count();
    // 24 new records and 8 re-pushed ones the store already holds
    assert_eq!(node.clone().handle(store_msg(292, 32)).await, Msg::Ok);
    assert_eq!(record_clone_count(), before, "a store cloned records");

    let live = node.store_snapshot();
    assert_eq!((snapshot.len(), live.len()), (600, 624));
    for old in snapshot.runs() {
        let shared = live.runs().iter().any(|run| Arc::ptr_eq(run, old));
        assert!(shared, "a run the batch left alone was copied");
    }
    assert_eq!(live.runs().len(), 3, "the batch is a run of its own");
}

/// `Admin::store_records` appends to the backend as a run and a `set_p`
/// decrease re-pushes each node's longer arc from the backend's columns:
/// neither clones a record (at the parent the backend cloned every stored
/// record into its row vector, and every pushed one out of it).
#[tokio::test]
async fn admin_store_and_set_p_decrease_clone_no_record() {
    let h = spawn_cluster(ClusterConfig::uniform(4, 1e6, 4))
        .await
        .unwrap();
    let enc = MetaEncryptor::with_points(b"backend", vec![1], vec![1]);
    let mut rng = roar_util::det_rng(4343);
    let meta = |i: u64| FileMeta {
        path: format!("/b/f{i}"),
        keywords: vec![format!("w{i}")],
        size: 1,
        mtime: 1,
    };
    let recs: Vec<_> = (0..100).map(|i| enc.encrypt(&mut rng, &meta(i))).collect();

    let before = record_clone_count();
    h.admin.store_records(&recs).await.unwrap();
    assert_eq!(record_clone_count(), before, "store_records cloned records");
    h.admin.set_p(2).await.unwrap();
    assert_eq!(
        record_clone_count(),
        before,
        "a set_p decrease cloned records"
    );
    // the decrease did push: every node holds its longer arc
    let ring = h.admin.ring();
    for node in 0..4 {
        let held = h.admin.node_record_count(node).await.unwrap();
        assert_eq!(held, h.admin.expected_records(&ring, node), "node {node}");
    }
}

/// Snapshot isolation under a free-running writer: a reader thread takes
/// snapshots as fast as it can while batches (and the merges they trigger)
/// land; every snapshot holds each batch whole or not at all, and a batch
/// once seen stays. Sequentially: a snapshot taken before a store sees none
/// of it, one taken after sees all of it. The writer starts only once the
/// reader has taken its first snapshot, so on a fast machine the batches
/// cannot all land before the reader runs.
#[tokio::test]
async fn snapshots_never_observe_half_a_batch() {
    const BATCHES: u64 = 150;
    const BATCH: u64 = 40;
    let node = node();
    let done = Arc::new(AtomicBool::new(false));
    let (started, reader_started) = std::sync::mpsc::channel();
    let reader = {
        let (node, done) = (Arc::clone(&node), Arc::clone(&done));
        std::thread::spawn(move || {
            let (mut snapshots, mut seen_before) = (0u64, 0);
            // ORDERING: SeqCst — the flag publishes nothing; the last pass
            // after it reads whatever the writer's lock released
            while !done.load(Ordering::SeqCst) {
                let snapshot = node.store_snapshot();
                let mut held = [0u64; BATCHES as usize];
                let ids = snapshot.runs().iter().flat_map(|run| run.ids());
                ids.for_each(|id| held[(id / 1_000) as usize] += 1);
                assert!(
                    held.iter().all(|&n| n == 0 || n == BATCH),
                    "a snapshot holds part of a batch: {held:?}"
                );
                let seen = held.iter().filter(|&&n| n == BATCH).count();
                assert!(seen >= seen_before, "a stored batch disappeared");
                seen_before = seen;
                snapshots += 1;
                if snapshots == 1 {
                    started.send(()).expect("the writer waits for it");
                }
            }
            snapshots
        })
    };
    reader_started.recv().expect("the reader took a snapshot");
    for batch in 0..BATCHES {
        let before = node.store_snapshot();
        assert_eq!(
            node.clone().handle(store_msg(batch * 1_000, BATCH)).await,
            Msg::Ok
        );
        let after = node.store_snapshot();
        assert_eq!(before.len() as u64, batch * BATCH, "the old snapshot moved");
        assert_eq!(after.len() as u64, (batch + 1) * BATCH);
    }
    done.store(true, Ordering::SeqCst);
    let snapshots = reader.join().expect("reader panicked");
    assert!(snapshots > 0);
    // 150 batches of 40 merged along the way: few runs are left
    assert!(node.store_snapshot().runs().len() < 20);
}
