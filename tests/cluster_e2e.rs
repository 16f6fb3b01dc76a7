//! End-to-end integration across the whole stack: encrypted search on a
//! live cluster through the typed client/admin API — store, query (batch
//! and streaming), repartition, fail, hedge — the lifecycle a production
//! deployment would see, on every transport (pin one via
//! `ROAR_TRANSPORT=tcp|udp|ccudp` — CI's transport matrix does).

use rand::Rng;
use roar::cluster::{
    spawn_cluster, ClusterConfig, HedgePolicy, QueryBody, SchedOpts, SubStatus, TransportSpec,
    WireTrapdoor,
};
use roar::pps::metadata::{FileMeta, MetaEncryptor};
use roar::pps::query::{Combiner, Predicate, QueryCompiler};
use roar::util::det_rng;
use std::time::Duration;

/// CI's transport matrix pins one transport per leg via `ROAR_TRANSPORT`
/// (`tcp` / `udp` / `ccudp`); unset means "run every transport's test".
/// An unrecognised value is a hard error — a typo in a workflow must not
/// silently skip the whole suite.
fn pinned_transport() -> Option<String> {
    match std::env::var("ROAR_TRANSPORT") {
        Ok(name) => {
            assert!(
                TransportSpec::from_name(&name).is_some(),
                "ROAR_TRANSPORT={name} is not a known transport (tcp|udp|ccudp)"
            );
            Some(name)
        }
        Err(_) => None,
    }
}

/// Should the test for `transport` run under the current pinning?
fn enabled(transport: &str) -> bool {
    pinned_transport().is_none_or(|p| p == transport)
}

/// The transport fixed-transport tests use: the pinned one, default TCP.
fn default_spec() -> TransportSpec {
    match pinned_transport() {
        Some(name) => TransportSpec::from_name(&name).expect("validated above"),
        None => TransportSpec::Tcp,
    }
}

fn pps_body(enc: &MetaEncryptor, word: &str) -> QueryBody {
    let q = QueryCompiler::new(enc).compile(&[Predicate::Keyword(word.into())], Combiner::And);
    QueryBody::Pps {
        trapdoors: q
            .trapdoors
            .iter()
            .map(WireTrapdoor::from_trapdoor)
            .collect(),
        conjunctive: true,
    }
}

async fn full_lifecycle(transport: TransportSpec) {
    let h = spawn_cluster(ClusterConfig::uniform(9, 1_000_000.0, 3).with_transport(transport))
        .await
        .unwrap();
    // use a fast numeric grid for test-speed encryption
    let enc = MetaEncryptor::with_points(b"alice", vec![1_000_000], vec![1_300_000_000]);
    let mut rng = det_rng(2001);

    // 1. store an encrypted corpus with one needle
    let mut records = Vec::new();
    for i in 0..120 {
        records.push(enc.encrypt(
            &mut rng,
            &FileMeta {
                path: format!("/docs/f{i}"),
                keywords: if i == 60 {
                    vec!["needle".into()]
                } else {
                    vec![format!("w{i}")]
                },
                size: 100 + i as u64,
                mtime: 1_400_000_000,
            },
        ));
    }
    let needle = records[60].id;
    h.admin.store_records(&records).await.unwrap();

    // 2. encrypted query finds exactly the needle (paper sched defaults)
    let out = h.client.query(pps_body(&enc, "needle")).run().await;
    assert_eq!(out.matches, vec![needle]);
    assert_eq!(out.scanned, 120);

    // 2b. the same query as a stream: one Done partial per window, the
    // needle in exactly one of them
    let mut stream = h.client.query(pps_body(&enc, "needle")).stream();
    let mut needle_hits = 0;
    let mut windows = 0;
    while let Some(partial) = stream.next().await {
        assert_eq!(partial.status, SubStatus::Done);
        needle_hits += partial.matches.iter().filter(|&&m| m == needle).count();
        windows += 1;
    }
    let out = stream.finish();
    assert_eq!(needle_hits, 1, "the needle lands in exactly one window");
    assert!(windows >= 3);
    assert_eq!(out.harvest, 1.0);

    // 3. repartition up and down; correctness must hold at every step
    for new_p in [6usize, 2, 4] {
        h.admin.set_p(new_p).await.unwrap();
        let out = h.client.query(pps_body(&enc, "needle")).run().await;
        assert_eq!(out.matches, vec![needle], "p = {new_p}");
        assert_eq!(out.scanned, 120, "exactly-once at p = {new_p}");
    }

    // 4. kill a node (r = 9/4 ≥ 2): the fall-back keeps full harvest
    h.admin.kill_node(1).await;
    let out = h.client.query(pps_body(&enc, "needle")).run().await;
    assert_eq!(out.matches, vec![needle], "after failure");
    assert_eq!(out.scanned, 120, "exactly-once after failure");
    assert_eq!(out.harvest, 1.0);

    // 5. a hedged encrypted query over the degraded cluster stays exact
    let out = h
        .client
        .query(pps_body(&enc, "needle"))
        .pq(6)
        .hedge(HedgePolicy::after(Duration::from_millis(150)))
        .run()
        .await;
    assert_eq!(out.matches, vec![needle], "hedged after failure");
    assert_eq!(out.scanned, 120, "exactly-once hedged");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn full_lifecycle_store_query_repartition_fail() {
    if !enabled("tcp") {
        return;
    }
    full_lifecycle(TransportSpec::Tcp).await
}

// the same lifecycle over the §4.8.4 datagram path: the transport trait
// boundary means nothing above the RPC layer can tell the difference
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn full_lifecycle_over_udp_transport() {
    if !enabled("udp") {
        return;
    }
    full_lifecycle(TransportSpec::udp()).await
}

// and over the congestion-controlled datagram path: adaptive RTO, AIMD
// window and pacing must be invisible to everything above the RPC layer
#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn full_lifecycle_over_ccudp_transport() {
    if !enabled("ccudp") {
        return;
    }
    full_lifecycle(TransportSpec::ccudp()).await
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn updates_visible_to_subsequent_queries() {
    let h = spawn_cluster(ClusterConfig::uniform(6, 1_000_000.0, 2).with_transport(default_spec()))
        .await
        .unwrap();
    let enc = MetaEncryptor::with_points(b"bob", vec![1_000_000], vec![1_300_000_000]);
    let mut rng = det_rng(2002);
    let first = enc.encrypt(
        &mut rng,
        &FileMeta {
            path: "/a".into(),
            keywords: vec!["alpha".into()],
            size: 1,
            mtime: 1_400_000_000,
        },
    );
    h.admin
        .store_records(std::slice::from_ref(&first))
        .await
        .unwrap();
    assert_eq!(
        h.client.query(pps_body(&enc, "alpha")).run().await.matches,
        vec![first.id]
    );
    // late update: a second document arrives
    let second = enc.encrypt(
        &mut rng,
        &FileMeta {
            path: "/b".into(),
            keywords: vec!["alpha".into(), "beta".into()],
            size: 2,
            mtime: 1_500_000_000,
        },
    );
    h.admin
        .store_records(std::slice::from_ref(&second))
        .await
        .unwrap();
    let mut expect = vec![first.id, second.id];
    expect.sort_unstable();
    assert_eq!(
        h.client.query(pps_body(&enc, "alpha")).run().await.matches,
        expect
    );
    assert_eq!(
        h.client.query(pps_body(&enc, "beta")).run().await.matches,
        vec![second.id]
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn balance_step_keeps_queries_exact() {
    let cfg = ClusterConfig {
        speeds: vec![
            800_000.0, 200_000.0, 800_000.0, 200_000.0, 800_000.0, 200_000.0,
        ],
        p: 2,
        overhead_s: 0.0,
        transport: default_spec(),
        fault_gates: false,
    };
    let h = spawn_cluster(cfg).await.unwrap();
    let mut rng = det_rng(2003);
    let ids: Vec<u64> = (0..800).map(|_| rng.gen()).collect();
    h.admin.store_synthetic(&ids).await.unwrap();
    // learn speeds, then balance a few rounds
    for _ in 0..6 {
        let _ = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .pq(6)
            .run()
            .await;
    }
    for _ in 0..5 {
        let _ = h.admin.balance_step().await.unwrap();
        let out = h
            .client
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
        assert_eq!(
            out.scanned as usize,
            ids.len(),
            "exactness preserved while balancing"
        );
    }
    // fast nodes should now own more ring than slow ones (on average)
    let fr = h.admin.range_fractions();
    let fast: f64 = fr.iter().filter(|(n, _)| n % 2 == 0).map(|&(_, f)| f).sum();
    let slow: f64 = fr.iter().filter(|(n, _)| n % 2 == 1).map(|&(_, f)| f).sum();
    assert!(
        fast > slow,
        "fast nodes should hold larger ranges: fast={fast:.3} slow={slow:.3}"
    );
}
