//! Pins the matcher pool's thread budget: a process runs one pool, one
//! worker per CPU, however many nodes it hosts. An 8-node cluster at
//! p = 2 whose every window holds more than one matcher chunk sends every
//! sub-query of a concurrent crowd to the pool; a pool per node would start
//! a set of workers on every node the crowd reaches, and the CPUs would
//! time-slice between them instead of running each scan to completion.
//!
//! Runs in its own process (integration test) so no other suite's scans
//! start matcher threads here. `ROAR_TRANSPORT=tcp|udp|ccudp` pins the
//! transport (tcp when unset), as in `tests/cluster_e2e.rs`.

use roar_cluster::{
    spawn_cluster, ClusterConfig, QueryBody, SchedOpts, TransportSpec, WireTrapdoor,
};
use roar_pps::engine::match_corpus;
use roar_pps::metadata::{FileMeta, MetaEncryptor};
use roar_pps::query::{Combiner, Predicate, QueryCompiler, MATCH_CHUNK};

const NODES: usize = 8;
const P: usize = 2;
/// Records in the corpus: a window of 1/p of the ring holds about twice
/// `MATCH_CHUNK`, so every sub-query is a multi-chunk scan.
const RECORDS: usize = 4 * MATCH_CHUNK;
const REAL: usize = 64;
const CROWD: usize = 24;

/// Matcher threads alive in this process: the pool names its workers
/// `roarm-w<i>`.
fn matcher_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("roarm-"))
        .count()
}

fn transport() -> TransportSpec {
    let name = std::env::var("ROAR_TRANSPORT").unwrap_or_else(|_| "tcp".into());
    TransportSpec::from_name(&name)
        .unwrap_or_else(|| panic!("ROAR_TRANSPORT={name} is not a known transport (tcp|udp|ccudp)"))
}

#[tokio::test]
async fn a_crowd_on_eight_nodes_runs_on_one_pool_sized_to_the_cpus() {
    let enc = MetaEncryptor::with_points(b"pool", vec![1], vec![1]);
    let mut rng = roar_util::det_rng(53);
    let mut corpus: Vec<_> = (0..REAL)
        .map(|i| {
            let meta = FileMeta {
                path: format!("/p/f{i}"),
                keywords: vec![format!("kw{}", i % 8)],
                size: 1,
                mtime: 1,
            };
            enc.encrypt(&mut rng, &meta)
        })
        .collect();
    corpus.extend(roar_workload::fast_random_metadata(
        &mut rng,
        RECORDS - REAL,
    ));
    let qc = QueryCompiler::new(&enc);
    let queries: Vec<_> = (0..8)
        .map(|k| qc.compile(&[Predicate::Keyword(format!("kw{k}"))], Combiner::And))
        .collect();
    let oracle: Vec<Vec<u64>> = (queries.iter())
        .map(|q| {
            let mut ids = match_corpus(&corpus, q).0;
            ids.sort_unstable();
            ids
        })
        .collect();

    let cfg = ClusterConfig::uniform(NODES, 1e6, P).with_transport(transport());
    let h = spawn_cluster(cfg).await.expect("spawn");
    h.admin.store_records(&corpus).await.expect("store");
    assert_eq!(matcher_threads(), 0, "storing started no scan");

    // Algorithm 1 at pq = p: two sub-queries of half the ring each
    let sched = SchedOpts {
        max_splits: 0,
        ..SchedOpts::paper()
    };
    let crowd: Vec<_> = (0..CROWD)
        .map(|i| {
            let client = h.client.clone();
            let q = &queries[i % queries.len()];
            let body = QueryBody::Pps {
                trapdoors: q
                    .trapdoors
                    .iter()
                    .map(WireTrapdoor::from_trapdoor)
                    .collect(),
                conjunctive: true,
            };
            tokio::spawn(async move { client.query(body).sched(sched).run().await })
        })
        .collect();
    for (i, query) in crowd.into_iter().enumerate() {
        let out = query.await.expect("query task");
        assert_eq!(out.harvest, 1.0, "query {i}");
        assert_eq!(out.subqueries, P, "query {i}: one sub-query per partition");
        assert_eq!(out.scanned, RECORDS as u64, "query {i}");
        let mut got = out.matches;
        got.sort_unstable();
        assert_eq!(got, oracle[i % queries.len()], "query {i}");
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(h.nodes[0].matcher_pool_width(), cpus);
    // the pool's workers outlive the crowd: every one ever started is here
    let threads = matcher_threads();
    assert!(
        (1..=cpus).contains(&threads),
        "{threads} matcher threads beside a {CROWD}-query crowd on {NODES} nodes \
         (budget: {cpus} CPUs)"
    );
    for node in 0..NODES {
        h.admin.kill_node(node).await;
    }
}
