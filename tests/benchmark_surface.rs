//! Compile-only pin of the surface the frozen `benchmark/` crate builds
//! against.
//!
//! `benchmark/` is its own workspace: the root `cargo build` / `cargo test`
//! never compile it, yet it names ~60 public items of this workspace, and a
//! PR that renames one of them only finds out when the benchmark run fails
//! after the fact. This file names every workspace item
//! `benchmark/src/{run,workloads,probes,report,stats}.rs` name — the `use`
//! lists, the fully qualified paths, the struct fields read and the enum
//! variants built — with the call shapes used there, so the break shows up
//! in tier-1 `cargo test` as a compile error instead.
//!
//! Nothing here runs. When `benchmark/` is revised, revise this file with
//! it; when this file stops compiling, the change breaks the benchmark.
#![allow(dead_code)]

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

// run.rs
use roar_cluster::{
    connect_with, spawn_cluster, Admin, ClusterConfig, ClusterHandle, QueryBody, QueryBuilder,
    QueryClient, QueryOutput, SchedOpts, SubStatus,
};
use roar_workload::Arrival;
// workloads.rs
use roar_cluster::{TransportSpec, WireTrapdoor};
use roar_pps::metadata::{EncryptedMetadata, MetaEncryptor};
use roar_pps::query::{Combiner, CompiledQuery, Predicate, QueryCompiler};
use roar_util::{det_rng, Zipf};
use roar_workload::corpus::VOCABULARY;
use roar_workload::{fast_random_metadata, CorpusGenerator, OpenLoopGen, QueryGenerator};
// probes.rs
use roar_cluster::proto::WireRecord;
use roar_cluster::{AdmissionController, Msg, SloConfig};
use roar_core::sched::{RoarScheduler, Strategy};
use roar_core::stats::ServerStats;
use roar_crypto::hmac::HmacKey;
use roar_crypto::sha1::Backend;
use roar_pps::{BatchEngine, QueryTask, TaskCorpus, TaskResult};
// stats.rs
use roar_util::percentile;

/// workloads.rs: `Spec::sched`, `Spec::transport_spec`, `generate`,
/// `body_of`, `Oracle::build`.
fn workloads() -> (Vec<EncryptedMetadata>, Vec<CompiledQuery>, QueryBody) {
    let sched = SchedOpts {
        max_splits: 0,
        pq: Some(3),
        ..SchedOpts::paper()
    };
    let _copy: (SchedOpts, SchedOpts) = (sched, sched);
    let _spec: TransportSpec = TransportSpec::from_name("tcp").expect("known transport");

    let enc = MetaEncryptor::new(b"key");
    let mut rng = det_rng(1);
    let gen = CorpusGenerator::new();
    let file = gen.file(&mut rng, 0usize);
    let mut corpus: Vec<EncryptedMetadata> = vec![enc.encrypt(&mut rng, &file)];
    corpus.extend(fast_random_metadata(&mut rng, 4usize));
    corpus.sort_by_key(|r| r.id);

    let qc = QueryCompiler::new(&enc);
    let zipf = Zipf::new(VOCABULARY, 1.2);
    let (preds, combiner): (Vec<Predicate>, Combiner) = QueryGenerator::new().realistic(&mut rng);
    let queries: Vec<CompiledQuery> = vec![
        qc.compile(&preds, combiner),
        qc.compile(
            &[Predicate::Keyword(CorpusGenerator::keyword(
                zipf.sample(&mut rng),
            ))],
            Combiner::And,
        ),
    ];

    let raw = OpenLoopGen::constant(60.0, 7u64)
        .popularity(64usize, 1.0)
        .schedule(10.0);
    let arrivals: Vec<Arrival> = raw
        .iter()
        .map(|a| Arrival {
            at_s: a.at_s,
            rank: a.rank,
        })
        .collect();

    // the input hash reads these fields
    let mut words: Vec<u64> = Vec::new();
    for r in &corpus {
        words.extend([r.id, r.body.nonce]);
    }
    for q in &queries {
        words.push(q.trapdoors.len() as u64);
        words.push(u64::from(q.combiner == Combiner::And));
        let _bytes: usize = q
            .trapdoors
            .iter()
            .flat_map(|td| td.parts.iter())
            .map(|part| part.len())
            .sum();
    }
    for a in &arrivals {
        words.extend([a.at_s.to_bits(), a.rank as u64]);
    }

    let q = &queries[0];
    let body = QueryBody::Pps {
        trapdoors: q
            .trapdoors
            .iter()
            .map(WireTrapdoor::from_trapdoor)
            .collect(),
        conjunctive: q.combiner == Combiner::And,
    };
    let (_ids, _prf): (Vec<u64>, u64) = roar_pps::engine::match_corpus(&corpus, q);
    (corpus, queries, body)
}

/// run.rs: `set_up`, `traced_attempt`, `run_query`, `writer`,
/// `repartitioner`, `sample_rounds`, `tear_down`.
async fn run(corpus: &[EncryptedMetadata], body: QueryBody, sched: SchedOpts) {
    let cfg = ClusterConfig::uniform(4usize, 1e6, 2usize).with_transport(TransportSpec::Tcp);
    let h: ClusterHandle = match spawn_cluster(cfg).await {
        Ok(h) => h,
        Err(e) => panic!("spawn_cluster: {e}"),
    };
    let mut clients: Vec<QueryClient> = vec![h.client.clone()];
    match connect_with(&h.addrs, 2usize, 1.0, h.transport.build()).await {
        Ok((client, _admin)) => clients.push(client),
        Err(e) => panic!("connect a front-end: {e}"),
    }
    if let Err(e) = h.admin.store_records(corpus).await {
        panic!("store_records: {e}");
    }

    let builder = |c: usize| -> QueryBuilder { clients[c].query(body.clone()).sched(sched) };
    let out: QueryOutput = builder(0)
        .retry_on_partial(2usize, Duration::from_millis(5))
        .run()
        .await;
    let _read = (
        out.harvest < 1.0,
        out.sched_s * 1e6,
        out.proc_max_s * 1e6,
        out.subqueries,
        out.hedges,
        out.refused,
        out.lost,
        out.rpc_error.is_some(),
        out.scanned,
        &out.matches[..],
    );

    let mut stream = builder(1).stream();
    let mut parts: Vec<(f64, bool)> = Vec::with_capacity(stream.planned());
    while let Some(part) = stream.next().await {
        parts.push((part.proc_s, part.status == SubStatus::Done));
    }
    let _out: QueryOutput = stream.finish();

    let admin: Admin = h.admin.clone();
    let ok = admin.set_p(3usize).await.is_ok();
    if !ok {
        admin.abort_repartition();
    }
    let _wakeups: u64 = tokio::runtime::reactor_wakeups();
    let slept: tokio::task::JoinHandle<()> =
        tokio::spawn(tokio::time::sleep(Duration::from_millis(1)));
    let _ = slept.await;
    for node in 0..h.nodes.len() {
        h.admin.kill_node(node).await;
    }
}

fn run_blocking(corpus: &[EncryptedMetadata], body: QueryBody, sched: SchedOpts) {
    tokio::runtime::block_on(run(corpus, body, sched));
}

/// probes.rs: `core_and_admission`, `proto`, `transport_and_node`.
async fn probes(h: &ClusterHandle, corpus: &[EncryptedMetadata], body: QueryBody) {
    let sched = RoarScheduler::new(h.admin.ring(), 2usize, Strategy::Sweep);
    let stats = ServerStats::new(4usize, 1.0, 0.2);
    black_box(sched.schedule_with_plan(&stats, 1u64));
    let door = AdmissionController::new(SloConfig::new(Duration::from_millis(100)));
    black_box(door.decide(0.001));
    door.observe(0.001);

    let ring = h.admin.ring();
    let plan = ring.plan(0, ring.p());
    let sub = plan.subs[0];
    let _still_usable = plan.subs[0]; // `SubQuery: Copy`
    let owned: Vec<EncryptedMetadata> = corpus
        .iter()
        .filter(|r| ring.stores(sub.node, r.id) && sub.window.contains(r.id))
        .cloned()
        .collect();

    let store = Msg::Store {
        records: owned.iter().map(WireRecord::from_record).collect(),
        synthetic_ids: Vec::new(),
    };
    let query = Msg::SubQuery {
        query_id: sub.point,
        window_start: sub.window.start,
        window_end: sub.window.end,
        body,
        backend: None,
    };
    let result: Vec<u8> = Msg::SubQueryResult {
        query_id: 1,
        matches: corpus.iter().take(64).map(|r| r.id).collect(),
        scanned: corpus.len() as u64,
        proc_s: 0.001,
    }
    .encode();
    let _lens = (store.encode().len(), black_box(&query).encode().len());
    black_box(Msg::decode(black_box(&result)));

    let Ok(link) = h.transport.build().connect(h.addrs[sub.node]).await else {
        return;
    };
    let timeout = Duration::from_secs(5);
    let _pong = matches!(link.rpc(Msg::Ping, timeout).await, Ok(Msg::Pong));
    let _stored = matches!(link.rpc(store.clone(), timeout).await, Ok(Msg::Ok));
    let _answered = matches!(
        link.rpc(query, timeout).await,
        Ok(Msg::SubQueryResult { .. })
    );
}

/// probes.rs: `pps_and_crypto`; report.rs: the fingerprint's backend name;
/// stats.rs: the re-exported percentile.
fn pps_and_crypto(h: &ClusterHandle, corpus: &[EncryptedMetadata], queries: &[CompiledQuery]) {
    let records: Arc<Vec<EncryptedMetadata>> = Arc::new(corpus.to_vec());
    let backend = Backend::auto();
    let _name: &str = backend.name();
    let task = |q: usize| {
        QueryTask::new(
            queries[q % queries.len()].clone(),
            TaskCorpus::Records(Arc::clone(&records)),
            backend,
        )
    };
    let inline: TaskResult = task(0).run_inline();
    let _read = (inline.matches.len(), inline.prf_calls);

    let engine = BatchEngine::new(h.nodes[0].matcher_pool_width());
    let handles: Vec<_> = (0..8).map(|q| engine.submit_handle(task(q))).collect();
    for handle in handles {
        let _res: TaskResult = black_box(handle.wait());
    }

    let key = HmacKey::new(b"probe");
    let nonces: Vec<[u8; 8]> = (0..16u64).map(|i| i.to_be_bytes()).collect();
    let mut out = vec![0u64; nonces.len()];
    key.mac_u64_nonces_with(backend, black_box(&nonces), &mut out);

    let _p50: f64 = percentile(&[1.0, 2.0, 3.0], 50.0);
}

/// The snapshot corpus form the node itself submits — named in the frozen
/// list though `benchmark/` only builds `TaskCorpus::Records`.
fn snapshot_corpus(store: Arc<roar_pps::MetadataStore>, w: &roar_core::ring::Window) {
    let direct = TaskCorpus::Snapshot {
        ranges: store.window_ranges(w),
        store: Arc::clone(&store),
    };
    let built = TaskCorpus::snapshot(store, w);
    let _same = direct.len() == built.len();
}

/// What a `ClusterHandle` is taken apart into.
fn handle_fields(h: ClusterHandle) {
    let ClusterHandle {
        client,
        admin,
        nodes,
        addrs,
        transport,
        ..
    } = h;
    let _ = (client, admin, nodes.len(), addrs.len(), transport.build());
}

#[test]
fn benchmark_surface_compiles() {
    // the assertion is that this file type-checks; keep every function
    // above reachable so none of it is compiled out
    let _ = (
        workloads as fn() -> _,
        run_blocking as fn(&[EncryptedMetadata], QueryBody, SchedOpts),
        pps_and_crypto as fn(&ClusterHandle, &[EncryptedMetadata], &[CompiledQuery]),
        snapshot_corpus as fn(Arc<roar_pps::MetadataStore>, &roar_core::ring::Window),
        handle_fields as fn(ClusterHandle),
    );
    let _ = |h, c, b| drop(probes(h, c, b));
}
