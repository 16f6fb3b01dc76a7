//! Allocation budget of the sub-query path: heap allocations a query makes
//! across the whole process — front end, transport, node and matcher —
//! divided by its sub-queries.
//!
//! The shape is the benchmark's `fanout_tcp`: n = 16 nodes at p = 16, so
//! a query is 16 sub-queries of 256-record windows, one real PPS body, one
//! client issuing queries back to back. Per-sub-query start-up cost is what
//! that shape measures, and an allocation is a visible share of it: the
//! budget holds the path's count so that a change that puts a per-sub-query
//! `Vec`, clone or spawn back shows up here, as a number.
//!
//! `ROAR_TRANSPORT=tcp|udp|ccudp` pins the transport (tcp when unset), as
//! in `tests/cluster_e2e.rs`; each has its own budget ([`budget`]). This is its own integration binary so the
//! process-wide counting allocator sees no other test's traffic.

use roar_cluster::{
    spawn_cluster, ClusterConfig, QueryBody, SchedOpts, TransportSpec, WireTrapdoor,
};
use roar_pps::metadata::{FileMeta, MetaEncryptor};
use roar_pps::query::{Combiner, Predicate, QueryCompiler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting calls that hand out a new block.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    // ORDERING: Relaxed — plain event counters, read after the measured
    // queries have been awaited
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // ORDERING: Relaxed — as above
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own arguments;
// counting touches only two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
    // which the body passes on to `System` unchanged
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
    // which the body passes on to `System` unchanged
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
    // which the body passes on to `System` unchanged
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller upholds this method's `GlobalAlloc` contract,
    // which the body passes on to `System` unchanged
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 16;
const RECORDS: usize = 4096;
const REAL: usize = 256;
const WARMUP: usize = 50;
const QUERIES: usize = 200;
/// Allocations per sub-query. Before the sub-query path borrowed its body,
/// decoded trapdoors flat and reused its frame and match buffers, tcp read
/// ≈ 105 and the datagram endpoints ≈ 112; before `select!` pinned its
/// futures on the stack, the datagram endpoints read ≈ 38 and now ≈ 30. They
/// still spawn a task per request and build a buffer per datagram sent, so
/// theirs is the looser bound.
fn budget(spec: &TransportSpec) -> f64 {
    match spec {
        TransportSpec::Tcp => 25.0,
        TransportSpec::Udp { .. } | TransportSpec::CcUdp { .. } => 32.0,
    }
}

fn transport() -> TransportSpec {
    let name = std::env::var("ROAR_TRANSPORT").unwrap_or_else(|_| "tcp".into());
    TransportSpec::from_name(&name)
        .unwrap_or_else(|| panic!("ROAR_TRANSPORT={name} is not a known transport (tcp|udp|ccudp)"))
}

#[tokio::test]
async fn a_fanout_subquery_stays_within_its_allocation_budget() {
    let spec = transport();
    let enc = MetaEncryptor::with_points(b"budget", vec![1], vec![1]);
    let mut rng = roar_util::det_rng(49);
    let mut corpus: Vec<_> = (0..REAL)
        .map(|i| {
            let meta = FileMeta {
                path: format!("/b/f{i}"),
                keywords: vec![format!("kw{}", i % 8), "common".into()],
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
    corpus.sort_by_key(|r| r.id);
    let query =
        QueryCompiler::new(&enc).compile(&[Predicate::Keyword("kw3".into())], Combiner::And);
    let body = QueryBody::Pps {
        trapdoors: query
            .trapdoors
            .iter()
            .map(WireTrapdoor::from_trapdoor)
            .collect(),
        conjunctive: true,
    };

    let cfg = ClusterConfig::uniform(NODES, 1e6, NODES).with_transport(spec.clone());
    let h = spawn_cluster(cfg).await.expect("spawn");
    h.admin.store_records(&corpus).await.expect("store");
    let expected = REAL / 8;
    // the benchmark's plan: Algorithm 1 at pq = p, no window splits
    let sched = SchedOpts {
        max_splits: 0,
        ..SchedOpts::paper()
    };
    for _ in 0..WARMUP {
        let out = h.client.query(body.clone()).sched(sched).run().await;
        assert_eq!(out.matches.len(), expected, "warm-up answer");
    }

    // ORDERING: Relaxed — see `count`
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let mut subqueries = 0;
    for _ in 0..QUERIES {
        let out = h.client.query(body.clone()).sched(sched).run().await;
        assert_eq!(out.harvest, 1.0);
        assert_eq!(out.matches.len(), expected);
        subqueries += out.subqueries;
    }
    let (a1, b1) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    assert_eq!(subqueries, QUERIES * NODES, "p = n: one sub-query per node");

    let per_sub = (a1 - a0) as f64 / subqueries as f64;
    let bytes_per_query = (b1 - b0) as f64 / QUERIES as f64;
    println!(
        "alloc_budget[{}]: {per_sub:.1} allocations per sub-query, {:.1} per query, \
         {:.1} KB per query",
        spec.name(),
        per_sub * NODES as f64,
        bytes_per_query / 1e3
    );
    let budget = budget(&spec);
    assert!(
        per_sub <= budget,
        "{per_sub:.1} allocations per sub-query over {QUERIES} queries on {} \
         (budget {budget})",
        spec.name()
    );
    for node in 0..NODES {
        h.admin.kill_node(node).await;
    }
}
