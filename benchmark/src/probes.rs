//! Stand-alone probes: each calls one layer's public functions directly,
//! on the workload's own cluster, windows and queries, after the measured
//! window. They give every layer a number that does not depend on the
//! layers around it — the number a change to that layer should move first.

use crate::report::Metrics;
use crate::stats::percentile;
use crate::workloads::{body_of, Inputs, Spec, WRITE_BATCH};
use roar_cluster::proto::WireRecord;
use roar_cluster::{AdmissionController, ClusterHandle, Msg, SloConfig};
use roar_core::sched::{RoarScheduler, Strategy};
use roar_core::stats::ServerStats;
use roar_crypto::hmac::HmacKey;
use roar_crypto::sha1::Backend;
use roar_pps::{BatchEngine, EncryptedMetadata, QueryTask, TaskCorpus};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

pub async fn run(m: &mut Metrics, spec: &Spec, h: &ClusterHandle, inputs: &Inputs) {
    core_and_admission(m, spec, h);
    proto(m, inputs);
    transport_and_node(m, h, inputs).await;
    pps_and_crypto(m, spec, h, inputs);
}

/// `core.`: Algorithm 1 plus window planning at the workload's n and p;
/// `admission.`: one decide + observe pair at the door.
fn core_and_admission(m: &mut Metrics, spec: &Spec, h: &ClusterHandle) {
    let sched = RoarScheduler::new(h.admin.ring(), spec.p, Strategy::Sweep);
    let stats = ServerStats::new(spec.n, 1.0, 0.2);
    let ns = ns_per_call(2_000, |i| {
        black_box(sched.schedule_with_plan(&stats, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    });
    m.set("core.plan_probe_us", ns / 1e3);

    let door = AdmissionController::new(SloConfig::new(Duration::from_millis(100)));
    let ns = ns_per_call(100_000, |i| {
        let predicted = 0.001 * (i % 50) as f64;
        black_box(door.decide(predicted));
        door.observe(predicted);
    });
    m.set("admission.decide_ns_per_call", ns);
}

fn write_batch_msg(records: &[EncryptedMetadata]) -> Msg {
    Msg::Store {
        records: records.iter().map(WireRecord::from_record).collect(),
        synthetic_ids: Vec::new(),
    }
}

/// `proto.`: the codec on the workload's own messages.
fn proto(m: &mut Metrics, inputs: &Inputs) {
    let sub = Msg::SubQuery {
        query_id: 1,
        window_start: 0,
        window_end: u64::MAX / 2,
        body: body_of(&inputs.queries[0]),
        backend: None,
    };
    m.set("proto.subquery_bytes", sub.encode().len() as f64);
    m.set(
        "proto.encode_subquery_ns",
        ns_per_call(20_000, |_| {
            black_box(black_box(&sub).encode());
        }),
    );
    // a result carrying 64 matches, a typical answer on these corpora
    let result = Msg::SubQueryResult {
        query_id: 1,
        matches: inputs.corpus.iter().take(64).map(|r| r.id).collect(),
        scanned: inputs.corpus.len() as u64,
        proc_s: 0.001,
    }
    .encode();
    m.set("proto.result_bytes", result.len() as f64);
    m.set(
        "proto.decode_result_ns",
        ns_per_call(20_000, |_| {
            black_box(Msg::decode(black_box(&result)));
        }),
    );
    let batch = &inputs.corpus[..WRITE_BATCH.min(inputs.corpus.len())];
    m.set(
        "proto.store_batch_bytes",
        write_batch_msg(batch).encode().len() as f64,
    );
}

/// `transport.` and `node.`: a fresh link of the workload's transport
/// straight to one live node, no front-end in between.
async fn transport_and_node(m: &mut Metrics, h: &ClusterHandle, inputs: &Inputs) {
    let ring = h.admin.ring();
    let plan = ring.plan(0, ring.p());
    let sub = plan.subs[0];
    let Ok(link) = h.transport.build().connect(h.addrs[sub.node]).await else {
        return;
    };

    let mut rtts = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        if matches!(link.rpc(Msg::Ping, RPC_TIMEOUT).await, Ok(Msg::Pong)) {
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.set("transport.ping_rtt_us_p50", percentile(&rtts, 50.0));

    // the chunked path: 64 records the node already stores (re-storing a
    // record replaces it in place, so the node's contents do not change)
    let owned: Vec<EncryptedMetadata> = inputs
        .corpus
        .iter()
        .filter(|r| ring.stores(sub.node, r.id))
        .take(WRITE_BATCH)
        .cloned()
        .collect();
    let store = write_batch_msg(&owned);
    let bytes = store.encode().len() as f64;
    let t = Instant::now();
    let mut stored = 0;
    for _ in 0..20 {
        if matches!(link.rpc(store.clone(), RPC_TIMEOUT).await, Ok(Msg::Ok)) {
            stored += 1;
        }
    }
    m.set(
        "transport.store_rpc_mb_per_s",
        stored as f64 * bytes / 1e6 / t.elapsed().as_secs_f64(),
    );

    let mut direct = Vec::with_capacity(40);
    for i in 0..40 {
        let msg = Msg::SubQuery {
            query_id: sub.point,
            window_start: sub.window.start,
            window_end: sub.window.end,
            body: body_of(&inputs.queries[i % inputs.queries.len()]),
            backend: None,
        };
        let t = Instant::now();
        if matches!(
            link.rpc(msg, RPC_TIMEOUT).await,
            Ok(Msg::SubQueryResult { .. })
        ) {
            direct.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.set("node.direct_subquery_us_p50", percentile(&direct, 50.0));
}

/// `pps.` and `crypto.`: the matcher on one of the workload's own
/// sub-query windows, inline and through a matcher pool of the node's
/// width with 1 and 8 tasks resident; then the bare MAC sweep beneath it.
fn pps_and_crypto(m: &mut Metrics, spec: &Spec, h: &ClusterHandle, inputs: &Inputs) {
    let ring = h.admin.ring();
    let window = ring.plan(0, spec.p).subs[0].window;
    let records: Arc<Vec<EncryptedMetadata>> = Arc::new(
        inputs
            .corpus
            .iter()
            .filter(|r| window.contains(r.id))
            .cloned()
            .collect(),
    );
    let backend = Backend::auto();
    let task = |q: usize| {
        QueryTask::new(
            inputs.queries[q % inputs.queries.len()].clone(),
            TaskCorpus::Records(Arc::clone(&records)),
            backend,
        )
    };
    // enough passes over the window that the timed span is tens of ms
    let passes = (400_000 / records.len().max(1)).clamp(8, 512);

    let t = Instant::now();
    for q in 0..passes {
        black_box(task(q).run_inline());
    }
    let scanned = (passes * records.len()) as f64;
    m.set(
        "pps.inline_records_per_s",
        scanned / t.elapsed().as_secs_f64(),
    );

    let engine = BatchEngine::new(h.nodes[0].matcher_pool_width());
    for (name, resident) in [
        ("pps.batch_records_per_s_1q", 1),
        ("pps.batch_records_per_s_8q", 8),
    ] {
        let t = Instant::now();
        for first in (0..passes).step_by(resident) {
            let handles: Vec<_> = (first..(first + resident).min(passes))
                .map(|q| engine.submit_handle(task(q)))
                .collect();
            for handle in handles {
                black_box(handle.wait());
            }
        }
        m.set(name, scanned / t.elapsed().as_secs_f64());
    }

    let key = HmacKey::new(b"roar-benchmark probe");
    let nonces: Vec<[u8; 8]> = (0..65_536u64).map(|i| i.to_be_bytes()).collect();
    let mut out = vec![0u64; nonces.len()];
    let reps = 8;
    let t = Instant::now();
    for _ in 0..reps {
        key.mac_u64_nonces_with(backend, black_box(&nonces), &mut out);
        black_box(&out);
    }
    m.set(
        "crypto.mac_per_s",
        (reps * nonces.len()) as f64 / t.elapsed().as_secs_f64(),
    );
}
