//! Pins the reactor runtime's headline property at cluster scale: a
//! 128-node cluster — 128 accept loops, hundreds of live connections,
//! per-link recv tasks and RTO timers — runs in a **fixed** number of OS
//! threads. Under the seed thread-per-task executor this scenario held
//! several hundred threads; any regression back toward O(nodes) threads
//! trips the budget immediately.
//!
//! Runs in its own process (integration test) so no other suite's
//! matcher pool inflates the count.

use roar_cluster::{spawn_cluster, ClusterConfig, QueryBody};
use roar_util::det_rng;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// 1 test main + 1 reactor + the fixed worker pool (8) + harness slack.
/// The matcher pool is one per process, sized to its CPUs, and lazy —
/// synthetic queries never start it. A thread-per-task regression lands
/// this in the hundreds.
const THREAD_BUDGET: usize = 32;

#[tokio::test]
async fn cluster_of_128_nodes_stays_under_thread_budget() {
    let h = spawn_cluster(ClusterConfig::uniform(128, 1e6, 8))
        .await
        .expect("spawn 128-node cluster");

    use rand::Rng;
    let mut rng = det_rng(411);
    let ids: Vec<u64> = (0..1000).map(|_| rng.gen()).collect();
    h.admin.store_synthetic(&ids).await.expect("store corpus");

    // exercise the full query path so every link, timer and recv loop is
    // live when we sample the thread count
    for _ in 0..2 {
        let out = h.client.query(QueryBody::Synthetic).run().await;
        assert_eq!(out.harvest, 1.0);
    }

    let threads = process_threads();
    assert!(
        threads <= THREAD_BUDGET,
        "128-node cluster is holding {threads} OS threads (budget {THREAD_BUDGET}): \
         the runtime has regressed toward thread-per-task"
    );
}
