//! # roar — Rendezvous On A Ring
//!
//! A full Rust reproduction of **ROAR** (Raiciu et al., SIGCOMM 2009 / UCL
//! thesis 2011): a distributed-rendezvous search layer whose
//! partitioning/replication trade-off (`r · p = n`) can be re-tuned while
//! the system runs, plus the **Privacy Preserving Search** application the
//! paper evaluates it with.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] (`roar-core`) | the ROAR algorithm: ring (the one home of `p`), placement, Algorithm 1 scheduler, failover, balancing, multi-ring |
//! | [`dr`] (`roar-dr`) | distributed-rendezvous abstractions + PTN / SW / RAND baselines, bandwidth/delay trade-off models |
//! | [`pps`] (`roar-pps`) | encrypted keyword/pair/numeric/ranked/generic matching and the matching engine |
//! | [`cluster`] (`roar-cluster`) | networked deployment: data nodes, front-end (+backup p discovery), live membership, p2p store forwarding, pluggable TCP / reliable-UDP transports |
//! | [`sim`] (`roar-sim`) | discrete-event delay/availability simulator, energy + admission models |
//! | [`workload`] (`roar-workload`) | corpora, query streams, server fleets, diurnal load |
//! | [`crypto`] (`roar-crypto`) | SHA-1 / HMAC PRF / Feistel PRP / Bloom filters / boolean circuits + Yao garbling |
//! | [`util`] (`roar-util`) | statistics, samplers, reporting |
//!
//! ## Quickstart
//!
//! ```no_run
//! use roar::cluster::{spawn_cluster, ClusterConfig, HedgePolicy, QueryBody};
//! use std::time::Duration;
//!
//! #[tokio::main]
//! async fn main() -> std::io::Result<()> {
//!     // 12 nodes, partitioning level 4 (so each object has ~3 replicas)
//!     let h = spawn_cluster(ClusterConfig::uniform(12, 1_000_000.0, 4)).await?;
//!     h.admin.store_synthetic(&(0..10_000u64).map(|i| i * 1_234_567).collect::<Vec<_>>())
//!         .await.expect("store");
//!     // batch: collect every window
//!     let out = h.client.query(QueryBody::Synthetic).run().await;
//!     println!("delay {:.1} ms over {} sub-queries", out.wall_s * 1e3, out.subqueries);
//!     // streaming: partial results, a deadline, hedged stragglers
//!     let mut stream = h.client.query(QueryBody::Synthetic)
//!         .deadline(Duration::from_millis(20))
//!         .hedge(HedgePolicy::after(Duration::from_millis(8)))
//!         .stream();
//!     while let Some(partial) = stream.next().await {
//!         println!("window {} from node {:?}", partial.index, partial.responder);
//!     }
//!     println!("harvest {:.0}%", stream.finish().harvest * 100.0);
//!     Ok(())
//! }
//! ```
//!
//! See `examples/` for PPS search, elastic repartitioning, failure handling
//! and heterogeneous scheduling, `docs/architecture.md` for the crate map
//! and the README's *Benchmarks* section for the committed measurements.

pub use roar_cluster as cluster;
pub use roar_core as core;
pub use roar_crypto as crypto;
pub use roar_dr as dr;
pub use roar_pps as pps;
pub use roar_sim as sim;
pub use roar_util as util;
pub use roar_workload as workload;

/// Workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // touch one symbol per re-exported crate
        let _ = crate::core::ring::arc_len(4);
        let _ = crate::dr::DrConfig::new(4, 2);
        let _ = crate::crypto::sha1::sha1(b"x");
        let _ = crate::util::mean(&[1.0]);
        assert!(!crate::VERSION.is_empty());
    }
}
