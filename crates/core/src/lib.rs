//! # ROAR — Rendezvous On A Ring
//!
//! The reference implementation of the SIGCOMM 2009 / UCL-thesis ROAR
//! algorithm (Raiciu et al.): a distributed-rendezvous layout that arranges
//! servers on a continuous ring so that the partitioning/replication
//! trade-off (`r · p = n`) can be re-tuned on the fly, without stopping the
//! system and while moving the minimum possible amount of data.
//!
//! The crate is organised along the paper's Chapter 4:
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`ring`] | §4, §4.2 | continuous ID space, query points, match windows |
//! | [`ringmap`] | §4, §4.3/4.4 | node range assignment, join/leave/boundary moves |
//! | [`placement`] | §4.1–4.2, §4.5 | replication arcs, query planning, `pq > p` dedup, the partitioning level |
//! | [`failover`] | §4.4 | sub-query splitting around failed nodes |
//! | [`balance`] | §4.6, §4.9 | proportional-range load balancing |
//! | [`multiring`] | §4.7 | multiple sliding windows (k rings) |
//! | [`sched`] | §4.8.1 | Algorithm 1 and its straw-man/randomised rivals |
//! | [`adjust`] | §4.8.2 | range adjustment optimisation |
//! | [`split`] | §4.8.2 | dynamic sub-query splitting optimisation |
//! | [`stats`] | §4.8 | live per-node speed/queue estimation (EWMA) |
//!
//! Everything here is pure, synchronous and deterministic: the networked
//! deployment lives in `roar-cluster`, the delay simulator in `roar-sim`,
//! and both drive this crate through the `roar-dr` scheduling traits.
//!
//! ## Quick example
//!
//! ```
//! use roar_core::ringmap::RingMap;
//! use roar_core::placement::RoarRing;
//!
//! // 12 equal nodes, partitioning level 4 (so r = 3)
//! let ring = RoarRing::new(RingMap::uniform(&(0..12).collect::<Vec<_>>()), 4);
//!
//! // store: which nodes hold object 0xDEAD_BEEF?
//! let replicas = ring.replicas(0xDEAD_BEEF);
//! assert!(replicas.len() >= 3);
//!
//! // query: 4 sub-queries whose windows partition the ring
//! let plan = ring.plan(42, 4);
//! assert_eq!(plan.subs.len(), 4);
//! let matcher = plan.matcher_of(0xDEAD_BEEF).unwrap();
//! assert!(replicas.contains(&matcher.node));
//! ```

#![forbid(unsafe_code)]

pub mod adjust;
pub mod balance;
pub mod failover;
pub mod multiring;
pub mod placement;
pub mod ring;
pub mod ringmap;
pub mod sched;
pub mod split;
pub mod stats;

pub use adjust::adjust_plan;
pub use balance::{balance_step, BalanceConfig};
pub use failover::{reroute_plan, FailoverError};
pub use multiring::{MultiRing, MultiRingScheduler};
pub use placement::{QueryPlan, RoarRing, SubQuery};
pub use ring::{RingPos, Window};
pub use ringmap::{NodeId, RingMap};
pub use sched::{schedule_sweep, RoarScheduler, Strategy};
pub use split::split_slowest;
pub use stats::ServerStats;
