//! Networked ROAR deployment (§7.1's testbed, rebuilt on tokio).
//!
//! Three roles, exactly as the thesis deploys them:
//!
//! * **data nodes** ([`node`]) own a ring range, store object replicas and
//!   execute sub-queries against their local store;
//! * the **front-end** receives client queries, runs the Algorithm 1
//!   scheduler over live server statistics, dispatches sub-queries with
//!   failure timers, applies the §4.4 fall-back and aggregates results;
//! * the **membership server** logic (range assignment, join/leave, p
//!   changes) drives both through control calls.
//!
//! The front-end's surface is split by plane — [`connect`] returns both
//! handles to one shared state:
//!
//! * [`client::QueryClient`] — the **data plane**: [`client::QueryBuilder`]
//!   (deadline, harvest target, `pq`, scheduler options, hedging, retries,
//!   admission) returning a [`client::QueryStream`] that yields
//!   per-sub-query partial results as they land and resolves early once
//!   the harvest target or deadline is hit;
//! * [`admin::Admin`] — the **control plane**: repartitioning (`set_p`,
//!   §4.5), membership (`add_node`/`remove_node`/`kill_node`, §4.3–4.4),
//!   balancing (§4.6), backfill, ingest and the §4.8.3 backup-front-end
//!   discovery calls;
//! * [`backend::MemoryBackend`] — the backend filer (§4.1) the control
//!   plane repartitions from, held as the nodes hold their share (columnar
//!   runs and a sorted id list) and read by coverage window.
//!
//! Transport is **pluggable** ([`transport`]): every RPC — sub-query
//! dispatch, store pushes, control calls, forwarding chains — crosses the
//! [`transport::Transport`] / [`transport::NodeLink`] /
//! [`transport::BoundServer`] trait boundary, so the front-end's
//! scatter-gather, the node's serve loop and the harness never name a
//! socket type. Three implementations exist, selected by
//! [`transport::TransportSpec`] through [`harness::ClusterConfig`]:
//!
//! * **TCP** ([`transport::tcp`]) — length-prefixed binary frames
//!   ([`proto`]) over persistent connections, the tokio tutorial's framing
//!   idiom with a hand-rolled tagged codec; correlation ids multiplex
//!   requests per connection, and per-sub-query application timers provide
//!   the failure detection that matters for §4.4 failover.
//! * **UDP** ([`transport::datagram`]) — the thesis's §4.8.4 prescription
//!   for TCP incast: application-level acknowledgements, millisecond
//!   retransmission timers (instead of TCP's 200 ms+ min-RTO, ±jittered so
//!   incast retries de-synchronize), at-most-once request execution, and
//!   chunked reassembly for replies larger than one datagram — with
//!   deterministic loss injection so the recovery paths are exercised on
//!   loopback, where real loss never happens.
//! * **ccudp** — the same endpoint under the [`transport::Adaptive`]
//!   congestion policy ([`transport::congestion`]), answering §4.8.4's
//!   "avoid congestion collapse in pathological cases" caveat: per-peer
//!   RFC 6298-style SRTT/RTTVAR driving an adaptive RTO with exponential
//!   backoff, a CCID2-flavored AIMD in-flight window, and token-paced
//!   sends. Collapse itself is reproducible via
//!   [`transport::CrossTrafficSpec`], a shared bottleneck queue with
//!   competing background flows (`repro bench_congestion`).
//!
//! Two query execution modes keep experiments honest *and* fast:
//! * **PPS** — real encrypted matching against the node's
//!   [`roar_pps::MetadataStore`];
//! * **synthetic** — the node sleeps for `records_in_window / speed`,
//!   reproducing Definition 8's computation model with configurable
//!   heterogeneous speeds (how we stand in for the 45-node Hen testbed and
//!   the EC2 fleet on one machine).

pub mod admin;
pub mod admission;
pub mod backend;
pub mod client;
pub mod faults;
pub mod frontend;
pub mod harness;
pub mod node;
pub mod proto;
pub mod reconcile;
pub mod transport;

pub use admin::{Admin, AdminError};
pub use admission::{AdmissionController, AdmissionStats, SloConfig};
pub use backend::MemoryBackend;
pub use client::{
    connect, connect_backup, connect_backup_with, connect_with, HedgePolicy, PartialResult,
    QueryBuilder, QueryClient, QueryStream, SubStatus,
};
pub use faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule};
pub use frontend::{QueryOutput, SchedOpts};
pub use harness::{spawn_cluster, ClusterConfig, ClusterHandle};
pub use node::{DataNode, NodeConfig};
pub use proto::{read_frame, write_frame, Frame, Msg, QueryBody, WireTrapdoor};
pub use reconcile::{DesiredTopology, ObservedTopology, Plan, Reconciler, Step};
pub use transport::{
    Adaptive, AdaptiveConfig, AimdWindow, CongestionPolicy, CrossTrafficSpec, DatagramConfig,
    DatagramEndpoint, FixedRto, LossPolicy, LossSpec, NetGate, NodeConn, NodeLink, Pacer,
    RequestError, RpcError, RttEstimator, SharedBottleneck, Transport, TransportSpec,
};
