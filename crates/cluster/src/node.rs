//! A ROAR data node (§4.1, §5.6): owns a coverage window of the ring,
//! stores replicas, executes sub-queries against its local store.
//!
//! A node is born covering nothing and answers only windows inside the
//! coverage its last `SetCoverage` assigned; every other window is
//! `Refused` (§4.8.3), whatever it happens to store.
//!
//! Sub-query execution honours the deduplication window carried in the
//! request — the node only matches records with ids in `(start, end]` —
//! so `pq > p` over-partitioning and failure-split sub-queries work without
//! any node-side coordination (§4.2).
//!
//! A PPS sub-query scans one immutable `Arc` snapshot of the store — no
//! window is cloned. A window of at most one matcher chunk
//! ([`MATCH_CHUNK`] records: a high-`p` sub-query's whole scan) is matched
//! on the runtime worker serving the request, under one of the process's
//! few *matching slots*: a crowd of them waits for a slot without holding
//! a worker, so the runtime's timers and receive loops keep running. A
//! longer one goes to the process's *matcher pool*, one worker thread per
//! CPU ([`roar_pps::BatchEngine`]), each running one sub-query at a time,
//! which every node in the process shares: a flash crowd of Q long scans,
//! on however many nodes, queues for the CPUs instead of time-slicing
//! them.
//!
//! The store is a persistent value ([`MetadataStore`]: a list of immutable
//! columnar runs behind `Arc`s). A writer — `Store`, `SetCoverage` — builds
//! the next store *outside* the state lock, sharing every run it does not
//! replace, and swaps it in if nobody else did in the meantime
//! (`DataNode::update_store`); the lock is held for a pointer
//! comparison and an assignment, whatever the batch.

use crate::proto::{Msg, QueryBody, WireRecord, WireTrapdoor};
use crate::transport::{BoxFuture, Handler, Transport, TransportSpec};
use parking_lot::Mutex;
use roar_core::ring::Window;
use roar_crypto::sha1::Backend;
use roar_pps::query::{Combiner, CompiledQuery, MATCH_CHUNK};
use roar_pps::{BatchEngine, MetadataStore, QueryTask, TaskCorpus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Instant;

/// The process's matcher pool width: one worker per CPU the process may
/// run on.
fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's matcher pool, started by the first multi-chunk scan of
/// any node in the process. One pool per process, sized to its CPUs: the
/// nodes' long scans form one FIFO queue and each runs to completion on a
/// CPU of its own (a node is a serial scanner, Definition 8), whether the
/// process hosts one node or a whole cluster. A static is never dropped:
/// its workers live as long as the process.
static MATCHERS: LazyLock<BatchEngine> = LazyLock::new(|| BatchEngine::new(pool_width()));

/// The process's matching slots: a one-chunk scan holds one while it runs
/// on a runtime worker. There are half as many as the runtime has workers,
/// which every node in the process shares, so however many such scans
/// queue, the other half of the workers keep the timers and receive loops
/// going. Sized from the runtime's workers, not from the CPUs: on 2 vCPUs,
/// 2 slots cost `fanout_tcp`, whose scans are all one chunk, 9 % of its
/// queries a second, and 1 slot 40 %.
static MATCH_SLOTS: LazyLock<tokio::sync::Semaphore> =
    LazyLock::new(|| tokio::sync::Semaphore::new((tokio::runtime::worker_threads() / 2).max(1)));

/// Static node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    pub id: usize,
    /// Synthetic scan speed, records/second (Definition 8). Also used to
    /// scale the simulated processing sleep.
    pub speed: f64,
    /// Extra fixed per-sub-query overhead in seconds (thread start, parse …
    /// — the overhead that makes large p expensive, §2).
    pub overhead_s: f64,
}

/// Shared mutable node state.
struct NodeState {
    /// The record store, handed out to in-flight sub-queries as immutable
    /// `Arc` epoch snapshots and replaced whole by writers
    /// ([`DataNode::update_store`]) — neither side copies a stored record.
    store: Arc<MetadataStore>,
    /// Synthetic-mode records: bare ids, ascending and unique.
    synthetic_ids: Vec<u64>,
    /// The window the last `SetCoverage` assigned; `None` — a node's state
    /// from birth — covers nothing. Only `SetCoverage` writes it: a
    /// `Store` never widens what the node vouches for.
    coverage: Option<Window>,
    /// Ring successor for §4.1 peer-to-peer store forwarding.
    successor: Option<std::net::SocketAddr>,
    /// Fault-injection multiplier on synthetic processing time
    /// (`Msg::SetSpeedFactor`); 1.0 = nominal speed.
    slow_factor: f64,
    /// Synthetic service model (`Msg::SetServiceModel`): when `true` the
    /// node is one serial scanner (Definition 8) and concurrent synthetic
    /// sub-queries queue behind [`NodeState::busy_until`]; when `false`
    /// (default) their simulated sleeps overlap.
    serial_service: bool,
    /// Virtual departure time of the last enqueued synthetic sub-query
    /// under the serial service model.
    busy_until: Option<Instant>,
}

impl NodeState {
    fn count(&self) -> u64 {
        (self.store.len() + self.synthetic_ids.len()) as u64
    }

    /// §4.8.3: "If the servers do not have enough replicas they will reply
    /// saying they haven't matched the whole query." A window wider than
    /// our coverage would silently return partial results; the caller
    /// refuses it so the front-end can lower its guess of p and retry. A
    /// node never given a coverage covers nothing.
    fn covers(&self, window: &Window) -> bool {
        self.coverage.is_some_and(|cov| window.subset_of(&cov))
    }
}

/// The reply to a sub-query over a window this node does not cover.
fn refused() -> Msg {
    Msg::Refused {
        what: "insufficient coverage".into(),
    }
}

/// Merge ascending, unique `add` into ascending, unique `ids`: O(n + b),
/// and nothing at all for an empty batch. An id on both sides (a replica
/// re-push) is kept once.
pub(crate) fn merge_sorted(ids: &mut Vec<u64>, add: &[u64]) {
    if add.is_empty() {
        return;
    }
    let old = std::mem::take(ids);
    ids.reserve(old.len() + add.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < add.len() {
        let next = old[i].min(add[j]);
        i += usize::from(old[i] == next);
        j += usize::from(add[j] == next);
        ids.push(next);
    }
    ids.extend_from_slice(&old[i..]);
    ids.extend_from_slice(&add[j..]);
}

/// Drop the ids outside `keep` from ascending `ids`: what stays is one
/// index range per interval of the window.
fn retain_sorted(ids: &mut Vec<u64>, keep: &Window) {
    // ascending: a wrapped window's low slice comes second
    let mut kept: Vec<&[u64]> = keep.index_ranges(ids).map(|r| &ids[r]).collect();
    kept.reverse();
    *ids = kept.concat();
}

/// A running data node.
pub struct DataNode {
    pub cfg: NodeConfig,
    state: Arc<Mutex<NodeState>>,
    /// Flipped by `Msg::Shutdown`; the serve loop (any transport) watches it.
    shutdown: tokio::sync::watch::Sender<bool>,
    /// The transport this node serves on — also used to reach the ring
    /// successor for §4.1 store forwarding.
    transport: Mutex<Option<Arc<dyn Transport>>>,
    /// Multi-chunk scans this node has sent to the process's matcher pool.
    pooled_scans: AtomicU64,
}

impl DataNode {
    pub fn new(cfg: NodeConfig) -> Self {
        let (shutdown, _) = tokio::sync::watch::channel(false);
        DataNode {
            cfg,
            state: Arc::new(Mutex::new(NodeState {
                store: Arc::new(MetadataStore::new()),
                synthetic_ids: Vec::new(),
                coverage: None,
                successor: None,
                slow_factor: 1.0,
                serial_service: false,
                busy_until: None,
            })),
            shutdown,
            transport: Mutex::new(None),
            pooled_scans: AtomicU64::new(0),
        }
    }

    /// Width of the process's matcher pool, one worker per CPU — the bound
    /// on concurrent multi-chunk PPS scans of every node in the process,
    /// however many sub-queries are resident. Asking does not start the
    /// pool.
    pub fn matcher_pool_width(&self) -> usize {
        pool_width()
    }

    /// Bind and serve over TCP (the default transport) until `Shutdown` is
    /// received. Returns the bound address immediately via `addr_tx`.
    pub async fn serve(
        self: Arc<Self>,
        addr_tx: tokio::sync::oneshot::Sender<std::net::SocketAddr>,
    ) -> std::io::Result<()> {
        self.serve_with(TransportSpec::Tcp.build(), addr_tx).await
    }

    /// Bind and serve over an explicit [`Transport`] until `Shutdown` is
    /// received or the serve loop errors. Returns the bound address
    /// immediately via the `addr_tx` channel, then serves.
    pub async fn serve_with(
        self: Arc<Self>,
        transport: Arc<dyn Transport>,
        addr_tx: tokio::sync::oneshot::Sender<std::net::SocketAddr>,
    ) -> std::io::Result<()> {
        *self.transport.lock() = Some(Arc::clone(&transport));
        let server = transport.bind("127.0.0.1:0").await?;
        let addr = server.local_addr()?;
        let _ = addr_tx.send(addr);
        let shutdown_rx = self.shutdown.subscribe();
        let handle = server.serve(Arc::clone(&self) as Arc<dyn Handler>, shutdown_rx);
        let _ = handle.await;
        // release the forwarding client endpoint, if one was ever opened
        transport.shutdown();
        Ok(())
    }

    async fn handle_msg(&self, msg: Msg) -> Msg {
        match msg {
            Msg::Ping => Msg::Pong,
            Msg::Shutdown => {
                let _ = self.shutdown.send(true);
                Msg::Ok
            }
            Msg::CountRequest => Msg::Count {
                records: self.state.lock().count(),
            },
            Msg::CoverageRequest => {
                let st = self.state.lock();
                match st.coverage {
                    Some(w) => Msg::Coverage {
                        start: w.start,
                        end: w.end,
                        has: true,
                    },
                    None => Msg::Coverage {
                        start: 0,
                        end: 0,
                        has: false,
                    },
                }
            }
            Msg::Store {
                records,
                synthetic_ids,
            } => self.store_local(&records, synthetic_ids),
            Msg::SetSuccessor { addr } => match addr.parse() {
                Ok(a) => {
                    self.state.lock().successor = Some(a);
                    Msg::Ok
                }
                Err(_) => Msg::Error {
                    what: format!("bad successor address {addr}"),
                },
            },
            Msg::StoreForward {
                records,
                synthetic_ids,
                hops,
            } => {
                if let err @ Msg::Error { .. } = self.store_local(&records, synthetic_ids.clone()) {
                    return err;
                }
                if hops == 0 {
                    return Msg::Ok;
                }
                // forward the batch to the ring successor — with rack-
                // contiguous ring order this hop is intra-rack (§4.9.2)
                let Some(succ) = self.state.lock().successor else {
                    return Msg::Error {
                        what: "no successor configured".into(),
                    };
                };
                let fwd = Msg::StoreForward {
                    records,
                    synthetic_ids,
                    hops: hops - 1,
                };
                match self.forward_once(succ, fwd).await {
                    Ok(Msg::Ok) => Msg::Ok,
                    Ok(other) => Msg::Error {
                        what: format!("chain broke: {other:?}"),
                    },
                    Err(e) => Msg::Error {
                        what: format!("chain i/o: {e}"),
                    },
                }
            }
            Msg::SetSpeedFactor { factor } => {
                if factor.is_finite() && factor > 0.0 {
                    self.state.lock().slow_factor = factor;
                    Msg::Ok
                } else {
                    Msg::Error {
                        what: format!("bad speed factor {factor}"),
                    }
                }
            }
            Msg::SetServiceModel { serial } => {
                let mut st = self.state.lock();
                st.serial_service = serial;
                if !serial {
                    st.busy_until = None;
                }
                Msg::Ok
            }
            Msg::SetCoverage { start, end } => {
                let keep = Window::new(start, end);
                {
                    let mut st = self.state.lock();
                    // the coverage narrows before the store does: a
                    // sub-query admitted in between scans a superset
                    st.coverage = Some(keep);
                    retain_sorted(&mut st.synthetic_ids, &keep);
                }
                self.update_store(|store| {
                    store.retain_window(&keep);
                });
                Msg::Ok
            }
            Msg::SubQuery {
                query_id,
                window_start,
                window_end,
                body,
                backend: _,
            } => {
                self.execute_subquery(query_id, window_start, window_end, body)
                    .await
            }
            other => Msg::Error {
                what: format!("unexpected message: {other:?}"),
            },
        }
    }

    async fn execute_subquery(
        &self,
        query_id: u64,
        window_start: u64,
        window_end: u64,
        body: QueryBody,
    ) -> Msg {
        let window = Window::new(window_start, window_end);
        let started = Instant::now();
        if self.cfg.overhead_s > 0.0 {
            tokio::time::sleep(std::time::Duration::from_secs_f64(self.cfg.overhead_s)).await;
        }
        // From here on, the coverage check and the read of what it vouches
        // for (the id count, the store snapshot) share one acquisition of
        // the state lock: a `SetCoverage` landing between two would drop
        // records the check had promised.
        match body {
            QueryBody::Synthetic => {
                // Definition 8: proc time = records / speed, served as a
                // sleep so one machine can emulate a heterogeneous fleet.
                // Under the serial service model the node is one scanner:
                // the sleep runs until this sub-query's virtual departure
                // time, behind everything already enqueued, so an open-loop
                // overload builds a real backlog (M/G/1, not infinite
                // co-sleeping servers).
                let (scanned, wait) = {
                    let mut st = self.state.lock();
                    if !st.covers(&window) {
                        return refused();
                    }
                    let ranges = window.index_ranges(&st.synthetic_ids);
                    let scanned = ranges.map(|r| r.len()).sum::<usize>() as u64;
                    let proc = std::time::Duration::from_secs_f64(
                        scanned as f64 * st.slow_factor / self.cfg.speed,
                    );
                    if st.serial_service {
                        let now = Instant::now();
                        let start = st.busy_until.filter(|&b| b > now).unwrap_or(now);
                        let depart = start + proc;
                        st.busy_until = Some(depart);
                        (scanned, depart.saturating_duration_since(now))
                    } else {
                        (scanned, proc)
                    }
                };
                tokio::time::sleep(wait).await;
                Msg::SubQueryResult {
                    query_id,
                    matches: Vec::new(),
                    scanned,
                    proc_s: started.elapsed().as_secs_f64(),
                }
            }
            QueryBody::Pps {
                trapdoors,
                conjunctive,
            } => {
                // a part of the wrong length already failed decode; the
                // parts move into the matcher's trapdoors uncopied
                let tds: Vec<_> = trapdoors
                    .into_iter()
                    .map(WireTrapdoor::into_trapdoor)
                    .collect();
                // validate wire-supplied bounds *before* matching: the
                // matcher asserts r ≤ MAX_R per trapdoor and ≤ 64
                // predicates; a malformed front-end must get a clean
                // refusal, not a panic on whichever thread matches
                if tds.is_empty() || tds.len() > 64 {
                    return Msg::Error {
                        what: format!("unsupported predicate count {}", tds.len()),
                    };
                }
                if let Some(bad) = tds
                    .iter()
                    .find(|td| td.parts.is_empty() || td.parts.len() > roar_pps::bloom_kw::MAX_R)
                {
                    return Msg::Error {
                        what: format!(
                            "unsupported trapdoor arity {} (max {})",
                            bad.parts.len(),
                            roar_pps::bloom_kw::MAX_R
                        ),
                    };
                }
                let query = CompiledQuery {
                    trapdoors: tds,
                    combiner: if conjunctive {
                        Combiner::And
                    } else {
                        Combiner::Or
                    },
                };
                // zero-copy corpus view: the lock is held only to check the
                // coverage and clone the store Arc; window index ranges are
                // computed outside it on the immutable snapshot. No record
                // is copied.
                let store = {
                    let st = self.state.lock();
                    if !st.covers(&window) {
                        return refused();
                    }
                    Arc::clone(&st.store)
                };
                let corpus = TaskCorpus::snapshot(store, &window);
                let scanned = corpus.len() as u64;
                // the lane engine is the process's, whatever the request's
                // (reserved) `backend` field says
                let task = QueryTask::new(query, corpus, Backend::auto());
                // at most one chunk (tens to a few hundred µs) runs here, on
                // the worker serving the request, under a matching slot: the
                // pool would add a queue push and two cross-thread wake-ups
                // to it. A longer scan goes to the pool, where a crowd
                // queues for a fixed set of threads (`scan_heavy`'s
                // 30 000-record scans measured slower when run here).
                let res = if scanned <= MATCH_CHUNK as u64 {
                    let Ok(_slot) = MATCH_SLOTS.acquire().await else {
                        return Msg::Error {
                            what: "matching slots closed".into(),
                        };
                    };
                    task.run_inline()
                } else {
                    let (tx, rx) = tokio::sync::oneshot::channel();
                    // ORDERING: Relaxed — an event counter; nothing is
                    // published through it
                    self.pooled_scans.fetch_add(1, Ordering::Relaxed);
                    MATCHERS.submit(task, move |res| {
                        let _ = tx.send(res);
                    });
                    let Ok(res) = rx.await else {
                        return Msg::Error {
                            what: "matcher pool dropped the sub-query".into(),
                        };
                    };
                    res
                };
                Msg::SubQueryResult {
                    query_id,
                    matches: res.matches,
                    scanned,
                    proc_s: started.elapsed().as_secs_f64(),
                }
            }
        }
    }

    /// Everything a `Store` costs happens outside the state lock: the batch
    /// is decoded, validated, sorted and de-duplicated into a run (the
    /// synthetic ids into a sorted vector), replica re-pushes are dropped
    /// and runs merged against a snapshot of the store. Under the lock: a
    /// pointer swap, and a linear merge of the synthetic ids.
    fn store_local(&self, records: &[WireRecord], mut synthetic_ids: Vec<u64>) -> Msg {
        let Some(batch) = WireRecord::to_run(records) else {
            return Msg::Error {
                what: "corrupt record".into(),
            };
        };
        if !batch.is_empty() {
            let batch = Arc::new(batch);
            self.update_store(|store| store.append(Arc::clone(&batch)));
        }
        synthetic_ids.sort_unstable();
        synthetic_ids.dedup();
        merge_sorted(&mut self.state.lock().synthetic_ids, &synthetic_ids);
        Msg::Ok
    }

    /// Replace the store by `update` applied to a clone of it — a clone of
    /// the `Arc` list; `update` shares every run it does not replace. The
    /// clone and `update` run outside the state lock, beside any number of
    /// live sub-query snapshots, and the result is swapped in only if the
    /// store is still the one `update` started from; a writer that lost the
    /// race starts over from the winner's store. A reader therefore sees a
    /// batch whole or not at all.
    fn update_store(&self, update: impl Fn(&mut MetadataStore)) {
        let mut base = Arc::clone(&self.state.lock().store);
        loop {
            let mut next = MetadataStore::clone(&base);
            update(&mut next);
            let mut st = self.state.lock();
            if Arc::ptr_eq(&st.store, &base) {
                st.store = Arc::new(next);
                return;
            }
            base = Arc::clone(&st.store);
        }
    }

    /// One store-forward exchange with the successor over a fresh link of
    /// the node's own transport (a production node would keep its neighbour
    /// link persistent; one-shot keeps the demo simple and failure-visible).
    async fn forward_once(&self, succ: std::net::SocketAddr, msg: Msg) -> std::io::Result<Msg> {
        let transport = self
            .transport
            .lock()
            .clone()
            .ok_or_else(|| std::io::Error::other("node is not serving"))?;
        let link = transport.connect(succ).await?;
        link.rpc(msg, std::time::Duration::from_secs(5))
            .await
            .map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, format!("chain rpc: {e:?}"))
            })
    }

    /// Direct (in-process) record count — used by the harness.
    pub fn record_count(&self) -> u64 {
        self.state.lock().count()
    }

    /// The store as a sub-query would snapshot it now (in-process; tests
    /// hold one to play a long-running scan).
    pub fn store_snapshot(&self) -> Arc<MetadataStore> {
        Arc::clone(&self.state.lock().store)
    }
}

impl Handler for DataNode {
    fn handle(self: Arc<Self>, msg: Msg) -> BoxFuture<'static, Msg> {
        Box::pin(async move { self.handle_msg(msg).await })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame, Frame, WireRecord};
    use tokio::net::TcpStream;

    async fn start_node(speed: f64) -> (std::net::SocketAddr, Arc<DataNode>) {
        start_node_with_overhead(speed, 0.0).await
    }

    async fn start_node_with_overhead(
        speed: f64,
        overhead_s: f64,
    ) -> (std::net::SocketAddr, Arc<DataNode>) {
        let node = Arc::new(DataNode::new(NodeConfig {
            id: 0,
            speed,
            overhead_s,
        }));
        let (tx, rx) = tokio::sync::oneshot::channel();
        let n2 = Arc::clone(&node);
        tokio::spawn(async move {
            let _ = n2.serve(tx).await;
        });
        (rx.await.unwrap(), node)
    }

    /// `n` records whose filters have no bit set: each costs the matcher
    /// one MAC and matches nothing — scan length, cheaply.
    fn blank_records(rng: &mut impl rand::Rng, n: usize) -> Vec<WireRecord> {
        (0..n)
            .map(|_| WireRecord {
                id: rng.gen(),
                nonce: rng.gen(),
                filter: vec![0; 8],
                filter_bits: 64,
            })
            .collect()
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

    /// A connection to a node that has been assigned the whole ring first,
    /// so the sub-queries a test sends over it are answered, not refused.
    async fn connect_covering_all(addr: std::net::SocketAddr) -> TcpStream {
        let mut s = TcpStream::connect(addr).await.unwrap();
        let full = Msg::SetCoverage { start: 0, end: 0 };
        assert_eq!(rpc(&mut s, u64::MAX, full).await, Msg::Ok);
        s
    }

    #[tokio::test]
    async fn ping_pong() {
        let (addr, _node) = start_node(1e6).await;
        let mut s = TcpStream::connect(addr).await.unwrap();
        assert_eq!(rpc(&mut s, 1, Msg::Ping).await, Msg::Pong);
    }

    #[tokio::test]
    async fn store_and_count() {
        let (addr, node) = start_node(1e6).await;
        let mut s = TcpStream::connect(addr).await.unwrap();
        let reply = rpc(
            &mut s,
            1,
            Msg::Store {
                records: vec![],
                synthetic_ids: vec![10, 20, 30],
            },
        )
        .await;
        assert_eq!(reply, Msg::Ok);
        assert_eq!(
            rpc(&mut s, 2, Msg::CountRequest).await,
            Msg::Count { records: 3 }
        );
        assert_eq!(node.record_count(), 3);
    }

    #[tokio::test]
    async fn synthetic_subquery_scans_window_only() {
        let (addr, _node) = start_node(1e6).await;
        let mut s = connect_covering_all(addr).await;
        rpc(
            &mut s,
            1,
            Msg::Store {
                records: vec![],
                synthetic_ids: vec![5, 15, 25, 35],
            },
        )
        .await;
        let reply = rpc(
            &mut s,
            2,
            Msg::SubQuery {
                query_id: 9,
                window_start: 10,
                window_end: 30,
                body: QueryBody::Synthetic,
                backend: None,
            },
        )
        .await;
        match reply {
            Msg::SubQueryResult {
                query_id,
                scanned,
                proc_s,
                ..
            } => {
                assert_eq!(query_id, 9);
                assert_eq!(scanned, 2); // ids 15, 25
                assert!(proc_s >= 0.0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[tokio::test]
    async fn synthetic_speed_determines_latency() {
        let (addr, _node) = start_node(100.0).await; // 100 records/s
        let mut s = connect_covering_all(addr).await;
        rpc(
            &mut s,
            1,
            Msg::Store {
                records: vec![],
                synthetic_ids: (0..20).collect(),
            },
        )
        .await;
        let t0 = Instant::now();
        let _ = rpc(
            &mut s,
            2,
            Msg::SubQuery {
                query_id: 1,
                window_start: 0,
                window_end: 0, // full ring
                body: QueryBody::Synthetic,
                backend: None,
            },
        )
        .await;
        // 19 records in (0,0] full window minus the id==0 exclusion… ≈ 20
        // records at 100/s ≈ 0.2 s
        let took = t0.elapsed().as_secs_f64();
        assert!(took > 0.15, "took {took}s");
    }

    #[tokio::test]
    async fn pps_subquery_matches() {
        use roar_pps::metadata::{FileMeta, MetaEncryptor};
        use roar_pps::query::{Combiner, Predicate, QueryCompiler};
        let (addr, _node) = start_node(1e6).await;
        let mut s = connect_covering_all(addr).await;
        let enc = MetaEncryptor::new(b"u");
        let mut rng = roar_util::det_rng(201);
        let rec = enc.encrypt(
            &mut rng,
            &FileMeta {
                path: "/x/hit.txt".into(),
                keywords: vec!["target".into()],
                size: 10,
                mtime: 1_500_000_000,
            },
        );
        let rec_id = rec.id;
        rpc(
            &mut s,
            1,
            Msg::Store {
                records: vec![WireRecord::from_record(&rec)],
                synthetic_ids: vec![],
            },
        )
        .await;
        let q =
            QueryCompiler::new(&enc).compile(&[Predicate::Keyword("target".into())], Combiner::And);
        let reply = rpc(
            &mut s,
            2,
            Msg::SubQuery {
                query_id: 3,
                window_start: 0,
                window_end: 0,
                body: QueryBody::Pps {
                    trapdoors: q
                        .trapdoors
                        .iter()
                        .map(crate::proto::WireTrapdoor::from_trapdoor)
                        .collect(),
                    conjunctive: true,
                },
                backend: None,
            },
        )
        .await;
        match reply {
            Msg::SubQueryResult { matches, .. } => assert_eq!(matches, vec![rec_id]),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `SubQuery::backend` is a reserved wire field: the node sweeps with
    /// its own engine whatever the request names, so a pinned-scalar
    /// request and an unpinned one over the same window answer alike.
    #[tokio::test]
    async fn subquery_backend_field_is_ignored() {
        use roar_pps::metadata::{FileMeta, MetaEncryptor};
        use roar_pps::query::{Combiner, Predicate, QueryCompiler};
        let (addr, _node) = start_node(1e6).await;
        let mut s = connect_covering_all(addr).await;
        let enc = MetaEncryptor::with_points(b"pin", vec![1], vec![1]);
        let mut rng = roar_util::det_rng(208);
        let recs: Vec<_> = (0..60)
            .map(|i| {
                let meta = FileMeta {
                    path: format!("/p/f{i}"),
                    keywords: vec![format!("kw{}", i % 3)],
                    size: 1,
                    mtime: 1,
                };
                enc.encrypt(&mut rng, &meta)
            })
            .collect();
        let store = Msg::Store {
            records: recs.iter().map(WireRecord::from_record).collect(),
            synthetic_ids: vec![],
        };
        assert_eq!(rpc(&mut s, 1, store).await, Msg::Ok);
        let q =
            QueryCompiler::new(&enc).compile(&[Predicate::Keyword("kw1".into())], Combiner::And);
        let trapdoors: Vec<_> = (q.trapdoors.iter())
            .map(crate::proto::WireTrapdoor::from_trapdoor)
            .collect();
        let mut replies = Vec::new();
        for (id, backend) in [(2, Some(Backend::Scalar)), (3, None)] {
            let sub = Msg::SubQuery {
                query_id: id,
                window_start: u64::MAX / 4,
                window_end: u64::MAX / 4 * 3,
                body: QueryBody::Pps {
                    trapdoors: trapdoors.clone(),
                    conjunctive: true,
                },
                backend,
            };
            match rpc(&mut s, id, sub).await {
                Msg::SubQueryResult {
                    mut matches,
                    scanned,
                    ..
                } => {
                    matches.sort_unstable();
                    replies.push((matches, scanned));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            !replies[0].0.is_empty() && replies[0].1 < 60,
            "a real window"
        );
        assert_eq!(replies[0], replies[1]);
    }

    #[tokio::test]
    async fn oversized_wire_trapdoor_refused_cleanly() {
        // r > MAX_R must produce a protocol error, not a matcher panic
        let (addr, _node) = start_node(1e6).await;
        let mut s = TcpStream::connect(addr).await.unwrap();
        let huge = crate::proto::WireTrapdoor {
            parts: vec![[0u8; 20]; roar_pps::bloom_kw::MAX_R + 1],
        };
        let reply = rpc(
            &mut s,
            1,
            Msg::SubQuery {
                query_id: 1,
                window_start: 0,
                window_end: 0,
                body: QueryBody::Pps {
                    trapdoors: vec![huge],
                    conjunctive: true,
                },
                backend: None,
            },
        )
        .await;
        match reply {
            Msg::Error { what } => assert!(what.contains("unsupported trapdoor arity")),
            other => panic!("expected clean refusal, got {other:?}"),
        }
        // the connection (and node) must still be healthy afterwards
        assert_eq!(rpc(&mut s, 2, Msg::Ping).await, Msg::Pong);
    }

    /// A frame whose body does not decode — here a sub-query whose one
    /// trapdoor part is 3 bytes, not 20 — is answered `Msg::Error` on its
    /// id, and the connection, with every sub-query multiplexed on it,
    /// serves on.
    #[tokio::test]
    async fn corrupt_trapdoor_frame_answered_and_connection_survives() {
        use tokio::io::AsyncWriteExt;
        let (addr, _node) = start_node(1e6).await;
        let mut s = TcpStream::connect(addr).await.unwrap();
        let good = Msg::SubQuery {
            query_id: 1,
            window_start: 0,
            window_end: 0,
            body: QueryBody::Pps {
                trapdoors: vec![WireTrapdoor {
                    parts: vec![[7u8; 20]],
                }],
                conjunctive: true,
            },
            backend: None,
        }
        .encode();
        // the part's length prefix and bytes, cut down to 3
        let part: Vec<u8> = [0, 0, 0, 20].into_iter().chain([7; 20]).collect();
        let at = good.windows(24).position(|w| w == part).expect("the part");
        let bad: Vec<u8> = (good[..at].iter().copied())
            .chain([0, 0, 0, 3, 7, 7, 7])
            .chain(good[at + 24..].iter().copied())
            .collect();
        assert!(Msg::decode(&bad).is_none());
        let mut frame = ((8 + bad.len()) as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&41u64.to_be_bytes());
        frame.extend_from_slice(&bad);
        s.write_all(&frame).await.unwrap();
        let reply = read_frame(&mut s).await.unwrap().unwrap();
        assert_eq!(reply.id, 41);
        match reply.body {
            Msg::Error { what } => assert_eq!(what, "malformed request"),
            other => panic!("expected an error reply, got {other:?}"),
        }
        assert_eq!(rpc(&mut s, 42, Msg::Ping).await, Msg::Pong);
    }

    /// A zero-bit Bloom filter from the wire must be refused at the door:
    /// once stored, every PPS sub-query over it takes a remainder by zero
    /// in its scan and panics instead of answering.
    #[tokio::test]
    async fn zero_bit_filter_refused_and_matchers_survive() {
        use roar_pps::metadata::MetaEncryptor;
        use roar_pps::query::{Combiner, Predicate, QueryCompiler};
        let (addr, _node) = start_node(1e6).await;
        let mut s = connect_covering_all(addr).await;
        let reply = rpc(
            &mut s,
            1,
            Msg::Store {
                records: vec![WireRecord {
                    id: 7,
                    nonce: 1,
                    filter: vec![],
                    filter_bits: 0,
                }],
                synthetic_ids: vec![],
            },
        )
        .await;
        match reply {
            Msg::Error { what } => assert_eq!(what, "corrupt record"),
            other => panic!("a zero-bit filter was accepted: {other:?}"),
        }
        let enc = MetaEncryptor::with_points(b"z", vec![1], vec![1]);
        let q =
            QueryCompiler::new(&enc).compile(&[Predicate::Keyword("any".into())], Combiner::And);
        let reply = rpc(
            &mut s,
            2,
            Msg::SubQuery {
                query_id: 1,
                window_start: 0,
                window_end: 0,
                body: QueryBody::Pps {
                    trapdoors: q
                        .trapdoors
                        .iter()
                        .map(crate::proto::WireTrapdoor::from_trapdoor)
                        .collect(),
                    conjunctive: true,
                },
                backend: None,
            },
        )
        .await;
        match reply {
            Msg::SubQueryResult { matches, .. } => assert!(matches.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rpc(&mut s, 3, Msg::Ping).await, Msg::Pong);
    }

    /// §4.8.3 from birth: a node never sent a `SetCoverage` vouches for no
    /// window, and a `Store` does not change that. It refuses synthetic
    /// and PPS sub-queries, over the whole ring and over a sliver of it,
    /// and reports that it covers nothing.
    #[tokio::test]
    async fn never_covered_node_refuses_every_window() {
        let (addr, _node) = start_node(1e6).await;
        let mut s = TcpStream::connect(addr).await.unwrap();
        let nothing = Msg::Coverage {
            start: 0,
            end: 0,
            has: false,
        };
        assert_eq!(rpc(&mut s, 1, Msg::CoverageRequest).await, nothing);
        let store = Msg::Store {
            records: blank_records(&mut roar_util::det_rng(210), 8),
            synthetic_ids: vec![5, 15, 25],
        };
        assert_eq!(rpc(&mut s, 2, store).await, Msg::Ok);
        assert_eq!(
            rpc(&mut s, 3, Msg::CoverageRequest).await,
            nothing,
            "a store assigned a coverage"
        );
        let pps = QueryBody::Pps {
            trapdoors: vec![WireTrapdoor {
                parts: vec![[7u8; 20]],
            }],
            conjunctive: true,
        };
        let mut id = 3;
        for (start, end) in [(0, 0), (10, 20)] {
            for body in [QueryBody::Synthetic, pps.clone()] {
                id += 1;
                let sub = Msg::SubQuery {
                    query_id: id,
                    window_start: start,
                    window_end: end,
                    body,
                    backend: None,
                };
                let reply = rpc(&mut s, id, sub).await;
                assert!(
                    matches!(reply, Msg::Refused { .. }),
                    "window ({start}, {end}] answered: {reply:?}"
                );
            }
        }
    }

    #[tokio::test]
    async fn set_coverage_drops_outside() {
        let (addr, _node) = start_node(1e6).await;
        let mut s = TcpStream::connect(addr).await.unwrap();
        rpc(
            &mut s,
            1,
            Msg::Store {
                records: vec![],
                synthetic_ids: vec![10, 20, 30, 40],
            },
        )
        .await;
        rpc(&mut s, 2, Msg::SetCoverage { start: 15, end: 35 }).await;
        assert_eq!(
            rpc(&mut s, 3, Msg::CountRequest).await,
            Msg::Count { records: 2 }
        );
    }

    /// §4.8.3 under a racing `SetCoverage` (another front end's `set_p`
    /// increase, or one whose drain timed out, narrows a node while old-`p`
    /// sub-queries are in flight): a sub-query
    /// whose window the node stops covering while it sleeps out its
    /// overhead must be `Refused`, never answered over what is left of the
    /// window. The coverage check and the read it vouches for share one
    /// lock acquisition; checked first and read later, the reply was a
    /// `SubQueryResult` with a short `scanned`.
    #[tokio::test]
    async fn coverage_narrowed_under_a_sleeping_subquery_refuses() {
        use roar_pps::metadata::MetaEncryptor;
        use roar_pps::query::{Combiner, Predicate, QueryCompiler};
        const OVERHEAD_S: f64 = 0.3;
        let (addr, _node) = start_node_with_overhead(1e6, OVERHEAD_S).await;
        let mut s = TcpStream::connect(addr).await.unwrap();
        let ids = [10u64, 20, 30, 40];
        let wire = |&id: &u64| WireRecord {
            id,
            nonce: id,
            filter: vec![0xff; 16],
            filter_bits: 128,
        };
        let store = Msg::Store {
            records: ids.iter().map(wire).collect(),
            synthetic_ids: ids.to_vec(),
        };
        assert_eq!(rpc(&mut s, 1, store).await, Msg::Ok);
        let wide = Msg::SetCoverage { start: 0, end: 100 };
        assert_eq!(rpc(&mut s, 2, wide).await, Msg::Ok);
        let enc = MetaEncryptor::with_points(b"race", vec![1], vec![1]);
        let q =
            QueryCompiler::new(&enc).compile(&[Predicate::Keyword("any".into())], Combiner::And);
        let pps = QueryBody::Pps {
            trapdoors: (q.trapdoors.iter())
                .map(crate::proto::WireTrapdoor::from_trapdoor)
                .collect(),
            conjunctive: true,
        };
        // both bodies over the wide window, multiplexed on one connection
        let fired = Instant::now();
        for (id, body) in [(100, QueryBody::Synthetic), (101, pps)] {
            let body = Msg::SubQuery {
                query_id: id,
                window_start: 0,
                window_end: 100,
                body,
                backend: None,
            };
            write_frame(&mut s, &Frame { id, body }).await.unwrap();
        }
        // … and the coverage narrows on a second connection while they sleep
        tokio::time::sleep(std::time::Duration::from_millis(50)).await;
        let mut admin = TcpStream::connect(addr).await.unwrap();
        let narrow = Msg::SetCoverage { start: 0, end: 25 };
        assert_eq!(rpc(&mut admin, 1, narrow).await, Msg::Ok);
        let narrowed_in_time = fired.elapsed().as_secs_f64() < OVERHEAD_S * 0.8;
        for _ in 0..2 {
            let reply = read_frame(&mut s).await.unwrap().unwrap();
            match reply.body {
                Msg::Refused { .. } => {}
                // a box too loaded to narrow in time may answer in full
                Msg::SubQueryResult { scanned, .. } => {
                    assert_eq!(scanned, 4, "frame {}: partial window answered", reply.id);
                    assert!(!narrowed_in_time, "frame {}: not refused", reply.id);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    #[test]
    fn synthetic_ids_merge_and_retain_in_place() {
        let mut ids = vec![10, 20, 30];
        merge_sorted(&mut ids, &[]);
        merge_sorted(&mut ids, &[5, 20, 25, 40]);
        assert_eq!(
            ids,
            vec![5, 10, 20, 25, 30, 40],
            "a re-pushed id is kept once"
        );
        let mut empty = Vec::new();
        merge_sorted(&mut empty, &[1, 2]);
        assert_eq!(empty, vec![1, 2]);
        // (start, end] — contiguous, wrapped, full, and a window of nothing
        let cut = |w: Window| {
            let mut kept = ids.clone();
            retain_sorted(&mut kept, &w);
            assert_eq!(
                kept,
                ids.iter()
                    .copied()
                    .filter(|&id| w.contains(id))
                    .collect::<Vec<_>>()
            );
            kept
        };
        assert_eq!(cut(Window::new(10, 30)), vec![20, 25, 30]);
        assert_eq!(cut(Window::new(25, 5)), vec![5, 30, 40]);
        assert_eq!(cut(Window::new(u64::MAX, 9)), vec![5]);
        assert_eq!(cut(Window::full(7)).len(), 6);
        assert!(cut(Window::new(11, 12)).is_empty());
    }

    /// A flash crowd of multi-chunk PPS sub-queries must all complete
    /// correctly through the process's matcher pool — no thread per
    /// request. The pool width is the concurrency bound; the engine queues
    /// everything beyond it.
    #[tokio::test]
    async fn pps_flash_crowd_bounded_by_matcher_pool() {
        use roar_pps::metadata::{FileMeta, MetaEncryptor};
        use roar_pps::query::{Combiner, Predicate, QueryCompiler};
        let (addr, node) = start_node(1e6).await;
        let mut s = connect_covering_all(addr).await;
        let enc = MetaEncryptor::with_points(b"crowd", vec![1], vec![1]);
        let mut rng = roar_util::det_rng(207);
        let recs: Vec<_> = (0..40)
            .map(|i| {
                enc.encrypt(
                    &mut rng,
                    &FileMeta {
                        path: format!("/c/f{i}"),
                        keywords: vec![format!("kw{}", i % 8)],
                        size: 1,
                        mtime: 1,
                    },
                )
            })
            .collect();
        // blank records past one chunk, so every sub-query is a pool scan
        let records = (recs.iter().map(WireRecord::from_record))
            .chain(blank_records(&mut rng, MATCH_CHUNK))
            .collect();
        rpc(
            &mut s,
            1,
            Msg::Store {
                records,
                synthetic_ids: vec![],
            },
        )
        .await;
        let qc = QueryCompiler::new(&enc);
        // 32 concurrent sub-queries multiplexed on one connection
        for i in 0..32u64 {
            let q = qc.compile(&[Predicate::Keyword(format!("kw{}", i % 8))], Combiner::And);
            write_frame(
                &mut s,
                &Frame {
                    id: 100 + i,
                    body: Msg::SubQuery {
                        query_id: i,
                        window_start: 0,
                        window_end: 0,
                        body: QueryBody::Pps {
                            trapdoors: q
                                .trapdoors
                                .iter()
                                .map(crate::proto::WireTrapdoor::from_trapdoor)
                                .collect(),
                            conjunctive: true,
                        },
                        backend: None,
                    },
                },
            )
            .await
            .unwrap();
        }
        let mut seen = 0;
        while seen < 32 {
            let f = read_frame(&mut s).await.unwrap().unwrap();
            let Msg::SubQueryResult {
                query_id, matches, ..
            } = f.body
            else {
                panic!("unexpected reply");
            };
            let mut want: Vec<u64> = recs
                .iter()
                .enumerate()
                .filter(|(j, _)| j % 8 == (query_id % 8) as usize)
                .map(|(_, r)| r.id)
                .collect();
            let mut got = matches;
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {query_id}");
            seen += 1;
        }
        assert_eq!(
            node.pooled_scans.load(Ordering::Relaxed),
            32,
            "the crowd went to the pool"
        );
        // the pool is the bound: one worker per CPU, not 32 threads
        assert_eq!(
            node.matcher_pool_width(),
            std::thread::available_parallelism().unwrap().get()
        );
        // the process has one matcher pool, whose workers are named
        // `roarm-w<i>`
        let matcher_threads = std::fs::read_dir("/proc/self/task")
            .map(|tasks| {
                tasks
                    .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                    .filter(|name| name.starts_with("roarm-"))
                    .count()
            })
            .unwrap_or(0);
        assert!(
            matcher_threads >= 1 && matcher_threads <= node.matcher_pool_width(),
            "{matcher_threads} matcher threads alive after a 32-query crowd \
             (pool width {})",
            node.matcher_pool_width()
        );
    }

    /// A sub-query of at most one chunk is matched on the runtime worker
    /// serving it, under a matching slot: a crowd of them over full, plain
    /// and wrapped windows answers each with the oracle's matches, never
    /// reaches the pool, and leaves the runtime's timers firing on time —
    /// the crowd never holds every worker.
    #[tokio::test]
    async fn one_chunk_crowd_keeps_timers_on_time() {
        use roar_pps::metadata::{FileMeta, MetaEncryptor};
        use roar_pps::query::{Combiner, Predicate, QueryCompiler};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        let (addr, node) = start_node(1e6).await;
        let mut s = connect_covering_all(addr).await;
        let enc = MetaEncryptor::with_points(b"chunk", vec![1], vec![1]);
        let mut rng = roar_util::det_rng(209);
        let recs: Vec<_> = (0..24)
            .map(|i| {
                let meta = FileMeta {
                    path: format!("/k/f{i}"),
                    keywords: vec![format!("kw{}", i % 3)],
                    size: 1,
                    mtime: 1,
                };
                enc.encrypt(&mut rng, &meta)
            })
            .collect();
        // blank records up to exactly one chunk: every scan is as long as
        // a one-chunk scan gets
        let store = Msg::Store {
            records: (recs.iter().map(WireRecord::from_record))
                .chain(blank_records(&mut rng, MATCH_CHUNK - recs.len()))
                .collect(),
            synthetic_ids: vec![],
        };
        assert_eq!(rpc(&mut s, 1, store).await, Msg::Ok);
        // a timer-driven probe beside the crowd: its worst lateness
        let tick = Duration::from_millis(2);
        let done = Arc::new(AtomicBool::new(false));
        let probe = tokio::spawn({
            let done = Arc::clone(&done);
            async move {
                let mut worst = Duration::ZERO;
                while !done.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    tokio::time::sleep(tick).await;
                    worst = worst.max(t.elapsed().saturating_sub(tick));
                }
                worst
            }
        });
        let windows = [
            Window::new(0, 0),
            Window::new(u64::MAX / 4, u64::MAX / 4 * 3),
            Window::new(u64::MAX / 2, u64::MAX / 4),
        ];
        let window = |id: u64| windows[id as usize % 3];
        let qc = QueryCompiler::new(&enc);
        let crowd = Instant::now();
        // 64 concurrent sub-queries multiplexed on one connection
        for id in 0..64u64 {
            let q = qc.compile(
                &[Predicate::Keyword(format!("kw{}", id % 3))],
                Combiner::And,
            );
            let sub = Msg::SubQuery {
                query_id: id,
                window_start: window(id).start,
                window_end: window(id).end,
                body: QueryBody::Pps {
                    trapdoors: (q.trapdoors.iter())
                        .map(crate::proto::WireTrapdoor::from_trapdoor)
                        .collect(),
                    conjunctive: true,
                },
                backend: None,
            };
            write_frame(
                &mut s,
                &Frame {
                    id: 2 + id,
                    body: sub,
                },
            )
            .await
            .unwrap();
        }
        for _ in 0..64 {
            let f = read_frame(&mut s).await.unwrap().unwrap();
            let Msg::SubQueryResult {
                query_id,
                mut matches,
                ..
            } = f.body
            else {
                panic!("unexpected reply {:?}", f.body);
            };
            let w = window(query_id);
            let mut want: Vec<u64> = (recs.iter().enumerate())
                .filter(|&(i, r)| i as u64 % 3 == query_id % 3 && w.contains(r.id))
                .map(|(_, r)| r.id)
                .collect();
            matches.sort_unstable();
            want.sort_unstable();
            assert_eq!(matches, want, "sub-query {query_id}");
        }
        let crowd = crowd.elapsed();
        done.store(true, Ordering::Relaxed);
        let late = probe.await.unwrap();
        assert!(
            late < crowd / 4,
            "a {tick:?} timer fired {late:?} late during a {crowd:?} crowd"
        );
        assert_eq!(
            node.pooled_scans.load(Ordering::Relaxed),
            0,
            "a one-chunk scan went to the pool"
        );
    }

    #[tokio::test]
    async fn concurrent_requests_multiplex() {
        let (addr, _node) = start_node(50.0).await; // slow: 50 records/s
        let mut s = connect_covering_all(addr).await;
        rpc(
            &mut s,
            1,
            Msg::Store {
                records: vec![],
                synthetic_ids: (0..10).collect(),
            },
        )
        .await;
        // issue a slow sub-query then a ping on the same connection; the
        // ping must come back first
        write_frame(
            &mut s,
            &Frame {
                id: 100,
                body: Msg::SubQuery {
                    query_id: 1,
                    window_start: 0,
                    window_end: 0,
                    body: QueryBody::Synthetic,
                    backend: None,
                },
            },
        )
        .await
        .unwrap();
        write_frame(
            &mut s,
            &Frame {
                id: 101,
                body: Msg::Ping,
            },
        )
        .await
        .unwrap();
        let first = read_frame(&mut s).await.unwrap().unwrap();
        assert_eq!(first.id, 101, "ping should overtake the slow sub-query");
    }
}
