//! The control-plane handle: membership, repartitioning, balancing,
//! backfill and discovery.
//!
//! Everything that mutates cluster-wide state — the ring and the
//! partitioning level it holds, node membership, the backend corpus —
//! lives here, split off from the query path so operators (and operator
//! tooling) get a typed surface that cannot be confused with per-query
//! knobs. The
//! [`Admin`] handle shares its [`ClusterCore`] with the
//! [`QueryClient`](crate::client::QueryClient) it was connected with, so
//! control actions take effect on the very next query.
//!
//! ```no_run
//! # async fn demo(addrs: &[std::net::SocketAddr]) -> std::io::Result<()> {
//! use roar_cluster::connect;
//!
//! let (client, admin) = connect(addrs, 4, 1.0).await?;
//! admin.store_synthetic(&[7, 8, 9]).await.expect("store");
//! admin.set_p(2).await.expect("repartition");         // §4.5, no downtime
//! let moved = admin.balance_step().await.expect("balance"); // §4.6
//! println!("p = {}, {} boundaries moved", admin.p(), moved);
//! # let _ = client; Ok(()) }
//! ```

use crate::frontend::{write_set, ClusterCore, SchedOpts};
use crate::proto::{Msg, QueryBody};
use crate::transport::RpcError;
use roar_core::placement::RoarRing;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A control-plane operation failed.
///
/// Control RPCs run under bounded retry with jittered exponential backoff
/// (a single lost datagram on udp/ccudp must not fail a whole
/// reconfiguration), so the terminal error names the op and the budget
/// that was exhausted instead of surfacing the first transient
/// [`RpcError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminError {
    /// Every retry of one control RPC failed; the target node has been
    /// marked dead.
    RetriesExhausted {
        /// Which control operation (`"store"`, `"set_coverage"`, …).
        op: &'static str,
        /// The node the RPC targeted.
        node: usize,
        /// How many attempts were made.
        attempts: u32,
        /// The last transport-level error observed.
        last: RpcError,
    },
    /// A non-retryable failure (e.g. the initial connect of
    /// [`Admin::add_node`]).
    Rpc { op: &'static str, err: RpcError },
    /// A placement change ([`Admin::set_p`], [`Admin::add_node`],
    /// [`Admin::remove_node`], [`Admin::balance_step`]) was refused: an
    /// earlier one whose push failed left its ring pending;
    /// [`Admin::abort_repartition`] drops it.
    RepartitionInFlight,
}

impl std::fmt::Display for AdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminError::RetriesExhausted {
                op,
                node,
                attempts,
                last,
            } => write!(
                f,
                "control op {op:?} to node {node} failed after {attempts} attempts (last: {last:?})"
            ),
            AdminError::Rpc { op, err } => write!(f, "control op {op:?} failed: {err:?}"),
            AdminError::RepartitionInFlight => {
                write!(
                    f,
                    "placement change refused: an earlier one is still pending"
                )
            }
        }
    }
}

impl std::error::Error for AdminError {}

/// The control plane of one connected cluster. Cheap to clone.
#[derive(Clone)]
pub struct Admin {
    pub(crate) core: Arc<ClusterCore>,
}

impl Admin {
    // ---- observability ------------------------------------------------

    /// Number of connected nodes.
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// The partitioning level queries are planned with: the serving
    /// ring's `p`. During a §4.5 decrease it stays at the old, larger level
    /// until every node holds its longer arc.
    pub fn p(&self) -> usize {
        self.core.p()
    }

    /// Is a placement change pending — its ring installed, its download
    /// not yet committed or aborted? A failed push leaves it so.
    /// [`Self::discover_p`] and [`Self::discover_p_by_probing`] clear it
    /// too: they adopt the level the nodes hold.
    pub fn reconfig_in_flight(&self) -> bool {
        self.core.pending.lock().is_some()
    }

    /// Snapshot of the serving ring.
    pub fn ring(&self) -> RoarRing {
        self.core.ring_snapshot()
    }

    /// EWMA speed estimates per node (work-fraction per second).
    pub fn speed_estimates(&self) -> Vec<f64> {
        self.core.speed_estimates()
    }

    /// Current range fractions (for the load-balancing figures).
    pub fn range_fractions(&self) -> Vec<(usize, f64)> {
        self.core.ring.read().map().fractions()
    }

    /// Is the node believed alive?
    pub fn node_alive(&self, node: usize) -> bool {
        self.core.stats.read().is_alive(node)
    }

    /// Actively probe a node's liveness with one `Ping` and record the
    /// verdict in the server statistics (believed-dead nodes get a second
    /// chance; silent corpses are confirmed dead). The reconciler's
    /// observer runs this per ring member.
    pub async fn probe_alive(&self, node: usize) -> bool {
        let timeout = Duration::from_millis(1500).min(self.core.timeout);
        match self.core.conn(node).rpc(Msg::Ping, timeout).await {
            Ok(Msg::Pong) => {
                self.core.stats.write().on_alive(node);
                true
            }
            _ => {
                self.core.stats.write().on_timeout(node);
                false
            }
        }
    }

    /// How many records the backend says a node's coverage under `ring`
    /// requires — the expected side of the observer's completeness check.
    pub fn expected_records(&self, ring: &RoarRing, node: usize) -> u64 {
        let coverage = ring.coverage(node);
        coverage.map_or(0, |cov| self.core.backend.window_len(&cov)) as u64
    }

    /// How many records (PPS + synthetic) a node currently holds — the
    /// observer's coverage-completeness signal.
    pub async fn node_record_count(&self, node: usize) -> Result<u64, RpcError> {
        match self
            .core
            .conn(node)
            .rpc(Msg::CountRequest, self.core.timeout)
            .await?
        {
            Msg::Count { records } => Ok(records),
            _ => Err(RpcError::Disconnected),
        }
    }

    /// Fault injection: scale a node's synthetic processing time by
    /// `factor` (1.0 = nominal, 4.0 = four times slower). The slow node
    /// stays alive and correct — only its latency degrades, the §4.8.2
    /// straggler model.
    pub async fn set_speed_factor(&self, node: usize, factor: f64) -> Result<(), AdminError> {
        self.core
            .control_rpc("set_speed_factor", node, Msg::SetSpeedFactor { factor })
            .await?;
        Ok(())
    }

    /// Switch every node's synthetic service model (Definition 8). `serial
    /// = true` makes each node a single serial scanner — concurrent
    /// synthetic sub-queries queue, so offered load past capacity builds a
    /// real backlog. This is what the open-loop capacity bench
    /// (`repro bench_capacity`) and the admission-control scenarios run
    /// under; the default (`false`) keeps the co-sleeping behaviour the
    /// closed-loop suites were calibrated against.
    pub async fn set_serial_service(&self, serial: bool) -> Result<(), AdminError> {
        for node in 0..self.core.n() {
            self.core
                .control_rpc("set_service_model", node, Msg::SetServiceModel { serial })
                .await?;
        }
        Ok(())
    }

    // ---- ingest (backend + replica fan-out) ---------------------------

    /// Store synthetic ids on their replica sets (and remember them in the
    /// backend). While a placement change is pending each id also goes to
    /// the replicas its pending ring adds, so the write reaches every node
    /// that will serve it.
    pub async fn store_synthetic(&self, ids: &[u64]) -> Result<(), AdminError> {
        self.core.backend.append_synthetic(ids);
        self.core.store(&[], ids).await
    }

    /// Store encrypted PPS records on their replica sets, placed as
    /// [`Self::store_synthetic`] places ids.
    pub async fn store_records(
        &self,
        records: &[roar_pps::EncryptedMetadata],
    ) -> Result<(), AdminError> {
        self.core.backend.append_records(records);
        self.core.store(records, &[]).await
    }

    /// Tell every node its ring successor so [`Self::store_synthetic_p2p`]
    /// chains work. Re-push after membership or balancing changes.
    pub async fn push_successors(&self) -> Result<(), AdminError> {
        let ring = self.core.ring_snapshot();
        let entries = ring.map().entries().to_vec();
        for i in 0..entries.len() {
            if !self.node_alive(entries[i].node) {
                continue;
            }
            let succ = entries[(i + 1) % entries.len()].node;
            let addr = self.core.conn(succ).addr().to_string();
            self.core
                .control_rpc("set_successor", entries[i].node, Msg::SetSuccessor { addr })
                .await?;
        }
        Ok(())
    }

    /// Store ids by pushing each object **only to its first replica**; the
    /// nodes forward along the ring ("push the data item to the first
    /// server, and then forward it from server to server around the ring",
    /// §4.1). With rack-contiguous ring order the forwarding hops stay
    /// intra-rack (§4.9.2). The chain runs along the serving ring; the
    /// replicas a pending placement change adds get a direct `Store`. Falls
    /// back to direct pushes for any batch whose chain breaks (e.g. a dead
    /// node mid-arc): one `Store` per replica node, skipping nodes believed
    /// dead — the survivors keep the arc queryable.
    pub async fn store_synthetic_p2p(&self, ids: &[u64]) -> Result<(), AdminError> {
        self.core.backend.append_synthetic(ids);
        let rings = self.core.write_rings();
        let ring = &rings.0;
        // batch by (first replica, chain length): one chain per batch;
        // direct pushes, grouped per node, start with the pending-only ones
        let mut batches: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
        let mut direct: HashMap<usize, Vec<u64>> = HashMap::new();
        for &id in ids {
            let chain = ring.replicas(id);
            for &node in &write_set(&rings, id)[chain.len()..] {
                direct.entry(node).or_default().push(id);
            }
            batches.entry((chain[0], chain.len())).or_default().push(id);
        }
        for ((first, chain_len), batch) in batches {
            let msg = Msg::StoreForward {
                records: vec![],
                synthetic_ids: batch.clone(),
                hops: (chain_len - 1) as u32,
            };
            let ok = matches!(
                self.core.conn(first).rpc(msg, self.core.timeout).await,
                Ok(Msg::Ok)
            );
            if !ok {
                for &id in &batch {
                    for node in ring.replicas(id) {
                        direct.entry(node).or_default().push(id);
                    }
                }
            }
        }
        // one direct push per live node; a node that still fails is
        // tolerated — the backend holds the write for `backfill`
        for (node, synthetic_ids) in direct {
            if !self.node_alive(node) {
                continue;
            }
            let msg = Msg::Store {
                records: vec![],
                synthetic_ids,
            };
            let _ = self.core.conn(node).rpc(msg, self.core.timeout).await;
        }
        Ok(())
    }

    // ---- repartitioning (§4.5) ----------------------------------------

    /// Change the partitioning level following the §4.5 protocol: the ring
    /// at `new_p` becomes pending, each node is pushed, from the backend,
    /// only what its coverage there adds — for a decrease the extension of
    /// its longer arc, for an increase nothing — and only then does the
    /// ring's `p` change and do the nodes widen or trim their coverages, so
    /// queries remain correct throughout. Writes made meanwhile reach the
    /// pending ring's replicas too. A write a node missed while it was
    /// believed dead is not re-delivered: that is [`Self::backfill`]'s job,
    /// which the [`crate::reconcile::Reconciler`] plans when a node's
    /// record count falls short.
    ///
    /// A push that hits a dead node fails with
    /// [`AdminError::RetriesExhausted`] and leaves the ring **pending**
    /// with the serving `p` unchanged (queries stay safe on the old
    /// level); the caller — typically the
    /// [`crate::reconcile::Reconciler`] — aborts it and re-plans against
    /// the surviving membership. Until then every placement change fails
    /// with [`AdminError::RepartitionInFlight`].
    ///
    /// `set_p`, [`Self::add_node`], [`Self::remove_node`] and
    /// [`Self::balance_step`] run one at a time: each waits for the one in
    /// progress, so no download is planned against a ring that changes
    /// before it lands.
    pub async fn set_p(&self, new_p: usize) -> Result<(), AdminError> {
        let _control = self.core.control.lock().await;
        let old = self.core.ring_snapshot();
        if new_p == old.p() && !self.reconfig_in_flight() {
            return Ok(());
        }
        let mut next = old.clone();
        next.set_p(new_p);
        self.core.move_to(&old, next, false).await
    }

    /// Abort a pending placement change (§4.5: load spiked again before
    /// commit) by dropping its ring. Safe because the serving ring never
    /// changed; a later placement change starts from a clean slate.
    pub fn abort_repartition(&self) {
        *self.core.pending.lock() = None;
    }

    /// Re-push from the backend each live node's whole coverage (nodes
    /// dedupe by id on insert): the explicit heal for writes a node missed,
    /// which placement changes, shipping only what coverages gain, do not
    /// re-deliver.
    pub async fn backfill(&self) -> Result<(), AdminError> {
        self.core.backfill().await
    }

    // ---- balancing (§4.6) ---------------------------------------------

    /// One §4.6 balancing round: move boundaries toward load-proportional
    /// ranges using current speed estimates on a copy of the ring, push
    /// each live node what its coverage gains by the move, then install the
    /// moved ring and push the new coverages. A node whose range shrank
    /// downloads nothing.
    pub async fn balance_step(&self) -> Result<usize, AdminError> {
        let _control = self.core.control.lock().await;
        let old = self.core.ring_snapshot();
        let mut moved_ring = old.clone();
        let moved = {
            let speeds = self.core.speed_estimates();
            let snapshot = old.map();
            let load = move |n: usize| {
                let i = snapshot
                    .entries()
                    .iter()
                    .position(|e| e.node == n)
                    .expect("node on ring");
                snapshot.fraction_at(i) / speeds[n]
            };
            roar_core::balance::balance_step(
                moved_ring.map_mut(),
                &roar_core::balance::BalanceConfig::default(),
                &load,
                &|_| false,
            )
        };
        if moved > 0 {
            self.core.move_to(&old, moved_ring, true).await?;
        }
        Ok(moved)
    }

    // ---- membership (§4.3 / §4.4) -------------------------------------

    /// Kill a node (experiment control): ask it to shut down and mark it
    /// dead. Queries keep succeeding through the fall-back.
    pub async fn kill_node(&self, node: usize) {
        let _ = self
            .core
            .conn(node)
            .rpc(Msg::Shutdown, Duration::from_millis(500))
            .await;
        self.core.stats.write().on_timeout(node);
    }

    /// Add a running data node to the serving ring (§4.3): "a simple
    /// strategy for inserting nodes is to pick the most heavily loaded node,
    /// and insert the new node as its neighbour." The new node downloads its
    /// data from the backend *before* it takes over half the hot node's
    /// range, so queries never see a window nobody covers. Returns the new
    /// node's id.
    pub async fn add_node(&self, addr: SocketAddr) -> Result<usize, AdminError> {
        let _control = self.core.control.lock().await;
        // refused before its link is added, so no node is left off the ring
        if self.reconfig_in_flight() {
            return Err(AdminError::RepartitionInFlight);
        }
        let conn = self
            .core
            .transport
            .connect(addr)
            .await
            .map_err(|_| AdminError::Rpc {
                op: "connect",
                err: RpcError::Disconnected,
            })?;
        let new_id = {
            let mut conns = self.core.conns.write();
            conns.push(conn);
            conns.len() - 1
        };
        {
            let mut st = self.core.stats.write();
            let sid = st.add_node();
            debug_assert_eq!(sid, new_id, "stats and conns must stay index-aligned");
        }
        // pick the entry to split: durability first, then load. A range
        // longer than the replication arc L under-replicates its interior —
        // objects whose whole arc fits inside one range live on that node
        // alone — so the widest such range is split unconditionally;
        // otherwise the hottest entry (largest range per unit of estimated
        // speed) is picked as usual.
        let old = self.core.ring_snapshot();
        let new_ring = {
            let ring = &old;
            let st = self.core.stats.read();
            let widest = (0..ring.n())
                .max_by_key(|&i| {
                    let (s, e) = ring.map().range_at(i);
                    roar_core::ring::dist_cw(s, e)
                })
                .expect("non-empty ring");
            let (ws, we) = ring.map().range_at(widest);
            let hot = if roar_core::ring::dist_cw(ws, we) > ring.l() {
                widest
            } else {
                (0..ring.n())
                    .max_by(|&a, &b| {
                        let la = ring.map().fraction_at(a)
                            / st.speed_estimate(ring.map().entries()[a].node);
                        let lb = ring.map().fraction_at(b)
                            / st.speed_estimate(ring.map().entries()[b].node);
                        la.partial_cmp(&lb).expect("loads are not NaN")
                    })
                    .expect("non-empty ring")
            };
            let mut new_ring = ring.clone();
            new_ring.map_mut().insert_half(new_id, hot);
            new_ring
        };
        // the new node is on no earlier ring, so it downloads its whole
        // coverage; every other coverage only shrank
        self.core.move_to(&old, new_ring, false).await?;
        Ok(new_id)
    }

    /// Controlled removal (§4.4): "a node can be removed from the ring in a
    /// controlled manner by informing its neighbours that its load is now
    /// infinite. The two neighbours will grow their ranges into the range of
    /// the node to be removed by downloading the additional data needed."
    /// The range merges into the predecessor's, so only that heir's
    /// coverage grows: it alone is sent a `Store`, holding the records its
    /// coverage gains; every other survivor gets no download. The departing
    /// node is shut down only after the heir covers its range. Removing an
    /// already-dead node is the failure-heal path: the heir's download still
    /// runs, only the final shutdown courtesy call is skipped. Writes a
    /// survivor missed are not re-delivered — that is [`Self::backfill`]'s
    /// job.
    pub async fn remove_node(&self, node: usize) -> Result<(), AdminError> {
        let _control = self.core.control.lock().await;
        let old = self.core.ring_snapshot();
        assert!(
            old.map().range_of(node).is_some(),
            "node {node} not on the ring"
        );
        assert!(old.n() > old.p(), "removing would leave fewer nodes than p");
        let mut new_ring = old.clone();
        new_ring.map_mut().remove(node);
        // the heir (and only it) gained range — skipping members currently
        // believed dead, so one corpse cannot wedge the removal of another
        self.core.move_to(&old, new_ring, true).await?;
        // now the departing node may go (skip the courtesy call if it is
        // already dead)
        if self.node_alive(node) {
            let _ = self
                .core
                .conn(node)
                .rpc(Msg::Shutdown, Duration::from_millis(500))
                .await;
        }
        self.core.stats.write().on_timeout(node);
        Ok(())
    }

    // ---- §4.8.3: backup front-end p discovery -------------------------

    /// Learn the safe partitioning level from the nodes' coverage windows:
    /// node i's coverage starts `L` before its range, so the minimum
    /// observed `L` bounds the largest window (smallest p) every node can
    /// serve. One control round-trip per node; exact, no wasted queries.
    pub async fn discover_p(&self) -> Result<usize, RpcError> {
        let _control = self.core.control.lock().await;
        let ring = self.core.ring_snapshot();
        let mut min_l: u128 = 1 << 64; // full ring
        for i in 0..ring.n() {
            let entry = ring.map().entries()[i];
            let (s, _e) = ring.map().range_at(i);
            match self
                .core
                .conn(entry.node)
                .rpc(Msg::CoverageRequest, self.core.timeout)
                .await?
            {
                Msg::Coverage {
                    start,
                    end,
                    has: true,
                } => {
                    // coverage = (range_start − L, range_end − 1]; a
                    // start == end reply is the clamped full-ring coverage
                    // and bounds nothing
                    if start != end {
                        let l = s.wrapping_sub(start) as u128;
                        min_l = min_l.min(l.max(1));
                    }
                }
                Msg::Coverage { has: false, .. } => {
                    // never trimmed: the node holds everything pushed to it
                }
                _ => return Err(RpcError::Disconnected),
            }
        }
        // smallest p whose window 1/p fits into every node's L
        let full: u128 = 1 << 64;
        let p = (full.div_ceil(min_l) as usize).clamp(1, self.n());
        self.core.reset_p(p);
        Ok(p)
    }

    /// The thesis's other option: "guess a value of p and use it to split
    /// queries. If the servers do not have enough replicas they will reply
    /// saying they haven't matched the whole query. Then, the front-end can
    /// decrease p and retry." Feasibility is monotone in p (bigger p =
    /// smaller windows), so we bisect down from the always-safe `p = n`.
    /// Probes are synthetic and fail safe: a refused probe yields
    /// harvest < 1, never wrong results.
    ///
    /// Unlike coverage refusals — the probing signal — transport-level
    /// failures make the bisection unsound (a lost window looks like a
    /// refusal but says nothing about p), so the first RPC error aborts
    /// with `Err` instead of being silently folded into the guess.
    pub async fn discover_p_by_probing(&self) -> Result<usize, RpcError> {
        let _control = self.core.control.lock().await;
        let n = self.n();
        let mut lo = 1usize;
        let mut hi = n; // p = n "will always work"
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.core.reset_p(mid);
            let out = crate::client::QueryClient {
                core: Arc::clone(&self.core),
            }
            .query(QueryBody::Synthetic)
            .sched(SchedOpts::default())
            .run()
            .await;
            if out.lost > 0 {
                // restore the always-safe level before surfacing the error
                self.core.reset_p(n);
                return Err(out.rpc_error.unwrap_or(RpcError::Timeout));
            }
            if out.harvest >= 1.0 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.core.reset_p(hi);
        Ok(hi)
    }
}
