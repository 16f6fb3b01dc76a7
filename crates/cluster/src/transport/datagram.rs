//! Sending queries reliably (§4.8.4) — the datagram alternative to TCP.
//!
//! The thesis's diagnosis: application-limited TCP suffers head-of-line
//! blocking on loss because "the queries are small, so at any time there is
//! little data in flight … If a packet gets lost, fast-retransmit is not
//! triggered; instead, a long retransmit timeout must expire", and with
//! large p the synchronized replies overflow the front-end's switch buffer
//! (TCP incast). Its prescription: "drastically reduce or even eliminate
//! TCP's min RTO" — or "use UDP enhanced with application-level
//! acknowledgements".
//!
//! This module is that second option: a symmetric request/response endpoint
//! over UDP with
//!
//! * **application-level acknowledgements** — a node acknowledges a request
//!   the moment it receives it and the response doubles as the final ack,
//!   so the requester distinguishes "peer is dead" (silence) from "peer is
//!   still computing" (acks without a response yet);
//! * **a short app-level RTO** (milliseconds, not TCP's 200 ms–1 s minimum):
//!   the whole request is retransmitted every RTO until acknowledged, and
//!   re-polled at the same cadence until answered, so a lost reply costs
//!   one RTO, not one min-RTO; every timer carries a deterministic
//!   ±[`DatagramConfig::jitter`] so synchronized incast retries
//!   de-synchronize;
//! * **at-most-once execution** — responders keep a bounded
//!   `(peer, request id) → in-flight | response` table, so a retransmitted
//!   request re-sends the cached reply (or is merely re-acknowledged while
//!   the handler still runs) instead of re-running the handler
//!   (re-executing a sub-query would double-count work and skew speed
//!   estimates);
//! * **chunked payloads** — messages larger than one datagram travel as
//!   numbered fragments ([`DatagramConfig::max_datagram`] bytes of the
//!   [`Msg`] tagged codec each) and are reassembled on receipt, so large
//!   sub-query results need no TCP side channel;
//! * **no head-of-line blocking** — each request stands alone; a lost
//!   datagram delays only its own query.
//!
//! What the sender does *about the path* — how long the RTO is, whether a
//! request may enter the network yet, how datagrams are spaced — is the
//! endpoint's [`CongestionPolicy`] ([`super::congestion`]): the thesis's
//! fixed timer ([`FixedRto`](super::FixedRto), transport `"udp"`) or
//! RTT-adaptive RTO + AIMD window + pacing
//! ([`Adaptive`](super::Adaptive), transport `"ccudp"`). Everything in
//! this file is written once and runs identically under both.
//!
//! [`LossPolicy`] injects deterministic or seeded-random datagram loss so
//! the recovery paths are actually exercised in tests — on loopback, real
//! loss never happens.

use super::congestion::CongestionPolicy;
use super::{BoundServer, BoxFuture, FnHandler, Handler, LossSpec, NodeLink, RpcError, Transport};
use crate::proto::Msg;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::UdpSocket;
use tokio::sync::oneshot;

/// Default per-datagram payload budget. Generous for loopback; tests dial
/// it down to exercise fragmentation.
pub const MAX_DATAGRAM: usize = 60_000;

/// `kind (1) | id (8) | seq (2) | total (2)` precede every fragment.
pub(crate) const HEADER: usize = 13;

pub(crate) const KIND_REQUEST: u8 = 0;
pub(crate) const KIND_RESPONSE: u8 = 1;
pub(crate) const KIND_ACK: u8 = 2;

pub(crate) fn encode_datagram(kind: u8, id: u64, seq: u16, total: u16, frag: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(HEADER + frag.len());
    wire.push(kind);
    wire.extend_from_slice(&id.to_be_bytes());
    wire.extend_from_slice(&seq.to_be_bytes());
    wire.extend_from_slice(&total.to_be_bytes());
    wire.extend_from_slice(frag);
    wire
}

#[allow(clippy::type_complexity)]
pub(crate) fn decode_datagram(wire: &[u8]) -> Option<(u8, u64, u16, u16, &[u8])> {
    if wire.len() < HEADER {
        return None;
    }
    let kind = wire[0];
    // the slice widths match the array widths by construction (length
    // checked against HEADER above); `ok()?` keeps malformed-input
    // handling panic-free instead of asserting it
    let id = u64::from_be_bytes(wire[1..9].try_into().ok()?);
    let seq = u16::from_be_bytes(wire[9..11].try_into().ok()?);
    let total = u16::from_be_bytes(wire[11..13].try_into().ok()?);
    Some((kind, id, seq, total, &wire[HEADER..]))
}

/// How many fragments of `budget` bytes a payload of `len` bytes travels
/// as (an empty payload is one empty fragment). The header counts
/// fragments in a `u16`; payload sizes are the caller's (a store batch, a
/// result set), so exceeding that is an input error, not a bug.
fn fragment_count(len: usize, budget: usize) -> std::io::Result<u16> {
    u16::try_from(len.div_ceil(budget).max(1)).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "payload of {len} bytes exceeds {} fragments of {budget} bytes",
                u16::MAX
            ),
        )
    })
}

/// Deterministic retransmission-timer jitter: a factor in
/// `[1 - frac, 1 + frac)` derived by hashing `(id, attempt)` (splitmix64),
/// so every request's every retransmission lands at its own offset —
/// de-synchronizing the lockstep incast retries — while the schedule stays
/// exactly reproducible (no shared RNG state, no lock).
pub(crate) fn jitter_factor(id: u64, attempt: u32, frac: f64) -> f64 {
    if frac == 0.0 {
        return 1.0;
    }
    let mut z = id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((u64::from(attempt)).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
    1.0 - frac + 2.0 * frac * unit
}

/// RAII reclaim of a pending-request slot: the waiter entry is removed
/// even if the owning request future is dropped mid-exchange (a cancelled
/// request must not leak its entry).
struct PendingGuard<'a> {
    pending: &'a Mutex<HashMap<u64, Waiter>>,
    id: u64,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.pending.lock().remove(&self.id);
    }
}

/// Endpoint parameters every policy shares, plus the policy's own knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatagramConfig<C> {
    /// How many consecutive RTO windows may pass with *no* datagram from
    /// the peer (no ack, no response) before the request fails — the
    /// dead-peer detector. Acks reset the count, so long-running handlers
    /// are never mistaken for failures.
    pub max_attempts: u32,
    /// Bound on the per-peer at-most-once table, reassembly buffers and
    /// per-peer policy state.
    pub dedup_entries: usize,
    /// Per-datagram payload budget; larger messages are chunked.
    pub max_datagram: usize,
    /// Retransmission-timer jitter as a fraction of the RTO: each window is
    /// `rto × U[1 − jitter, 1 + jitter)`, deterministically derived from
    /// `(request id, attempt)`. Without it, the synchronized incast retries
    /// that lost a reply burst together *retransmit* together and lose the
    /// retransmission burst too; ±20% spreads them across the fan-in.
    pub jitter: f64,
    /// The [`CongestionPolicy::Config`] of the policy in charge.
    pub policy: C,
}

/// Insertion-ordered bounded map: at most `cap` live entries; inserting
/// past capacity evicts the oldest. Backs every per-peer table of the
/// endpoint (loss-injection memory, the at-most-once cache, reassembly
/// buffers, congestion state), so its memory stays bounded no matter what
/// peers send.
///
/// Entries are stamped so removal and replacement are O(1): a stale FIFO
/// slot (its stamp no longer matching the live entry) never evicts a newer
/// entry that reused the same key.
pub(crate) struct BoundedMap<K, V> {
    map: HashMap<K, (u64, V)>,
    order: VecDeque<(K, u64)>,
    stamp: u64,
    cap: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V> BoundedMap<K, V> {
    pub(crate) fn new(cap: usize) -> Self {
        BoundedMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            stamp: 0,
            cap,
        }
    }

    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k).map(|(_, v)| v)
    }

    pub(crate) fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.map.get_mut(k).map(|(_, v)| v)
    }

    pub(crate) fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Evict oldest-known keys until `incoming` (0 or 1) more entries fit
    /// within the bound — a newcomer always fits, even at capacity zero —
    /// then keep the FIFO itself bounded once stale slots dominate.
    fn make_room(&mut self, incoming: usize) {
        while self.map.len() + incoming > self.cap.max(incoming) {
            let Some((k0, s0)) = self.order.pop_front() else {
                break;
            };
            // stale slots (replaced or removed keys) must not evict the
            // live entry under the same key
            if self.map.get(&k0).is_some_and(|(s, _)| *s == s0) {
                self.map.remove(&k0);
            }
        }
        if self.order.len() > 2 * self.cap {
            let map = &self.map;
            self.order
                .retain(|(k0, s0)| map.get(k0).is_some_and(|(s, _)| s == s0));
        }
    }

    pub(crate) fn insert(&mut self, k: K, v: V) {
        self.stamp += 1;
        let s = self.stamp;
        self.map.insert(k, (s, v));
        self.order.push_back((k, s));
        self.make_room(0);
    }

    pub(crate) fn remove(&mut self, k: &K) -> Option<V> {
        // the stale order slot is left behind; the stamp check skips it
        self.map.remove(k).map(|(_, v)| v)
    }

    /// Mutable access to the entry under `k`, admitting `default()` on
    /// first contact. Unlike insert-then-lookup, the newcomer is never a
    /// candidate for its own admission's eviction — room is made *before*
    /// it enters the map — so the returned borrow is total and no
    /// `expect` is needed. A capacity of zero still admits one entry.
    pub(crate) fn get_or_insert_with(&mut self, k: K, default: impl FnOnce() -> V) -> &mut V {
        if !self.map.contains_key(&k) {
            self.make_room(1);
        }
        // disjoint field borrows: the entry holds `map` while the closure
        // stamps the newcomer into `order`
        let BoundedMap {
            map, order, stamp, ..
        } = self;
        let (_, v) = map.entry(k).or_insert_with(|| {
            *stamp += 1;
            order.push_back((k, *stamp));
            (*stamp, default())
        });
        v
    }
}

/// Ids whose first response transmission was already sacrificed
/// ([`LossPolicy::FirstReplyPerRequest`]); bounded.
pub struct SeenIds(BoundedMap<u64, ()>);

impl SeenIds {
    fn new(cap: usize) -> Self {
        SeenIds(BoundedMap::new(cap))
    }

    /// True exactly on the first sighting of `id`.
    fn first_sighting(&mut self, id: u64) -> bool {
        if self.0.contains(&id) {
            return false;
        }
        self.0.insert(id, ());
        true
    }
}

/// Datagram-loss injection for tests. Applied to *outgoing* datagrams.
pub enum LossPolicy {
    /// Deliver everything.
    None,
    /// Drop the first `n` datagrams sent (any kind), deliver the rest —
    /// deterministic recovery tests.
    DropFirst(Mutex<u32>),
    /// Drop the first `n` *response* datagrams; acks and requests pass —
    /// deterministic reply-loss tests.
    DropFirstResponses(Mutex<u32>),
    /// Drop the first transmission of every response, deliver
    /// retransmissions: the §4.8.4 incast model — the synchronized reply
    /// burst is lost at the fan-in and recovery is governed purely by the
    /// retransmission timer.
    FirstReplyPerRequest(Mutex<SeenIds>),
    /// Drop each datagram independently with probability `p` — seeded, so
    /// failures reproduce.
    Random { p: f64, rng: Mutex<StdRng> },
    /// Route every datagram through a shared fluid bottleneck queue with
    /// competing cross traffic ([`super::CrossTrafficSpec`]): drop whatever
    /// the queue tail-drops. The congestion-collapse model.
    Bottleneck(super::SharedBottleneck),
    /// Partition switch in front of another policy: drop everything while
    /// the shared gate is closed, defer to the inner policy while open.
    Gated {
        gate: super::NetGate,
        inner: Box<LossPolicy>,
    },
}

/// What the loss policy decided for one outgoing datagram.
pub(crate) enum SendFate {
    /// Send now.
    Deliver,
    /// Silently vanish (injected loss / tail-drop).
    Drop,
    /// Forwarded by the emulated bottleneck, but only after its FIFO
    /// queueing delay.
    DeliverAfter(Duration),
}

impl LossPolicy {
    pub fn drop_first(n: u32) -> Self {
        LossPolicy::DropFirst(Mutex::new(n))
    }

    pub fn drop_first_responses(n: u32) -> Self {
        LossPolicy::DropFirstResponses(Mutex::new(n))
    }

    pub fn first_reply_per_request() -> Self {
        LossPolicy::FirstReplyPerRequest(Mutex::new(SeenIds::new(1 << 16)))
    }

    pub fn random(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability {p} outside [0,1)"
        );
        LossPolicy::Random {
            p,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The verdict for one outgoing datagram.
    pub(crate) fn fate(&self, kind: u8, id: u64) -> SendFate {
        /// Consume one of the `left` drops still owed, if any.
        fn owed(left: &Mutex<u32>) -> bool {
            let mut left = left.lock();
            let next = left.checked_sub(1);
            *left = next.unwrap_or(0);
            next.is_some()
        }
        let drop = match self {
            // the gate check must not consume the inner policy's state
            // (counters, queue slots) while closed
            LossPolicy::Gated { gate, inner } if gate.is_open() => return inner.fate(kind, id),
            LossPolicy::Gated { .. } => true,
            LossPolicy::Bottleneck(queue) => {
                return queue.admit().map_or(SendFate::Drop, SendFate::DeliverAfter)
            }
            LossPolicy::None => false,
            LossPolicy::DropFirst(left) => owed(left),
            LossPolicy::DropFirstResponses(left) => kind == KIND_RESPONSE && owed(left),
            LossPolicy::FirstReplyPerRequest(seen) => {
                kind == KIND_RESPONSE && seen.lock().first_sighting(id)
            }
            LossPolicy::Random { p, rng } => rng.lock().gen_bool(*p),
        };
        if drop {
            SendFate::Drop
        } else {
            SendFate::Deliver
        }
    }
}

/// Error from [`DatagramEndpoint::request`].
#[derive(Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The overall deadline passed, or the peer went silent for
    /// `max_attempts` RTO windows — dead or black-holed. The front-end
    /// treats this exactly like a sub-query timer firing: mark the node
    /// failed and fall back (§4.4).
    TimedOut,
    /// Local I/O error — including `InvalidInput` for a message too large
    /// to fragment.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TimedOut => write!(f, "request timed out after all retransmissions"),
            RequestError::Io(k) => write!(f, "i/o error: {k:?}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e.kind())
    }
}

/// One outstanding request on the client side.
struct Waiter {
    peer: SocketAddr,
    tx: oneshot::Sender<Msg>,
    /// Any datagram (ack or response fragment) from `peer` for this id
    /// since the last retransmit window — the liveness signal.
    heard: bool,
    /// When the first transmission left — the RTT sample's start.
    sent_at: Instant,
    /// Karn's rule: once retransmitted, this exchange never yields an RTT
    /// sample (the reply could answer either transmission).
    retransmitted: bool,
    /// An RTT sample was already taken for this exchange.
    sampled: bool,
}

/// At-most-once table on the responder side.
#[derive(Clone)]
enum Served {
    /// Handler is still running; duplicates are acknowledged, not re-run.
    InFlight,
    /// Encoded response payload; duplicates get it re-sent.
    Done(Vec<u8>),
}

type ServedCache = BoundedMap<(SocketAddr, u64), Served>;

/// One multi-chunk payload being reassembled. Fragments are kept by
/// sequence number as they arrive, so an assembly's memory follows the
/// bytes actually received — never the `total` a (possibly hostile)
/// header merely claims.
struct Assembly {
    total: u16,
    parts: BTreeMap<u16, Vec<u8>>,
}

/// Partial payloads, keyed `(peer, kind, id)`.
struct Reassembler(BoundedMap<(SocketAddr, u8, u64), Assembly>);

impl Reassembler {
    fn new(cap: usize) -> Self {
        Reassembler(BoundedMap::new(cap))
    }

    /// Feed one fragment; returns the full payload once every chunk is in.
    fn offer(
        &mut self,
        key: (SocketAddr, u8, u64),
        seq: u16,
        total: u16,
        frag: &[u8],
    ) -> Option<Vec<u8>> {
        if total == 0 || seq >= total {
            return None; // malformed header
        }
        if total == 1 {
            return Some(frag.to_vec()); // unfragmented fast path
        }
        let a = self.0.get_or_insert_with(key, || Assembly {
            total,
            parts: BTreeMap::new(),
        });
        if a.total != total {
            return None; // inconsistent duplicate; ignore
        }
        a.parts.entry(seq).or_insert_with(|| frag.to_vec());
        if a.parts.len() < usize::from(total) {
            return None;
        }
        // `seq < total` and one entry per seq: `total` entries means every
        // fragment is in, and the map yields them in order
        let a = self.0.remove(&key)?;
        let mut payload = Vec::with_capacity(a.parts.values().map(Vec::len).sum());
        for part in a.parts.values() {
            payload.extend_from_slice(part);
        }
        Some(payload)
    }
}

/// A symmetric reliable-request UDP endpoint.
///
/// One endpoint both issues requests ([`Self::request`]) and serves them
/// (via the [`Handler`] given to [`serve`](Self::serve)). A single receive
/// loop demultiplexes: acks and response fragments feed the matching
/// waiter, request fragments are reassembled and dispatched (at-most-once).
pub struct DatagramEndpoint<P: CongestionPolicy> {
    sock: Arc<UdpSocket>,
    cfg: DatagramConfig<P::Config>,
    policy: P,
    next_id: AtomicU64,
    pending: Mutex<HashMap<u64, Waiter>>,
    served: Mutex<ServedCache>,
    reasm: Mutex<Reassembler>,
    loss: LossPolicy,
}

impl<P: CongestionPolicy> DatagramEndpoint<P> {
    /// Bind to `addr` (use port 0 for an ephemeral port) with explicit
    /// parameters and loss injection.
    pub async fn bind_with(
        addr: &str,
        cfg: DatagramConfig<P::Config>,
        loss: LossPolicy,
    ) -> std::io::Result<Arc<Self>> {
        assert!(cfg.max_attempts >= 1, "need at least one send attempt");
        assert!(
            cfg.max_datagram >= 1 && cfg.max_datagram + HEADER <= 65_507,
            "datagram budget {} outside (0, 65507 - header]",
            cfg.max_datagram
        );
        assert!(
            (0.0..1.0).contains(&cfg.jitter),
            "jitter fraction {} outside [0, 1)",
            cfg.jitter
        );
        let sock = UdpSocket::bind(addr).await?;
        Ok(Arc::new(DatagramEndpoint {
            sock: Arc::new(sock),
            policy: P::new(&cfg),
            cfg,
            next_id: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            served: Mutex::new(ServedCache::new(cfg.dedup_entries)),
            reasm: Mutex::new(Reassembler::new(cfg.dedup_entries)),
            loss,
        }))
    }

    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// The congestion policy's live state (observability).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Number of requests currently awaiting responses (observability and
    /// leak tests).
    pub fn outstanding(&self) -> usize {
        self.pending.lock().len()
    }

    /// Consult the loss policy and send one datagram accordingly.
    async fn send_datagram(
        &self,
        kind: u8,
        id: u64,
        wire: &[u8],
        peer: SocketAddr,
    ) -> std::io::Result<()> {
        match self.loss.fate(kind, id) {
            SendFate::Drop => Ok(()), // injected loss: silently vanish
            SendFate::Deliver => self.sock.send_to(wire, peer).await.map(|_| ()),
            SendFate::DeliverAfter(delay) => {
                // the emulated bottleneck holds the datagram in its FIFO; a
                // detached task delivers it so the caller never blocks
                let sock = Arc::clone(&self.sock);
                let wire = wire.to_vec();
                tokio::spawn(async move {
                    tokio::time::sleep(delay).await;
                    let _ = sock.send_to(&wire, peer).await;
                });
                Ok(())
            }
        }
    }

    /// Send one request or response fragment once the policy releases it,
    /// so a chunked payload (or a burst of requests from an opening
    /// window) is spread however the policy sees fit.
    async fn send_fragment(
        &self,
        kind: u8,
        id: u64,
        seq: u16,
        total: u16,
        frag: &[u8],
        peer: SocketAddr,
    ) -> std::io::Result<()> {
        let hold = self.policy.gap(peer, kind);
        if !hold.is_zero() {
            tokio::time::sleep(hold).await;
        }
        let wire = encode_datagram(kind, id, seq, total, frag);
        self.send_datagram(kind, id, &wire, peer).await
    }

    /// Send `payload` as one or more fragments of at most
    /// [`DatagramConfig::max_datagram`] bytes.
    async fn send_chunks(
        &self,
        kind: u8,
        id: u64,
        payload: &[u8],
        peer: SocketAddr,
    ) -> std::io::Result<()> {
        let budget = self.cfg.max_datagram;
        // an empty payload still travels, as one empty fragment
        let total = fragment_count(payload.len(), budget)?;
        for seq in 0..total {
            let start = usize::from(seq) * budget;
            let frag = &payload[start..payload.len().min(start + budget)];
            self.send_fragment(kind, id, seq, total, frag, peer).await?;
        }
        Ok(())
    }

    async fn send_ack(&self, id: u64, peer: SocketAddr) -> std::io::Result<()> {
        // acks are single tiny datagrams on the reverse path; pacing them
        // would only delay the liveness signal
        let wire = encode_datagram(KIND_ACK, id, 0, 1, &[]);
        self.send_datagram(KIND_ACK, id, &wire, peer).await
    }

    /// An ack or response fragment for `id` arrived from `peer`: record
    /// the liveness signal and, per Karn's rule, feed the policy an RTT
    /// sample if this exchange still qualifies for one. `false` when no
    /// request to *that peer* waits under the id (late, duplicate or
    /// off-path datagram).
    fn note_heard(&self, id: u64, peer: SocketAddr) -> bool {
        let sample = match self.pending.lock().get_mut(&id) {
            Some(w) if w.peer == peer => {
                w.heard = true;
                if w.retransmitted || w.sampled {
                    None
                } else {
                    w.sampled = true;
                    Some(w.sent_at.elapsed())
                }
            }
            _ => return false,
        };
        if let Some(rtt) = sample {
            self.policy.on_sample(peer, rtt);
        }
        true
    }

    /// Spawn the receive loop with `handler` serving inbound requests.
    /// Returns the join handle; the loop exits when `shutdown_rx` flips to
    /// `true` or its sender is dropped (the owner is gone: stop serving).
    pub fn serve(
        self: &Arc<Self>,
        handler: Arc<dyn Handler>,
        mut shutdown_rx: tokio::sync::watch::Receiver<bool>,
    ) -> tokio::task::JoinHandle<()> {
        let ep = Arc::clone(self);
        tokio::spawn(async move {
            // sized at the UDP maximum, not our own send budget: a peer
            // configured with a larger max_datagram must not have its
            // fragments silently truncated (truncation would make every
            // retransmission fail identically)
            let mut buf = vec![0u8; 65_535];
            loop {
                if *shutdown_rx.borrow() {
                    return;
                }
                let recvd = tokio::select! {
                    r = ep.sock.recv_from(&mut buf) => r,
                    changed = shutdown_rx.changed() => match changed {
                        Ok(()) => continue,
                        Err(_) => return,
                    },
                };
                let (len, peer) = match recvd {
                    Ok(x) => x,
                    // transient (e.g. ICMP port-unreachable surfacing);
                    // shutdown is the loop's only exit
                    Err(_) => continue,
                };
                let Some((kind, id, seq, total, frag)) = decode_datagram(&buf[..len]) else {
                    continue; // malformed datagram: drop, sender will retry
                };
                match kind {
                    KIND_ACK => {
                        ep.note_heard(id, peer);
                    }
                    KIND_RESPONSE => {
                        // only fragments from the peer the waiter is
                        // actually waiting on may enter the reassembler (an
                        // off-path or stale sender must not evict live
                        // partial assemblies)
                        if !ep.note_heard(id, peer) {
                            continue;
                        }
                        let complete =
                            ep.reasm
                                .lock()
                                .offer((peer, KIND_RESPONSE, id), seq, total, frag);
                        let Some(msg) = complete.and_then(|payload| Msg::decode(&payload)) else {
                            continue;
                        };
                        // the peer is re-checked under the same lock that
                        // completes the waiter: a reply may only ever
                        // complete the request that was sent to its sender
                        let delivered = match ep.pending.lock().entry(id) {
                            Entry::Occupied(w) if w.get().peer == peer => {
                                let _ = w.remove().tx.send(msg);
                                true
                            }
                            _ => false,
                        };
                        if delivered {
                            ep.policy.on_delivered(peer);
                        }
                    }
                    KIND_REQUEST => {
                        // any fragment of an already-seen request is a
                        // liveness poll: answer straight from the
                        // at-most-once table without reassembling (a peer
                        // that was acked retransmits only one fragment)
                        if ep.answer_duplicate(peer, id, false).await {
                            continue;
                        }
                        let complete =
                            ep.reasm
                                .lock()
                                .offer((peer, KIND_REQUEST, id), seq, total, frag);
                        if let Some(payload) = complete {
                            ep.dispatch_request(peer, id, payload, &handler).await;
                        }
                    }
                    _ => {}
                }
            }
        })
    }

    /// Answer a request the at-most-once table already knows: re-send the
    /// cached reply (it is the answer *and* the acknowledgement), or
    /// re-ack while the handler still runs so the peer's dead-node
    /// detector stays quiet. Returns `false` for an id not in the table —
    /// which `claim` marks in-flight in the same critical section, making
    /// the caller its one executor.
    async fn answer_duplicate(self: &Arc<Self>, peer: SocketAddr, id: u64, claim: bool) -> bool {
        let seen = {
            let mut served = self.served.lock();
            let seen = served.get(&(peer, id)).cloned();
            if seen.is_none() && claim {
                served.insert((peer, id), Served::InFlight);
            }
            seen
        };
        match seen {
            Some(Served::Done(wire)) => {
                // a (possibly paced, possibly many-fragment) resend must
                // not stall the receive loop: push it onto its own task
                let ep = Arc::clone(self);
                tokio::spawn(async move {
                    let _ = ep.send_chunks(KIND_RESPONSE, id, &wire, peer).await;
                });
            }
            Some(Served::InFlight) => {
                let _ = self.send_ack(id, peer).await;
            }
            None => return false,
        }
        true
    }

    /// A fully reassembled request: acknowledge, then execute at most once.
    async fn dispatch_request(
        self: &Arc<Self>,
        peer: SocketAddr,
        id: u64,
        payload: Vec<u8>,
        handler: &Arc<dyn Handler>,
    ) {
        if self.answer_duplicate(peer, id, true).await {
            return;
        }
        let _ = self.send_ack(id, peer).await;
        let Some(msg) = Msg::decode(&payload) else {
            // corrupt payload must not poison the id for a clean
            // retransmission
            self.served.lock().remove(&(peer, id));
            return;
        };
        let ep = Arc::clone(self);
        let h = Arc::clone(handler);
        tokio::spawn(async move {
            let wire = h.handle(msg).await.encode();
            if fragment_count(wire.len(), ep.cfg.max_datagram).is_err() {
                // a reply too large to fragment can never be sent: caching
                // it would answer every retransmission with silence, so
                // forget the id instead — the requester's deadline decides
                ep.served.lock().remove(&(peer, id));
                return;
            }
            ep.served
                .lock()
                .insert((peer, id), Served::Done(wire.clone()));
            let _ = ep.send_chunks(KIND_RESPONSE, id, &wire, peer).await;
        });
    }

    /// Issue a request and wait for its response.
    ///
    /// Once the policy admits it, the request is retransmitted every
    /// (jittered) [`CongestionPolicy::rto`] until the peer is heard from
    /// (ack or response); thereafter the same cadence re-polls for a lost
    /// reply (served from the peer's at-most-once cache). Fails with
    /// [`RequestError::TimedOut`] when `overall` expires or the peer stays
    /// silent for [`DatagramConfig::max_attempts`] consecutive windows.
    pub async fn request(
        &self,
        peer: SocketAddr,
        msg: Msg,
        overall: Duration,
    ) -> Result<Msg, RequestError> {
        let deadline = Instant::now() + overall;
        let payload = msg.encode();
        let budget = self.cfg.max_datagram;
        let total = fragment_count(payload.len(), budget)?;
        // requests the policy holds back wait locally instead of entering
        // the network
        let _permit = self.policy.admit(peer, deadline).await?;

        // ORDERING: Relaxed — only uniqueness of the id matters; the RMW is
        // atomic at any ordering and nothing else is published through it
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, mut rx) = oneshot::channel();
        self.pending.lock().insert(
            id,
            Waiter {
                peer,
                tx,
                heard: false,
                sent_at: Instant::now(), // refined after the first send
                retransmitted: false,
                sampled: false,
            },
        );
        // RAII: the waiter slot is reclaimed even if this future is dropped
        // mid-exchange (a cancelled request must not leak its entry)
        let _guard = PendingGuard {
            pending: &self.pending,
            id,
        };

        let mut silent_windows = 0u32;
        let mut ever_heard = false;
        let mut attempt = 0u32;
        loop {
            // until the peer acknowledges, the whole payload is
            // retransmitted (any fragment may have been lost); once
            // acked, the request is assembled on the peer, so a single
            // fragment suffices as the liveness poll / reply re-ask —
            // the responder answers it from its at-most-once table
            if ever_heard {
                let frag = &payload[..payload.len().min(budget)];
                self.send_fragment(KIND_REQUEST, id, 0, total, frag, peer)
                    .await?;
            } else {
                self.send_chunks(KIND_REQUEST, id, &payload, peer).await?;
            }
            if attempt == 0 {
                // the RTT clock starts when the datagrams actually left
                // (pacing may have delayed them past waiter insertion)
                if let Some(w) = self.pending.lock().get_mut(&id) {
                    w.sent_at = Instant::now();
                }
            }
            // ±jitter de-synchronizes incast retries (deterministic per
            // (id, attempt), so failures still reproduce)
            let jittered =
                self.policy
                    .rto(peer)
                    .mul_f64(jitter_factor(id, attempt, self.cfg.jitter));
            attempt += 1;
            let remaining = deadline.saturating_duration_since(Instant::now());
            // a window truncated by the caller's deadline is NOT a full
            // RTO of silence: its expiry says nothing about the path, so
            // it must not register a congestion event against the peer
            // (a deadline-happy caller would otherwise penalize the shared
            // state of a perfectly healthy node)
            let truncated = remaining < jittered;
            let sleep = tokio::time::sleep(jittered.min(remaining));
            tokio::pin!(sleep);
            tokio::select! {
                r = &mut rx => {
                    return r.map_err(|_| RequestError::TimedOut);
                }
                _ = &mut sleep => {}
            }
            // window closed without a response; was the peer heard at
            // all? (§4.8.4: "retransmissions will happen after a few ms")
            let heard = match self.pending.lock().get_mut(&id) {
                Some(w) => {
                    // Karn's rule: whatever is sent next is a
                    // retransmission, so this exchange never samples again
                    w.retransmitted = true;
                    std::mem::take(&mut w.heard)
                }
                None => true, // response landed between window and check
            };
            if heard {
                silent_windows = 0;
                ever_heard = true;
            } else {
                silent_windows += 1;
                // a silent poll window may mean the peer's at-most-once
                // entry was evicted: fall back to the full payload so
                // the request can be reassembled from scratch
                ever_heard = false;
                if !truncated {
                    self.policy.on_silent_window(peer);
                }
            }
            if Instant::now() >= deadline || silent_windows >= self.cfg.max_attempts {
                return Err(RequestError::TimedOut);
            }
        }
    }
}

/// [`BoundServer`] over a [`DatagramEndpoint`]: the receive loop watches
/// the harness's shutdown signal directly.
struct DatagramServer<P: CongestionPolicy> {
    ep: Arc<DatagramEndpoint<P>>,
}

impl<P: CongestionPolicy> BoundServer for DatagramServer<P> {
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.ep.local_addr()
    }

    fn serve(
        self: Box<Self>,
        handler: Arc<dyn Handler>,
        shutdown: tokio::sync::watch::Receiver<bool>,
    ) -> tokio::task::JoinHandle<()> {
        self.ep.serve(handler, shutdown)
    }
}

/// A transport's client endpoint and the one shutdown signal of its
/// receive loop (acks and responses come in through it). The transport and
/// every link share it, so the loop runs until [`Transport::shutdown`] or
/// until the transport and its last link are gone.
struct ClientEndpoint<P: CongestionPolicy> {
    ep: Arc<DatagramEndpoint<P>>,
    stop: tokio::sync::watch::Sender<bool>,
}

/// Client link: one peer as seen through the shared client endpoint.
struct DatagramLink<P: CongestionPolicy> {
    client: Arc<ClientEndpoint<P>>,
    peer: SocketAddr,
}

impl<P: CongestionPolicy> NodeLink for DatagramLink<P> {
    fn addr(&self) -> SocketAddr {
        self.peer
    }

    fn is_connected(&self) -> bool {
        true // datagrams have no connection state; timeouts signal failure
    }

    fn rpc<'a>(&'a self, msg: Msg, timeout: Duration) -> BoxFuture<'a, Result<Msg, RpcError>> {
        Box::pin(async move {
            self.client
                .ep
                .request(self.peer, msg, timeout)
                .await
                .map_err(|e| match e {
                    RequestError::TimedOut => RpcError::Timeout,
                    RequestError::Io(_) => RpcError::Disconnected,
                })
        })
    }
}

/// The datagram transport: binds per-node server endpoints and lazily one
/// shared client endpoint for all outgoing links, so every link out of one
/// role shares the policy's per-peer state.
pub struct DatagramTransport<P: CongestionPolicy> {
    cfg: DatagramConfig<P::Config>,
    client_loss: LossSpec,
    server_loss: LossSpec,
    client: Mutex<Option<Arc<ClientEndpoint<P>>>>,
}

impl<P: CongestionPolicy> DatagramTransport<P> {
    pub fn new(
        cfg: DatagramConfig<P::Config>,
        client_loss: LossSpec,
        server_loss: LossSpec,
    ) -> Self {
        DatagramTransport {
            cfg,
            client_loss,
            server_loss,
            client: Mutex::new(None),
        }
    }

    async fn client_ep(&self) -> std::io::Result<Arc<ClientEndpoint<P>>> {
        if let Some(client) = self.client.lock().clone() {
            return Ok(client);
        }
        let ep =
            DatagramEndpoint::bind_with("127.0.0.1:0", self.cfg, self.client_loss.build()).await?;
        let mut guard = self.client.lock();
        if let Some(existing) = guard.clone() {
            return Ok(existing); // lost the bind race; fresh ep just drops
        }
        // inbound requests are a protocol error on the client endpoint
        let refuse = FnHandler(|m: Msg| Msg::Error {
            what: format!("client endpoint cannot serve {m:?}"),
        });
        let (stop, stopped) = tokio::sync::watch::channel(false);
        ep.serve(Arc::new(refuse), stopped);
        let client = Arc::new(ClientEndpoint { ep, stop });
        *guard = Some(Arc::clone(&client));
        Ok(client)
    }
}

impl<P: CongestionPolicy> Transport for DatagramTransport<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn bind<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, std::io::Result<Box<dyn BoundServer>>> {
        Box::pin(async move {
            let ep =
                DatagramEndpoint::<P>::bind_with(addr, self.cfg, self.server_loss.build()).await?;
            Ok(Box::new(DatagramServer { ep }) as Box<dyn BoundServer>)
        })
    }

    fn connect<'a>(
        &'a self,
        addr: SocketAddr,
    ) -> BoxFuture<'a, std::io::Result<Arc<dyn NodeLink>>> {
        Box::pin(async move {
            let client = self.client_ep().await?;
            Ok(Arc::new(DatagramLink { client, peer: addr }) as Arc<dyn NodeLink>)
        })
    }

    fn shutdown(&self) {
        if let Some(client) = self.client.lock().take() {
            let _ = client.stop.send(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::congestion::{Adaptive, AdaptiveConfig, FixedRto};
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// How the shared suite configures a policy without knowing which one
    /// it has: "first retransmission after `rto`", with a liveness budget
    /// patient enough that a starved receive loop on a loaded test machine
    /// is not mistaken for a dead peer (tests *about* liveness set their
    /// own `max_attempts`).
    trait TestPolicy: CongestionPolicy {
        fn with_rto(rto: Duration) -> DatagramConfig<Self::Config>;
    }

    impl TestPolicy for FixedRto {
        fn with_rto(rto: Duration) -> DatagramConfig<FixedRto> {
            DatagramConfig {
                max_attempts: 50,
                policy: FixedRto { rto },
                ..DatagramConfig::default()
            }
        }
    }

    impl TestPolicy for Adaptive {
        /// Floor and initial value at `rto` (loopback RTTs are far below
        /// it, so samples never move it); backoff may stretch it 8×.
        fn with_rto(rto: Duration) -> DatagramConfig<AdaptiveConfig> {
            DatagramConfig {
                max_attempts: 50,
                ..adaptive_cfg(AdaptiveConfig {
                    init_rto: rto,
                    min_rto: rto,
                    max_rto: rto * 8,
                    ..AdaptiveConfig::default()
                })
            }
        }
    }

    fn adaptive_cfg(policy: AdaptiveConfig) -> DatagramConfig<AdaptiveConfig> {
        DatagramConfig {
            policy,
            ..DatagramConfig::default()
        }
    }

    /// Write each endpoint scenario once, run it under both policies:
    /// `<name>::fixed_rto` and `<name>::adaptive` (the harness's
    /// `per_transport!` idea, one layer down).
    macro_rules! per_policy {
        ($(async fn $name:ident<$p:ident>() $body:block)*) => {$(
            mod $name {
                use super::*;

                async fn run<$p: TestPolicy>() $body

                #[tokio::test]
                async fn fixed_rto() {
                    run::<FixedRto>().await
                }

                #[tokio::test]
                async fn adaptive() {
                    run::<Adaptive>().await
                }
            }
        )*};
    }

    type Endpoint<P> = Arc<DatagramEndpoint<P>>;

    /// An endpoint and the shutdown signals of the receive loops it needs
    /// (its own; a client's also its server's): they run while it lives.
    struct Serving<P: CongestionPolicy> {
        ep: Endpoint<P>,
        stops: Vec<tokio::sync::watch::Sender<bool>>,
    }

    impl<P: CongestionPolicy> std::ops::Deref for Serving<P> {
        type Target = Endpoint<P>;

        fn deref(&self) -> &Endpoint<P> {
            &self.ep
        }
    }

    /// Bind an endpoint under `cfg` and run its receive loop with `handler`.
    async fn serving<P: CongestionPolicy>(
        cfg: DatagramConfig<P::Config>,
        loss: LossPolicy,
        handler: Arc<dyn Handler>,
    ) -> Serving<P> {
        let ep = DatagramEndpoint::bind_with("127.0.0.1:0", cfg, loss).await;
        let ep = ep.expect("bind");
        let (stop, stopped) = tokio::sync::watch::channel(false);
        ep.serve(handler, stopped);
        Serving {
            ep,
            stops: vec![stop],
        }
    }

    /// A client (receive loop running) and the address of a server that
    /// answers with `handler`, both under `cfg`, each sending through its
    /// own loss policy.
    async fn lossy_pair<P: CongestionPolicy>(
        cfg: DatagramConfig<P::Config>,
        client_loss: LossPolicy,
        server_loss: LossPolicy,
        handler: Arc<dyn Handler>,
    ) -> (Serving<P>, SocketAddr) {
        let server = serving::<P>(cfg, server_loss, handler).await;
        let mut client = serving::<P>(cfg, client_loss, echoing()).await;
        client.stops.extend(server.stops);
        (client, server.ep.local_addr().expect("addr"))
    }

    async fn pair<P: CongestionPolicy>(
        cfg: DatagramConfig<P::Config>,
        handler: Arc<dyn Handler>,
    ) -> (Serving<P>, SocketAddr) {
        lossy_pair(cfg, LossPolicy::None, LossPolicy::None, handler).await
    }

    fn echo(msg: Msg) -> Msg {
        match msg {
            Msg::Ping => Msg::Pong,
            other => other,
        }
    }

    /// An [`echo`] handler that counts its runs and blocks for `work`
    /// milliseconds each time.
    fn counting(runs: &Arc<AtomicUsize>, work: u64) -> Arc<dyn Handler> {
        let runs = Arc::clone(runs);
        Arc::new(FnHandler(move |m| {
            runs.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(work));
            echo(m)
        }))
    }

    fn echoing() -> Arc<dyn Handler> {
        counting(&Arc::default(), 0)
    }

    async fn ping<P: CongestionPolicy>(
        client: &DatagramEndpoint<P>,
        peer: SocketAddr,
        overall: Duration,
    ) -> Result<Msg, RequestError> {
        client.request(peer, Msg::Ping, overall).await
    }

    /// The port of a bound-then-dropped socket: nothing listens there.
    async fn dead_addr() -> SocketAddr {
        let s = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        s.local_addr().unwrap()
    }

    fn big(byte: &str, len: usize) -> Msg {
        Msg::Error {
            what: byte.repeat(len),
        }
    }

    fn drops(policy: &LossPolicy, kind: u8, id: u64) -> bool {
        matches!(policy.fate(kind, id), SendFate::Drop)
    }

    const MS: Duration = Duration::from_millis(1);
    const OVERALL: Duration = Duration::from_secs(3);

    per_policy! {
        async fn request_response_roundtrip<P>() {
            let (client, addr) = pair::<P>(P::with_rto(5 * MS), echoing()).await;
            assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
            assert_eq!(client.outstanding(), 0, "waiter slot reclaimed");
        }

        async fn retransmission_recovers_from_request_loss<P>() {
            // drop the first two request datagrams; the third attempt lands
            let (client, addr) = lossy_pair::<P>(
                P::with_rto(3 * MS),
                LossPolicy::drop_first(2),
                LossPolicy::None,
                echoing(),
            )
            .await;
            let t0 = Instant::now();
            assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
            // two RTOs of waiting (jitter floor 0.8 × 3 ms × 2), well under
            // TCP's 200 ms minimum — the §4.8.4 argument in one assertion
            let waited = t0.elapsed();
            assert!(
                waited >= Duration::from_micros(4800),
                "had to wait out 2 jittered RTOs: {waited:?}"
            );
            assert!(waited < 150 * MS, "recovery stays in app-RTO land: {waited:?}");
        }

        async fn response_loss_triggers_dedup_not_reexecution<P>() {
            // server's response vanishes (its ack passes); the client's
            // re-poll must be answered from the at-most-once cache, not
            // re-executed
            let runs = Arc::new(AtomicUsize::new(0));
            let (client, addr) = lossy_pair::<P>(
                P::with_rto(3 * MS),
                LossPolicy::None,
                LossPolicy::drop_first_responses(1),
                counting(&runs, 0),
            )
            .await;
            let t0 = Instant::now();
            assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
            assert_eq!(runs.load(Ordering::SeqCst), 1, "duplicate must not re-execute");
            assert!(
                t0.elapsed() >= Duration::from_micros(2400),
                "recovery costs one jittered RTO (floor 0.8 × 3 ms)"
            );
        }

        async fn acks_keep_slow_handlers_alive<P>() {
            // the handler takes far longer than the whole silent-window
            // budget; without the app-level acks the client would declare
            // the peer dead
            let cfg = DatagramConfig {
                max_attempts: 4,
                ..P::with_rto(3 * MS)
            };
            let runs = Arc::new(AtomicUsize::new(0));
            let (client, addr) = pair::<P>(cfg, counting(&runs, 80)).await;
            let t0 = Instant::now();
            assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
            assert!(t0.elapsed() >= 75 * MS);
            assert_eq!(
                runs.load(Ordering::SeqCst),
                1,
                "re-polls during execution must be suppressed as in-flight"
            );
        }

        async fn heavy_random_loss_still_delivers<P>() {
            // 30% loss in both directions: retransmission still pushes
            // every request through at these sizes
            let (client, addr) = lossy_pair::<P>(
                P::with_rto(2 * MS),
                LossPolicy::random(0.3, 42),
                LossPolicy::random(0.3, 43),
                echoing(),
            )
            .await;
            for i in 0..40 {
                assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong), "request {i}");
            }
        }

        async fn dead_peer_times_out_quickly_and_cleans_up<P>() {
            let cfg = DatagramConfig {
                max_attempts: 3,
                ..P::with_rto(2 * MS)
            };
            let client = serving::<P>(cfg, LossPolicy::None, echoing()).await;
            let t0 = Instant::now();
            let err = ping(&client, dead_addr().await, OVERALL).await;
            assert_eq!(err, Err(RequestError::TimedOut), "no one home");
            assert!(t0.elapsed() < 200 * MS, "3 silent windows of a few ms ≪ 200 ms");
            assert_eq!(client.outstanding(), 0, "timeout must reclaim the waiter");
        }

        async fn overall_deadline_bounds_slow_peers<P>() {
            // peer acks forever but never answers: the caller's deadline wins
            let cfg = DatagramConfig {
                max_attempts: 1000,
                ..P::with_rto(2 * MS)
            };
            let (client, addr) = pair::<P>(cfg, counting(&Arc::default(), 5000)).await;
            let t0 = Instant::now();
            let err = ping(&client, addr, 40 * MS).await;
            assert_eq!(err, Err(RequestError::TimedOut), "deadline must fire");
            assert!(t0.elapsed() < 500 * MS);
            assert_eq!(client.outstanding(), 0, "deadline must reclaim the waiter");
            // a late response for the abandoned id must not disturb new
            // requests (the slow handler also stalls this one; the point is
            // no panic and no crosstalk with the abandoned waiter)
            tokio::time::sleep(10 * MS).await;
            let _ = ping(&client, addr, 50 * MS).await;
            assert_eq!(client.outstanding(), 0);
        }

        async fn concurrent_requests_multiplex<P>() {
            let (client, addr) = pair::<P>(P::with_rto(5 * MS), echoing()).await;
            let mut handles = Vec::new();
            for i in 0..20 {
                let c = Arc::clone(&client);
                handles.push(tokio::spawn(async move {
                    let msg = big(&format!("request {i};"), 3);
                    let resp = c.request(addr, msg.clone(), OVERALL).await;
                    assert_eq!(resp, Ok(msg), "response correlated to the right request");
                }));
            }
            for h in handles {
                h.await.expect("task");
            }
        }

        async fn malformed_datagrams_are_ignored<P>() {
            let (client, addr) = pair::<P>(P::with_rto(5 * MS), echoing()).await;
            // blast garbage at the server from a raw socket
            let raw = UdpSocket::bind("127.0.0.1:0").await.unwrap();
            for bad in [
                b"not a frame".to_vec(),
                vec![KIND_REQUEST],
                // well-formed header, malformed payload
                encode_datagram(KIND_REQUEST, 99, 0, 1, b"{"),
                // inconsistent fragment header (seq beyond total)
                encode_datagram(KIND_REQUEST, 100, 5, 2, b"x"),
                // one tiny fragment claiming the largest possible message
                encode_datagram(KIND_REQUEST, 101, u16::MAX - 1, u16::MAX, b"x"),
                // unknown kind
                encode_datagram(9, 102, 0, 1, b"x"),
            ] {
                raw.send_to(&bad, addr).await.unwrap();
            }
            // the endpoint still works
            assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
        }

        async fn duplicate_request_answered_from_cache<P>() {
            // a retransmitted request id must not re-execute; the cached
            // reply is re-sent instead
            let runs = Arc::new(AtomicUsize::new(0));
            let (_serving, addr) = pair::<P>(P::with_rto(5 * MS), counting(&runs, 0)).await;
            let raw = UdpSocket::bind("127.0.0.1:0").await.unwrap();
            let req = encode_datagram(KIND_REQUEST, 7, 0, 1, &Msg::Ping.encode());
            let mut buf = [0u8; 2048];
            for round in 0..2 {
                raw.send_to(&req, addr).await.unwrap();
                // collect datagrams until the response arrives (an ack
                // precedes it on the first round)
                loop {
                    let (len, _) = raw.recv_from(&mut buf).await.unwrap();
                    let (kind, id, _, _, frag) =
                        decode_datagram(&buf[..len]).expect("well-formed");
                    assert_eq!(id, 7);
                    if kind == KIND_RESPONSE {
                        assert_eq!(Msg::decode(frag), Some(Msg::Pong), "round {round}");
                        break;
                    }
                    assert_eq!(kind, KIND_ACK);
                }
            }
            assert_eq!(runs.load(Ordering::SeqCst), 1, "executed at most once");
        }

        async fn chunked_payloads_roundtrip<P>() {
            // tiny datagram budget: both the request and the response must
            // be fragmented and reassembled
            let cfg = DatagramConfig {
                max_datagram: 48,
                ..P::with_rto(5 * MS)
            };
            let (client, addr) = pair::<P>(cfg, echoing()).await;
            let msg = big("y", 5000);
            let resp = client.request(addr, msg.clone(), OVERALL).await;
            assert_eq!(resp, Ok(msg));
        }

        async fn chunked_request_with_slow_handler_stays_alive_via_polls<P>() {
            // once the chunked request is assembled and acked, the client's
            // liveness polls are single fragments answered from the
            // in-flight table — the handler must still run exactly once and
            // the liveness budget (far smaller than the handler runtime)
            // must not trip
            let cfg = DatagramConfig {
                max_attempts: 4,
                max_datagram: 64,
                ..P::with_rto(3 * MS)
            };
            let runs = Arc::new(AtomicUsize::new(0));
            let (client, addr) = pair::<P>(cfg, counting(&runs, 80)).await;
            let msg = big("w", 1000);
            let resp = client.request(addr, msg.clone(), OVERALL).await;
            assert_eq!(resp, Ok(msg), "polls keep the chunked request alive");
            assert_eq!(runs.load(Ordering::SeqCst), 1, "executed at most once");
        }

        async fn chunked_payloads_survive_random_loss<P>() {
            let cfg = DatagramConfig {
                max_datagram: 256,
                ..P::with_rto(3 * MS)
            };
            let (client, addr) = lossy_pair::<P>(
                cfg,
                LossPolicy::random(0.15, 7),
                LossPolicy::random(0.15, 8),
                echoing(),
            )
            .await;
            let msg = big("z", 2000);
            for i in 0..5 {
                let resp = client.request(addr, msg.clone(), 5000 * MS).await;
                assert_eq!(resp, Ok(msg.clone()), "request {i}");
            }
        }

        async fn oversized_request_is_an_error_not_a_panic<P>() {
            // one byte per datagram: 70 000 bytes need more fragments than
            // the header's u16 can count
            let cfg = DatagramConfig {
                max_datagram: 1,
                ..P::with_rto(5 * MS)
            };
            let (client, addr) = pair::<P>(cfg, echoing()).await;
            let err = client.request(addr, big("q", 70_000), OVERALL).await;
            assert_eq!(err, Err(RequestError::Io(std::io::ErrorKind::InvalidInput)));
            assert_eq!(client.outstanding(), 0, "nothing left behind");
            // the endpoint is unharmed
            assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
        }

        async fn oversized_reply_is_forgotten_not_cached<P>() {
            // the node cannot fragment its 70 000-byte reply into 1-byte
            // datagrams. It must not keep the unsendable reply as the
            // at-most-once answer (every re-poll would then meet silence):
            // the id is forgotten, so a retransmission runs the handler
            // again, and the requester's own deadline ends the exchange
            let cfg = P::with_rto(3 * MS);
            let server_cfg = DatagramConfig {
                max_datagram: 1,
                ..cfg
            };
            let runs = Arc::new(AtomicUsize::new(0));
            let r2 = Arc::clone(&runs);
            let oversized = Arc::new(FnHandler(move |_| {
                r2.fetch_add(1, Ordering::SeqCst);
                big("r", 70_000)
            }));
            let server = serving::<P>(server_cfg, LossPolicy::None, oversized).await;
            let client = serving::<P>(cfg, LossPolicy::None, echoing()).await;
            let addr = server.local_addr().expect("addr");
            let err = ping(&client, addr, 100 * MS).await;
            assert_eq!(err, Err(RequestError::TimedOut), "no reply can arrive");
            assert!(
                runs.load(Ordering::SeqCst) >= 2,
                "the id must not stay poisoned by an unsendable reply"
            );
        }
    }

    // ---- Adaptive only: what the congestion policy adds ------------------

    #[tokio::test]
    async fn adaptive_roundtrips_learn_rtt() {
        let cfg = DatagramConfig::<AdaptiveConfig>::default();
        let (client, addr) = pair::<Adaptive>(cfg, echoing()).await;
        // several samples, not one: a single scheduler stall on a loaded
        // test machine can inflate rttvar, but the EWMA decays it back as
        // long as most samples see the real loopback RTT
        for _ in 0..8 {
            assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
        }
        let (rto, cwnd) = client.policy().peer_cc(addr).expect("peer state exists");
        // loopback RTT is microseconds: the adaptive RTO must have clamped
        // to the floor, far below the 20 ms initial value
        assert!(
            rto <= cfg.policy.min_rto * 2,
            "RTO should have adapted down from init: {rto:?}"
        );
        assert!(cwnd > cfg.policy.init_window - 1.0);
    }

    #[tokio::test]
    async fn adaptive_retransmission_backs_off() {
        // first two request transmissions vanish; the third lands. With
        // init_rto 20 ms and doubling, waiting out two windows takes at
        // least (20 + 40) × 0.8 = 48 ms — visibly backed off, unlike the
        // fixed policy's 2 × rto.
        let cfg = DatagramConfig::<AdaptiveConfig>::default();
        let (client, addr) =
            lossy_pair::<Adaptive>(cfg, LossPolicy::drop_first(2), LossPolicy::None, echoing())
                .await;
        let t0 = Instant::now();
        assert_eq!(ping(&client, addr, OVERALL).await, Ok(Msg::Pong));
        let waited = t0.elapsed();
        assert!(
            waited >= 45 * MS,
            "two backed-off windows (20 + 40 ms, jitter floor 0.8): {waited:?}"
        );
        // the loss halved the window from its initial 4
        let (_, cwnd) = client.policy().peer_cc(addr).expect("peer state");
        assert!(
            cwnd < cfg.policy.init_window,
            "two loss events must have shrunk the window: {cwnd}"
        );
    }

    /// Window pinned at 1: requests to one peer go strictly one at a time.
    fn window_of_one() -> DatagramConfig<AdaptiveConfig> {
        adaptive_cfg(AdaptiveConfig {
            init_window: 1.0,
            max_window: 1.0,
            ..AdaptiveConfig::default()
        })
    }

    #[tokio::test]
    async fn adaptive_window_serializes_excess_concurrency() {
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (l2, p2) = (Arc::clone(&live), Arc::clone(&peak));
        let handler = Arc::new(FnHandler(move |m| {
            let now = l2.fetch_add(1, Ordering::SeqCst) + 1;
            p2.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(20 * MS);
            l2.fetch_sub(1, Ordering::SeqCst);
            echo(m)
        }));
        let (client, addr) = pair::<Adaptive>(window_of_one(), handler).await;
        let t0 = Instant::now();
        let requests: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&client);
                tokio::spawn(async move { ping(&c, addr, OVERALL).await })
            })
            .collect();
        for r in requests {
            assert_eq!(r.await.expect("task"), Ok(Msg::Pong));
        }
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "cwnd = 1 must keep the server strictly serial"
        );
        let took = t0.elapsed();
        assert!(took >= 55 * MS, "three serialized 20 ms handlers: {took:?}");
    }

    #[tokio::test]
    async fn adaptive_window_timeout_fails_queued_request() {
        // an occupying slow request: a second request whose deadline
        // expires while queued must fail without ever sending
        let (client, addr) =
            pair::<Adaptive>(window_of_one(), counting(&Arc::default(), 120)).await;
        let c = Arc::clone(&client);
        let first = tokio::spawn(async move { ping(&c, addr, OVERALL).await });
        tokio::time::sleep(10 * MS).await; // first holds the slot
        let err = ping(&client, addr, 30 * MS).await;
        assert_eq!(
            err,
            Err(RequestError::TimedOut),
            "queued behind a 120 ms occupant with a 30 ms budget"
        );
        assert_eq!(first.await.expect("task"), Ok(Msg::Pong));
    }

    #[tokio::test]
    async fn adaptive_dead_peer_times_out_with_backoff() {
        let cfg = DatagramConfig {
            max_attempts: 4,
            ..adaptive_cfg(AdaptiveConfig {
                init_rto: 5 * MS,
                min_rto: 5 * MS,
                max_rto: 40 * MS,
                ..AdaptiveConfig::default()
            })
        };
        let client = serving::<Adaptive>(cfg, LossPolicy::None, echoing()).await;
        let dead = dead_addr().await;
        let t0 = Instant::now();
        let err = ping(&client, dead, OVERALL).await;
        assert_eq!(err, Err(RequestError::TimedOut));
        let waited = t0.elapsed();
        // four windows with doubling from 5 ms capped at 40: at least
        // (5 + 10 + 20 + 40) × 0.8 = 60 ms, well under a second
        assert!(
            waited >= 55 * MS,
            "windows must have backed off: {waited:?}"
        );
        assert!(waited < 600 * MS);
        // and the RTO estimator remembers the backoff for the next request
        let (rto, cwnd) = client.policy().peer_cc(dead).expect("peer state");
        assert_eq!(rto, 40 * MS, "backed off to the cap");
        assert_eq!(cwnd, 1.0, "window floored at 1, never below");
    }

    #[tokio::test]
    async fn adaptive_acks_and_truncated_windows_are_not_loss_events() {
        // a slow handler acks promptly: its windows are heard, so neither
        // the RTO backs off nor the window shrinks — slowness is not loss.
        // The handler's sleep must exceed the full backed-off attempt
        // budget (40+80+160 ms) so that without acks the request would
        // die, while the 40 ms first RTO leaves headroom for scheduler
        // jitter when the whole suite runs in parallel.
        let cfg = DatagramConfig {
            max_attempts: 4,
            ..adaptive_cfg(AdaptiveConfig {
                init_rto: 40 * MS,
                min_rto: 40 * MS,
                ..AdaptiveConfig::default()
            })
        };
        let (client, addr) = pair::<Adaptive>(cfg, counting(&Arc::default(), 400)).await;
        let resp = ping(&client, addr, OVERALL).await;
        assert_eq!(resp, Ok(Msg::Pong), "acks must keep the request alive");
        let (_, cwnd) = client.policy().peer_cc(addr).expect("peer state");
        assert!(
            cwnd >= cfg.policy.init_window,
            "no loss event: the window must not have shrunk ({cwnd})"
        );
        // nor is a window the caller's own deadline cut short: 10 ms of
        // silence from a dead peer is not a 40 ms RTO of silence
        let dead = dead_addr().await;
        let err = ping(&client, dead, 10 * MS).await;
        assert_eq!(err, Err(RequestError::TimedOut));
        assert_eq!(
            client.policy().peer_cc(dead),
            Some((cfg.policy.init_rto, cfg.policy.init_window)),
            "a deadline-truncated window must not penalize the peer"
        );
    }

    // ---- policy-independent pieces ---------------------------------------

    #[test]
    fn loss_policy_random_is_deterministic_per_seed() {
        // same seed ⇒ same drop schedule; different seed ⇒ different one
        let a = LossPolicy::random(0.4, 1234);
        let b = LossPolicy::random(0.4, 1234);
        let c = LossPolicy::random(0.4, 4321);
        let schedule = |p: &LossPolicy| -> Vec<bool> {
            (0..1000).map(|i| drops(p, KIND_REQUEST, i)).collect()
        };
        let sa = schedule(&a);
        assert_eq!(sa, schedule(&b), "same seed must reproduce exactly");
        assert_ne!(sa, schedule(&c), "different seeds must diverge");
        let dropped = sa.iter().filter(|&&d| d).count();
        assert!(
            (300..500).contains(&dropped),
            "p = 0.4 over 1000 draws, got {dropped}"
        );
    }

    #[test]
    fn first_reply_per_request_drops_exactly_once_per_id() {
        let p = LossPolicy::first_reply_per_request();
        assert!(drops(&p, KIND_RESPONSE, 1), "first transmission lost");
        assert!(!drops(&p, KIND_RESPONSE, 1), "retransmission passes");
        assert!(drops(&p, KIND_RESPONSE, 2), "every id loses its first");
        assert!(!drops(&p, KIND_REQUEST, 3), "requests never dropped");
        assert!(!drops(&p, KIND_ACK, 3), "acks never dropped");
        assert!(drops(&p, KIND_RESPONSE, 3));
    }

    #[test]
    fn counted_drops_stop_when_spent() {
        let p = LossPolicy::drop_first_responses(1);
        assert!(!drops(&p, KIND_ACK, 1), "only responses are owed a drop");
        assert!(drops(&p, KIND_RESPONSE, 1));
        assert!(!drops(&p, KIND_RESPONSE, 2), "the one owed drop is spent");
    }

    #[test]
    fn served_cache_is_bounded() {
        let mut cache = ServedCache::new(2);
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        cache.insert((a, 1), Served::Done(vec![1]));
        cache.insert((a, 2), Served::Done(vec![2]));
        cache.insert((a, 3), Served::Done(vec![3]));
        assert!(cache.get(&(a, 1)).is_none(), "oldest evicted");
        assert!(cache.get(&(a, 2)).is_some());
        assert!(cache.get(&(a, 3)).is_some());
        assert_eq!(cache.len(), 2);
        // replacing InFlight with Done must not double-count the entry
        cache.insert((a, 4), Served::InFlight);
        cache.insert((a, 4), Served::Done(vec![4]));
        assert!(matches!(cache.get(&(a, 4)), Some(Served::Done(_))));
        assert!(cache.len() <= 2);
    }

    #[test]
    fn bounded_map_remove_then_reinsert_survives_stale_slot() {
        // the corrupt-payload path removes a key and a clean retransmission
        // re-inserts it; the stale FIFO slot from the first insert must not
        // evict the live re-inserted entry (that would re-open the
        // double-execution hole the Served cache exists to close)
        let mut m: BoundedMap<u32, &str> = BoundedMap::new(2);
        m.insert(1, "first");
        m.insert(2, "b");
        m.remove(&1);
        m.insert(1, "again"); // key 1 is now *newer* than key 2
        m.insert(3, "c"); // over capacity: key 1's stale slot is popped first
        assert_eq!(
            m.get(&1),
            Some(&"again"),
            "live entry survives its stale slot"
        );
        assert_eq!(
            m.get(&2),
            None,
            "the genuinely oldest live entry is evicted"
        );
        assert_eq!(m.get(&3), Some(&"c"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn bounded_map_replacements_do_not_grow_the_fifo_unboundedly() {
        // every request replaces InFlight with Done; the stale-slot FIFO
        // must compact instead of growing per replacement
        let mut m: BoundedMap<u32, u32> = BoundedMap::new(8);
        for i in 0..10_000u32 {
            let k = i % 8;
            m.insert(k, i);
            m.insert(k, i + 1);
        }
        assert_eq!(m.len(), 8);
        assert!(
            m.order.len() <= 2 * m.cap + 1,
            "order FIFO must stay bounded: {}",
            m.order.len()
        );
    }

    #[test]
    fn bounded_map_get_or_insert_with_admits_and_bounds() {
        let mut m: BoundedMap<u32, &str> = BoundedMap::new(2);
        assert_eq!(*m.get_or_insert_with(1, || "a"), "a");
        // present key: default is not consulted, value untouched
        assert_eq!(*m.get_or_insert_with(1, || "other"), "a");
        assert_eq!(*m.get_or_insert_with(2, || "b"), "b");
        // admission past capacity evicts the longest-known key, never the
        // newcomer itself
        assert_eq!(*m.get_or_insert_with(3, || "c"), "c");
        assert_eq!(m.len(), 2);
        assert!(m.get(&1).is_none(), "oldest key evicted");
        assert_eq!(m.get(&3), Some(&"c"));
        // the returned borrow is writable in place
        *m.get_or_insert_with(3, || "unused") = "c2";
        assert_eq!(m.get(&3), Some(&"c2"));
        // degenerate zero-capacity map still admits the single newcomer
        let mut z: BoundedMap<u32, u32> = BoundedMap::new(0);
        assert_eq!(*z.get_or_insert_with(7, || 42), 42);
    }

    #[test]
    fn reassembler_is_bounded_and_exact() {
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let mut r = Reassembler::new(2);
        // out-of-order fragments assemble exactly once
        assert_eq!(r.offer((a, KIND_REQUEST, 1), 1, 2, b"yz"), None);
        assert_eq!(r.offer((a, KIND_REQUEST, 1), 1, 2, b"yz"), None, "dup");
        assert_eq!(
            r.offer((a, KIND_REQUEST, 1), 0, 2, b"x"),
            Some(b"xyz".to_vec())
        );
        // a header's claim costs nothing: one fragment "of 65 535" holds
        // one fragment's worth of memory, not a slot per claimed fragment
        let huge = (a, KIND_REQUEST, 2);
        assert_eq!(r.offer(huge, u16::MAX - 1, u16::MAX, b"x"), None);
        let held = r.0.get(&huge).expect("partial assembly kept");
        assert_eq!(held.parts.len(), 1, "storage follows bytes received");
        // capacity bound evicts the oldest partial assembly
        for id in 10..15 {
            assert_eq!(r.offer((a, KIND_REQUEST, id), 0, 3, b"p"), None);
        }
        assert!(r.0.len() <= 2, "partial assemblies bounded");
        assert!(r.0.get(&huge).is_none(), "oldest partial evicted");
    }

    #[test]
    fn jitter_factor_is_bounded_deterministic_and_spread() {
        // zero fraction is the identity (the tcp_min_rto_sim mode relies
        // on this: a simulated TCP timer must not jitter)
        assert_eq!(jitter_factor(7, 3, 0.0), 1.0);
        let mut seen = Vec::new();
        for id in 0..100u64 {
            for attempt in 0..4u32 {
                let f = jitter_factor(id, attempt, 0.2);
                assert!((0.8..1.2).contains(&f), "factor {f} outside ±20%");
                assert_eq!(f, jitter_factor(id, attempt, 0.2), "deterministic");
                seen.push(f);
            }
        }
        // the factors actually spread (de-synchronization is the point):
        // both the low and the high third of the band are populated
        assert!(seen.iter().any(|f| *f < 0.93));
        assert!(seen.iter().any(|f| *f > 1.07));
        // and consecutive attempts of one id do not move in lockstep
        let a: Vec<f64> = (0..4).map(|at| jitter_factor(1, at, 0.2)).collect();
        let b: Vec<f64> = (0..4).map(|at| jitter_factor(2, at, 0.2)).collect();
        assert_ne!(a, b, "different ids must land at different offsets");
    }

    #[test]
    fn codec_rejects_short_datagrams_and_uncountable_payloads() {
        assert!(decode_datagram(&[]).is_none());
        assert!(decode_datagram(&[KIND_REQUEST, 1, 2]).is_none());
        assert!(decode_datagram(&[0u8; HEADER - 1]).is_none());
        assert_eq!(fragment_count(0, 10).ok(), Some(1), "empty payload");
        assert_eq!(fragment_count(11, 10).ok(), Some(2));
        assert_eq!(fragment_count(65_535, 1).ok(), Some(u16::MAX));
        let err = fragment_count(65_536, 1).expect_err("one too many");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
