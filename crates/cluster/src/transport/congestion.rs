//! Congestion policies for the datagram endpoint.
//!
//! §4.8.4 prescribes one protocol — "UDP enhanced with application-level
//! acknowledgements" — and names congestion control as a refinement of
//! it ("the difficulty is to avoid congestion collapse in pathological
//! cases"; DCCP is the thesis's long-term answer). So the wire protocol
//! lives once, in [`DatagramEndpoint`](super::DatagramEndpoint), and what
//! a sender does *about the path* is a [`CongestionPolicy`]: a handful of
//! statically-dispatched hooks covering exactly the points where the two
//! transports differ.
//!
//! * [`FixedRto`] (transport `"udp"`) — a constant millisecond
//!   retransmission timer and nothing else. Sub-queries are tiny and
//!   per-request bounded retries cap the send rate, which is the thesis's
//!   own argument for leaving congestion control out. Every hook but
//!   `rto` is a no-op and no per-peer state exists.
//! * [`Adaptive`] (transport `"ccudp"`) — a fixed-timer sender *is* the
//!   pathological case: under sustained loss it re-offers the same load
//!   every RTO forever, keeping the bottleneck queue full for everyone.
//!   `Adaptive` layers three mechanisms over the same wire format:
//!
//!   1. **RTT-adaptive RTO** ([`RttEstimator`], RFC 6298-style): per-peer
//!      SRTT/RTTVAR drive the retransmission timeout, with exponential
//!      backoff on consecutive losses.
//!   2. **AIMD in-flight window** ([`AimdWindow`], CCID2-flavored): each
//!      peer admits at most `cwnd` outstanding requests; every delivered
//!      response adds `1/cwnd` (one packet per window of acks), every
//!      timeout-detected loss halves it (never below 1, never above the
//!      cap). Excess requests queue locally instead of entering the
//!      network.
//!   3. **Token-paced sends** ([`Pacer`]): datagrams to one peer are
//!      released on a non-decreasing schedule — requests at
//!      `srtt / cwnd`, reply fragments at [`AdaptiveConfig::reply_gap`] —
//!      so chunked payloads and window-opening bursts are spread instead
//!      of slamming the fan-in queue.
//!
//!   The congestion state is **per peer, shared across requests**: the
//!   front-end's one client endpoint serves every link, so all
//!   sub-queries to a node share its RTO backoff, window and pacer — when
//!   that node's path congests, everything headed there slows down
//!   together, which is what keeps the §4.8.4 "pathological case" from
//!   collapsing.
//!
//! The estimator, window and pacer are deliberately pure (no I/O, no
//! hidden clock) so `tests/ccudp_props.rs` can property-test their
//! invariants directly: SRTT convergence, monotone backoff, window
//! bounds, non-decreasing release times.

use super::datagram::{BoundedMap, DatagramConfig, RequestError, KIND_RESPONSE, MAX_DATAGRAM};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::future::Future;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tokio::sync::oneshot;

/// What a datagram sender does about the path. The endpoint calls these
/// hooks at fixed points of the request/reply exchange and never asks
/// which policy it has.
pub trait CongestionPolicy: Send + Sync + Sized + 'static {
    /// The policy's own knobs, carried as [`DatagramConfig::policy`].
    type Config: Copy + Send + Sync + 'static;
    /// Held for the life of one request; dropping it frees whatever
    /// [`admit`](Self::admit) claimed.
    type Permit<'a>: Send
    where
        Self: 'a;
    /// What [`Transport::name`](super::Transport::name) reports.
    const NAME: &'static str;

    fn new(cfg: &DatagramConfig<Self::Config>) -> Self;

    /// Wait until one more request may enter the network towards `peer`;
    /// fails with [`RequestError::TimedOut`] once `deadline` passes.
    fn admit(
        &self,
        peer: SocketAddr,
        deadline: Instant,
    ) -> impl Future<Output = Result<Self::Permit<'_>, RequestError>> + Send;

    /// How long the next datagram of `kind` (request or response fragment;
    /// acks are never paced) must be held before it leaves for `peer`.
    fn gap(&self, peer: SocketAddr, kind: u8) -> Duration;

    /// The current retransmission timeout towards `peer`, before jitter.
    fn rto(&self, peer: SocketAddr) -> Duration;

    /// One RTT measurement. The endpoint applies Karn's rule: only the
    /// first reaction to a never-retransmitted request is sampled.
    fn on_sample(&self, peer: SocketAddr, rtt: Duration);

    /// A response from `peer` reached its waiter.
    fn on_delivered(&self, peer: SocketAddr);

    /// A full retransmission window passed with nothing heard from
    /// `peer`. Windows cut short by the caller's deadline are not
    /// reported: their expiry says nothing about the path.
    fn on_silent_window(&self, peer: SocketAddr);
}

/// The §4.8.4 policy as written: retransmit every `rto`, no congestion
/// control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRto {
    /// Application-level retransmission timeout. The §4.8.4 point: this can
    /// be a few milliseconds because query delays are tens of milliseconds —
    /// far below TCP's conservative minimum RTO.
    pub rto: Duration,
}

impl Default for DatagramConfig<FixedRto> {
    fn default() -> Self {
        DatagramConfig {
            max_attempts: 8,
            dedup_entries: 4096,
            max_datagram: MAX_DATAGRAM,
            jitter: 0.2,
            policy: FixedRto {
                rto: Duration::from_millis(5),
            },
        }
    }
}

impl CongestionPolicy for FixedRto {
    type Config = FixedRto;
    type Permit<'a> = ();
    const NAME: &'static str = "udp";

    fn new(cfg: &DatagramConfig<FixedRto>) -> Self {
        cfg.policy
    }

    async fn admit(&self, _: SocketAddr, _: Instant) -> Result<(), RequestError> {
        Ok(())
    }

    fn gap(&self, _: SocketAddr, _: u8) -> Duration {
        Duration::ZERO
    }

    fn rto(&self, _: SocketAddr) -> Duration {
        self.rto
    }

    fn on_sample(&self, _: SocketAddr, _: Duration) {}
    fn on_delivered(&self, _: SocketAddr) {}
    fn on_silent_window(&self, _: SocketAddr) {}
}

/// Tuning knobs of the [`Adaptive`] policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// RTO used before the first RTT sample lands (RFC 6298 §2.1 suggests
    /// a conservative initial value; ours is loopback-scaled).
    pub init_rto: Duration,
    /// Lower clamp on the adaptive RTO — the floor keeps loopback's
    /// microsecond RTTs from producing an RTO the scheduler jitter of a
    /// loaded CI machine would constantly trip.
    pub min_rto: Duration,
    /// Upper clamp on the adaptive RTO, backoff included: once a path is
    /// this congested, waiting longer buys nothing the deadline won't.
    pub max_rto: Duration,
    /// Initial per-peer congestion window, in outstanding requests.
    pub init_window: f64,
    /// Upper bound on the per-peer window.
    pub max_window: f64,
    /// Upper clamp on the pacing gap between datagrams to one peer: the
    /// paced rate is `cwnd / srtt`, but a long-idle or badly-backed-off
    /// peer must not stall a fresh request by seconds.
    pub pace_cap: Duration,
    /// Pacing gap between successive *reply* fragments (the server has no
    /// RTT estimate of its own; replies to the fan-in are the §4.8.4 burst
    /// that needs spreading most).
    pub reply_gap: Duration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            init_rto: Duration::from_millis(20),
            min_rto: Duration::from_millis(5),
            max_rto: Duration::from_millis(200),
            init_window: 4.0,
            max_window: 64.0,
            pace_cap: Duration::from_millis(2),
            reply_gap: Duration::from_micros(200),
        }
    }
}

impl Default for DatagramConfig<AdaptiveConfig> {
    fn default() -> Self {
        DatagramConfig {
            // because the windows back off exponentially, `n` attempts
            // cover far more wall time than the fixed policy's `n × rto`
            max_attempts: 10,
            dedup_entries: 4096,
            max_datagram: MAX_DATAGRAM,
            jitter: 0.2,
            policy: AdaptiveConfig::default(),
        }
    }
}

/// RFC 6298-style smoothed RTT estimator with exponential timeout backoff.
///
/// Pure state machine: feed it RTT samples ([`Self::on_sample`]) and
/// timeout events ([`Self::on_timeout`]), read the current retransmission
/// timeout ([`Self::rto`]). Karn's rule (never sample a retransmitted
/// exchange) is the *caller's* job — the endpoint only samples first
/// transmissions.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt_s: Option<f64>,
    rttvar_s: f64,
    backoff: u32,
    init_rto: Duration,
    min_rto: Duration,
    max_rto: Duration,
}

/// RFC 6298 smoothing gains.
const ALPHA: f64 = 1.0 / 8.0;
const BETA: f64 = 1.0 / 4.0;
/// Clock granularity `G`: the tokio shim's timers tick at 1 ms.
const GRANULARITY_S: f64 = 0.001;

impl RttEstimator {
    pub fn new(init_rto: Duration, min_rto: Duration, max_rto: Duration) -> Self {
        assert!(min_rto <= max_rto, "min_rto must not exceed max_rto");
        assert!(min_rto > Duration::ZERO, "zero RTO would busy-spin");
        RttEstimator {
            srtt_s: None,
            rttvar_s: 0.0,
            backoff: 0,
            init_rto,
            min_rto,
            max_rto,
        }
    }

    /// Feed one RTT measurement from a *first* transmission (Karn's rule:
    /// the caller must never sample a retransmitted exchange). A valid
    /// sample proves the path delivers, so the timeout backoff resets.
    pub fn on_sample(&mut self, rtt: Duration) {
        let r = rtt.as_secs_f64();
        match self.srtt_s {
            None => {
                // first measurement: SRTT = R, RTTVAR = R/2
                self.srtt_s = Some(r);
                self.rttvar_s = r / 2.0;
            }
            Some(srtt) => {
                // RTTVAR = (1−β)·RTTVAR + β·|SRTT − R|; SRTT = (1−α)·SRTT + α·R
                self.rttvar_s = (1.0 - BETA) * self.rttvar_s + BETA * (srtt - r).abs();
                self.srtt_s = Some((1.0 - ALPHA) * srtt + ALPHA * r);
            }
        }
        self.backoff = 0;
    }

    /// Record a timeout-detected loss: the next [`Self::rto`] doubles
    /// (capped at `max_rto`).
    pub fn on_timeout(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }

    /// The smoothed RTT, if at least one sample has landed.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt_s.map(Duration::from_secs_f64)
    }

    /// How many consecutive timeouts the current backoff reflects.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Current retransmission timeout: `SRTT + max(G, 4·RTTVAR)` clamped
    /// to `[min_rto, max_rto]`, then doubled per recorded timeout (still
    /// capped at `max_rto`).
    pub fn rto(&self) -> Duration {
        let base_s = match self.srtt_s {
            None => self.init_rto.as_secs_f64(),
            Some(srtt) => srtt + (4.0 * self.rttvar_s).max(GRANULARITY_S),
        };
        let clamped = base_s.clamp(self.min_rto.as_secs_f64(), self.max_rto.as_secs_f64());
        // 2^backoff, saturating at the cap (backoff can exceed f64 exponent
        // range only theoretically; the min() keeps it finite regardless)
        let scaled = clamped * 2f64.powi(self.backoff.min(30) as i32);
        Duration::from_secs_f64(scaled.min(self.max_rto.as_secs_f64()))
    }
}

/// CCID2-flavored AIMD congestion window, counted in outstanding requests.
///
/// Additive increase of one request per window of delivered responses
/// (`cwnd += 1/cwnd` per ack), multiplicative decrease on timeout-detected
/// loss (`cwnd /= 2`). Never below 1 (progress must stay possible), never
/// above the cap.
#[derive(Debug, Clone)]
pub struct AimdWindow {
    cwnd: f64,
    cap: f64,
}

impl AimdWindow {
    pub fn new(init: f64, cap: f64) -> Self {
        assert!(cap >= 1.0, "window cap below 1 forbids all traffic");
        AimdWindow {
            cwnd: init.clamp(1.0, cap),
            cap,
        }
    }

    /// One response delivered: additive increase, one packet per RTT-round.
    pub fn on_ack(&mut self) {
        self.cwnd = (self.cwnd + 1.0 / self.cwnd).min(self.cap);
    }

    /// One timeout-detected loss: multiplicative decrease.
    pub fn on_loss(&mut self) {
        self.cwnd = (self.cwnd / 2.0).max(1.0);
    }

    /// Current window, in requests.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// May one more request enter with `in_flight` already outstanding?
    pub fn admits(&self, in_flight: u32) -> bool {
        f64::from(in_flight) + 1.0 <= self.cwnd + 1e-9
    }
}

/// Token pacer: hands out non-decreasing release times for datagrams to
/// one peer. Burst of one — an idle peer sends immediately, a busy one is
/// spaced by the gap the previous datagram imposed.
#[derive(Debug, Clone, Default)]
pub struct Pacer {
    next: Option<Instant>,
}

impl Pacer {
    pub fn new() -> Self {
        Pacer::default()
    }

    /// Earliest time the next datagram may leave, given `now` and the gap
    /// this datagram imposes on its successor. Release times returned by
    /// successive calls with non-decreasing `now` never go backwards.
    pub fn schedule(&mut self, now: Instant, gap: Duration) -> Instant {
        let release = match self.next {
            None => now,
            Some(next) => next.max(now),
        };
        self.next = Some(release + gap);
        release
    }
}

/// Per-peer congestion state: estimator + window + pacer + admission queue.
struct PeerCc {
    est: RttEstimator,
    win: AimdWindow,
    pacer: Pacer,
    in_flight: u32,
    /// Requests waiting for the window to open, woken FIFO.
    waiters: VecDeque<oneshot::Sender<()>>,
    /// When the last multiplicative decrease was applied: one fan-in
    /// burst times out every outstanding request at once, and W
    /// simultaneous loss reports must count as ONE congestion event
    /// (CCID2's once-per-window decrease), not W halvings.
    last_decrease: Option<Instant>,
}

impl PeerCc {
    fn new(cfg: &AdaptiveConfig) -> Self {
        PeerCc {
            est: RttEstimator::new(cfg.init_rto, cfg.min_rto, cfg.max_rto),
            win: AimdWindow::new(cfg.init_window, cfg.max_window),
            pacer: Pacer::new(),
            in_flight: 0,
            waiters: VecDeque::new(),
            last_decrease: None,
        }
    }

    /// The request-pacing gap: `srtt / cwnd` (the window spread over one
    /// round trip), clamped so idle/backed-off peers never stall a fresh
    /// request longer than `pace_cap`.
    fn request_gap(&self, cfg: &AdaptiveConfig) -> Duration {
        let rtt = self.est.srtt().unwrap_or(cfg.init_rto).as_secs_f64();
        Duration::from_secs_f64(rtt / self.win.cwnd()).min(cfg.pace_cap)
    }

    /// Wake one queued request per currently-free window slot (FIFO).
    ///
    /// A wake is a *signal*, not a slot transfer: the woken request
    /// re-enters the admission loop and claims `in_flight` itself under
    /// the lock. This makes races leak-free by construction — a waiter
    /// whose deadline expires (or whose future is cancelled) between the
    /// send and the wake-up simply never claims, so no slot is ever owned
    /// by a dead request. The cost is a possible lost wakeup in that
    /// race, bounded by the loser nudging the queue on its way out
    /// ([`Adaptive::admit`]) and by every later release re-waking.
    fn wake_admissible(&mut self) {
        let free = (self.win.cwnd().floor() as i64 - i64::from(self.in_flight)).max(0);
        let mut to_wake = free as usize;
        while to_wake > 0 {
            match self.waiters.pop_front() {
                // a dead receiver (deadline passed while queued) is
                // skipped; the wake goes to the next live waiter
                Some(tx) => {
                    if tx.send(()).is_ok() {
                        to_wake -= 1;
                    }
                }
                None => break,
            }
        }
    }
}

/// RTT-adaptive RTO + AIMD window + pacer, per peer (see the module docs).
pub struct Adaptive {
    cfg: AdaptiveConfig,
    /// Bounded like the endpoint's served/reassembly caches: client churn
    /// (ephemeral ports, restarts) must not grow a long-running endpoint's
    /// memory forever. Evicting an active peer merely resets its
    /// estimator/window to initial values on next use; outstanding permits
    /// then decrement a fresh counter, which saturates at zero.
    peers: Mutex<BoundedMap<SocketAddr, PeerCc>>,
}

impl Adaptive {
    /// Observability: the peer's current adaptive RTO and window, if any
    /// traffic has flowed to it.
    pub fn peer_cc(&self, peer: SocketAddr) -> Option<(Duration, f64)> {
        self.peers
            .lock()
            .get(&peer)
            .map(|p| (p.est.rto(), p.win.cwnd()))
    }

    /// Run `f` on the peer's congestion state, created on first contact
    /// (bounded: creation past capacity evicts the longest-known peer).
    fn with_peer<R>(&self, peer: SocketAddr, f: impl FnOnce(&mut PeerCc) -> R) -> R {
        let mut peers = self.peers.lock();
        f(peers.get_or_insert_with(peer, || PeerCc::new(&self.cfg)))
    }

    /// Run `f` on the peer's congestion state only if it (still) exists:
    /// feedback about an evicted peer is dropped, not used to revive it.
    fn if_peer(&self, peer: SocketAddr, f: impl FnOnce(&mut PeerCc)) {
        if let Some(p) = self.peers.lock().get_mut(&peer) {
            f(p);
        }
    }
}

impl CongestionPolicy for Adaptive {
    type Config = AdaptiveConfig;
    type Permit<'a> = WindowGuard<'a>;
    const NAME: &'static str = "ccudp";

    fn new(cfg: &DatagramConfig<AdaptiveConfig>) -> Self {
        assert!(cfg.policy.init_window >= 1.0 && cfg.policy.max_window >= 1.0);
        Adaptive {
            cfg: cfg.policy,
            peers: Mutex::new(BoundedMap::new(cfg.dedup_entries)),
        }
    }

    /// Wait for the peer's AIMD window to admit one more request. The
    /// returned guard holds the slot; dropping it releases the slot and
    /// wakes queued requests.
    ///
    /// Slots are only ever claimed *here*, under the lock, by a live
    /// future — a wake from `PeerCc::wake_admissible` is a signal to
    /// retry, not a transfer of ownership — so a waiter that times out or
    /// is cancelled at the exact moment it is woken cannot leak a slot.
    async fn admit(
        &self,
        peer: SocketAddr,
        deadline: Instant,
    ) -> Result<WindowGuard<'_>, RequestError> {
        let mut woken = false;
        loop {
            let queued = self.with_peer(peer, |p| {
                // direct admission for woken waiters (they were the queue
                // front; the wake popped their tx) and for newcomers only
                // when nobody is queued ahead — fresh requests must not
                // jump requests already waiting
                if (woken || p.waiters.is_empty()) && p.win.admits(p.in_flight) {
                    p.in_flight += 1;
                    return None;
                }
                let (tx, rx) = oneshot::channel();
                p.waiters.push_back(tx);
                // a slot may be free right now (stranded by a cancelled
                // waiter, or freed while we queued): wake the queue front
                // so it is never left idle with requests waiting
                p.wake_admissible();
                Some(rx)
            });
            let Some(rx) = queued else {
                return Ok(WindowGuard { policy: self, peer });
            };
            let wait = deadline.saturating_duration_since(Instant::now());
            let signal = if wait.is_zero() {
                None
            } else {
                tokio::time::timeout(wait, rx).await.ok()
            };
            woken = match signal {
                // woken: a slot was free a moment ago — retry the claim
                Some(Ok(())) => true,
                // sender vanished: re-queue, any prior wake is spent
                Some(Err(_)) => false,
                None => {
                    // deadline while queued: a wake may have been spent on
                    // us in vain — pass it on so a free slot is not
                    // stranded while others still wait
                    self.if_peer(peer, PeerCc::wake_admissible);
                    return Err(RequestError::TimedOut);
                }
            };
        }
    }

    fn gap(&self, peer: SocketAddr, kind: u8) -> Duration {
        let now = Instant::now();
        self.with_peer(peer, |p| {
            let gap = if kind == KIND_RESPONSE {
                self.cfg.reply_gap
            } else {
                p.request_gap(&self.cfg)
            };
            p.pacer.schedule(now, gap).saturating_duration_since(now)
        })
    }

    fn rto(&self, peer: SocketAddr) -> Duration {
        self.peers
            .lock()
            .get(&peer)
            .map_or(self.cfg.init_rto, |p| p.est.rto())
    }

    fn on_sample(&self, peer: SocketAddr, rtt: Duration) {
        self.with_peer(peer, |p| p.est.on_sample(rtt));
    }

    /// Additive window increase; wake queued requests the bigger window
    /// now admits.
    fn on_delivered(&self, peer: SocketAddr) {
        self.if_peer(peer, |p| {
            p.win.on_ack();
            p.wake_admissible();
        });
    }

    /// Exponential RTO backoff and multiplicative window decrease —
    /// applied at most once per RTO-sized interval, so the W requests a
    /// single fan-in burst times out simultaneously report one congestion
    /// event, not W. The hold is ¾ of the pre-decrease RTO: below the
    /// ±20% jitter floor, so a lone request's consecutive windows (each
    /// ≥ 0.8 × RTO apart) still escalate the backoff every time.
    fn on_silent_window(&self, peer: SocketAddr) {
        self.if_peer(peer, |p| {
            let now = Instant::now();
            let hold = p.est.rto().mul_f64(0.75);
            let fresh_event = p
                .last_decrease
                .is_none_or(|t| now.saturating_duration_since(t) >= hold);
            if fresh_event {
                p.last_decrease = Some(now);
                p.est.on_timeout();
                p.win.on_loss();
            }
        });
    }
}

/// RAII window slot: releasing wakes the next queued request.
pub struct WindowGuard<'a> {
    policy: &'a Adaptive,
    peer: SocketAddr,
}

impl Drop for WindowGuard<'_> {
    fn drop(&mut self) {
        self.policy.if_peer(self.peer, |p| {
            p.in_flight = p.in_flight.saturating_sub(1);
            p.wake_admissible();
        });
    }
}

#[cfg(test)]
mod tests {
    //! Unit coverage of the pure components (property tests go further in
    //! `tests/ccudp_props.rs`); the policies are exercised end to end by
    //! the endpoint suite in [`super::super::datagram`].
    use super::*;

    #[test]
    fn estimator_follows_rfc6298_shape() {
        let mut e = RttEstimator::new(
            Duration::from_millis(20),
            Duration::from_millis(1),
            Duration::from_millis(200),
        );
        assert_eq!(e.rto(), Duration::from_millis(20), "init before samples");
        e.on_sample(Duration::from_millis(10));
        // first sample: SRTT = 10 ms, RTTVAR = 5 ms → RTO = 10 + 20 = 30 ms
        assert_eq!(e.srtt(), Some(Duration::from_millis(10)));
        assert_eq!(e.rto(), Duration::from_millis(30));
        // stable samples shrink RTTVAR toward 0: RTO converges toward SRTT
        for _ in 0..200 {
            e.on_sample(Duration::from_millis(10));
        }
        let rto = e.rto();
        assert!(
            rto < Duration::from_millis(12) && rto >= Duration::from_millis(10),
            "converged RTO ≈ SRTT + G: {rto:?}"
        );
    }

    #[test]
    fn estimator_backoff_doubles_and_resets() {
        let mut e = RttEstimator::new(
            Duration::from_millis(10),
            Duration::from_millis(1),
            Duration::from_millis(500),
        );
        e.on_sample(Duration::from_millis(8));
        let base = e.rto();
        e.on_timeout();
        assert_eq!(e.rto(), base * 2);
        e.on_timeout();
        assert_eq!(e.rto(), base * 4);
        // cap
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), Duration::from_millis(500));
        // a fresh sample proves the path again: backoff clears
        e.on_sample(Duration::from_millis(8));
        assert!(e.rto() < base * 2);
    }

    #[test]
    fn window_aimd_shape() {
        let mut w = AimdWindow::new(4.0, 16.0);
        assert!(w.admits(3) && !w.admits(4));
        // cwnd² grows by ~2 per ack: 150 acks take 4 past √(16+300) > 16
        for _ in 0..150 {
            w.on_ack();
        }
        assert_eq!(w.cwnd(), 16.0, "capped");
        w.on_loss();
        assert_eq!(w.cwnd(), 8.0, "halved");
        for _ in 0..10 {
            w.on_loss();
        }
        assert_eq!(w.cwnd(), 1.0, "floored at 1");
        assert!(w.admits(0), "a window of 1 still admits one request");
    }

    #[test]
    fn pacer_releases_are_spaced_and_monotone() {
        let mut p = Pacer::new();
        let t0 = Instant::now();
        let gap = Duration::from_millis(1);
        let r1 = p.schedule(t0, gap);
        assert_eq!(r1, t0, "idle pacer releases immediately");
        let r2 = p.schedule(t0, gap);
        let r3 = p.schedule(t0, gap);
        assert_eq!(r2, t0 + gap);
        assert_eq!(r3, t0 + gap + gap);
        // a long-idle pacer does not accumulate burst credit
        let later = t0 + Duration::from_secs(1);
        let r4 = p.schedule(later, gap);
        assert_eq!(r4, later);
    }
}
