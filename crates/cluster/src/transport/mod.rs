//! The pluggable cluster transport boundary.
//!
//! Every RPC the cluster makes — sub-query dispatch, store pushes, control
//! calls, store-forward chains — goes through three small traits so the
//! front-end's scatter-gather, the node's serve loop and the harness are
//! all transport-agnostic:
//!
//! * [`Transport`] — a factory: bind a server endpoint, connect a client
//!   link. One instance per role (each data node owns one, the front-end
//!   owns one), so per-endpoint state like loss injection stays private.
//! * [`NodeLink`] — the front-end's handle to one node: a correlated
//!   request/response exchange with a deadline ([`NodeLink::rpc`], or
//!   [`NodeLink::rpc_with`] to encode the request into the link's own
//!   buffer).
//! * [`BoundServer`] — a bound endpoint that can run a serve loop,
//!   dispatching inbound messages to a [`Handler`] until shutdown.
//!
//! Two implementations exist, selectable three ways:
//!
//! * [`tcp`] — length-prefixed frames over persistent TCP connections
//!   (the seed path): correlation ids multiplex requests over one stream.
//! * [`datagram`] — the §4.8.4 datagram path, one endpoint:
//!   application-level acknowledgements, millisecond retransmission
//!   timers (±jittered), at-most-once execution and chunked replies for
//!   payloads larger than one datagram. Its [`CongestionPolicy`]
//!   ([`congestion`]) decides what the sender does about the path:
//!   [`FixedRto`] (`"udp"`) is the thesis's constant timer; [`Adaptive`]
//!   (`"ccudp"`) adds a per-peer RFC 6298-style adaptive RTO with
//!   exponential backoff, a CCID2-flavored AIMD in-flight window and
//!   token-paced sends — the answer to §4.8.4's "avoid congestion
//!   collapse in pathological cases" caveat.
//!
//! Selection is data, not code: [`TransportSpec`] is a cloneable
//! description that the harness threads through `ClusterConfig`, building
//! fresh [`Transport`] instances (with their own loss policies) per role.
//! [`CrossTrafficSpec`] ([`xtraffic`]) describes a shared bottleneck queue
//! with competing background flows, so congestion behaviour is actually
//! reproducible on loopback.

pub mod congestion;
pub mod datagram;
pub mod tcp;
pub mod xtraffic;

pub use congestion::{
    Adaptive, AdaptiveConfig, AimdWindow, CongestionPolicy, FixedRto, Pacer, RttEstimator,
};
pub use datagram::{DatagramConfig, DatagramEndpoint, DatagramTransport, LossPolicy, RequestError};
pub use tcp::{NodeConn, TcpTransport};
pub use xtraffic::{CrossTrafficSpec, NetGate, SharedBottleneck};

use crate::proto::Msg;
use std::future::Future;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::Arc;
use std::time::Duration;

/// Boxed future, the dyn-compatible shape for async trait methods.
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// RPC failure modes the front-end reacts to (mark dead, §4.4 fall-back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply within the deadline (or, for UDP, the peer stopped
    /// acknowledging for `max_attempts` consecutive retransmit windows).
    Timeout,
    /// The link is unusable (TCP connection closed, local I/O error).
    Disconnected,
}

/// Serves inbound requests: one message in, one reply out. The node's
/// request-processing logic implements this once; every transport calls it.
pub trait Handler: Send + Sync + 'static {
    fn handle(self: Arc<Self>, msg: Msg) -> BoxFuture<'static, Msg>;
}

/// Adapter: a plain `Fn(Msg) -> Msg` as a [`Handler`] (tests, probes).
pub struct FnHandler<F>(pub F);

impl<F> Handler for FnHandler<F>
where
    F: Fn(Msg) -> Msg + Send + Sync + 'static,
{
    fn handle(self: Arc<Self>, msg: Msg) -> BoxFuture<'static, Msg> {
        let reply = (self.0)(msg);
        Box::pin(async move { reply })
    }
}

/// Client side: one node as seen from the front-end.
pub trait NodeLink: Send + Sync + 'static {
    /// The address this link targets.
    fn addr(&self) -> SocketAddr;
    /// Is the link believed usable? (UDP has no connection state and always
    /// answers `true`; failures surface as [`RpcError::Timeout`].)
    fn is_connected(&self) -> bool;
    /// One request-response exchange with a deadline, the request's body
    /// appended by `encode` straight into the link's send buffer — the
    /// sub-query path encodes a borrowed body once, with no `Msg` built
    /// around it. `encode` must append one [`Msg`]'s encoding.
    fn rpc_with<'a>(
        &'a self,
        encode: &'a Encoder<'a>,
        timeout: Duration,
    ) -> BoxFuture<'a, Result<Msg, RpcError>>;

    /// [`rpc_with`](Self::rpc_with) over an owned message.
    fn rpc<'a>(&'a self, msg: Msg, timeout: Duration) -> BoxFuture<'a, Result<Msg, RpcError>> {
        Box::pin(async move { self.rpc_with(&|out| msg.put(out), timeout).await })
    }
}

/// Appends one request's encoding to a send buffer ([`NodeLink::rpc_with`]).
pub type Encoder<'a> = dyn Fn(&mut Vec<u8>) + Sync + 'a;

/// Server side: a bound endpoint ready to serve.
pub trait BoundServer: Send + Sync + 'static {
    fn local_addr(&self) -> std::io::Result<SocketAddr>;
    /// Consume the endpoint and run the serve loop on a spawned task; the
    /// loop exits when `shutdown` flips to `true`.
    fn serve(
        self: Box<Self>,
        handler: Arc<dyn Handler>,
        shutdown: tokio::sync::watch::Receiver<bool>,
    ) -> tokio::task::JoinHandle<()>;
}

/// A transport implementation: binds servers, connects links.
pub trait Transport: Send + Sync + 'static {
    /// Short name for reports and logs (`"tcp"` / `"udp"` / `"ccudp"`).
    fn name(&self) -> &'static str;
    /// Bind a server endpoint on `addr` (port 0 for ephemeral).
    fn bind<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, std::io::Result<Box<dyn BoundServer>>>;
    /// Connect a client link to a node at `addr`.
    fn connect<'a>(&'a self, addr: SocketAddr)
        -> BoxFuture<'a, std::io::Result<Arc<dyn NodeLink>>>;
    /// Release shared client resources (stop receive loops). Idempotent.
    fn shutdown(&self) {}
}

/// Declarative datagram-loss injection: a cloneable description that builds
/// a fresh [`LossPolicy`] (with its own counters/RNG) per endpoint — except
/// [`LossSpec::Bottleneck`], whose clones intentionally share one queue.
#[derive(Debug, Clone, PartialEq)]
pub enum LossSpec {
    /// Deliver everything.
    None,
    /// Drop the first `n` outgoing datagrams of any kind.
    DropFirst(u32),
    /// Drop the first `n` outgoing *response* datagrams (acks and requests
    /// pass) — deterministic reply-loss tests.
    DropFirstResponses(u32),
    /// Drop the **first transmission of every response**, delivering
    /// retransmissions: the §4.8.4 incast model, where the synchronized
    /// reply burst overflows the front-end's switch buffer and recovery is
    /// governed purely by the sender's retransmission timer.
    FirstReplyPerRequest,
    /// Drop each datagram independently with probability `p`, seeded.
    Random { p: f64, seed: u64 },
    /// Route every datagram through a **shared** bottleneck queue with
    /// competing cross traffic ([`CrossTrafficSpec::build`]); clones of
    /// this spec all drain the same queue, so handing one to every server
    /// endpoint models the front-end's fan-in port.
    Bottleneck(SharedBottleneck),
    /// Fault-injection partition switch in front of another policy: while
    /// the shared [`NetGate`] is closed every datagram vanishes; while open
    /// the inner policy decides. Clones share the gate, so the injector
    /// can cut and heal a live endpoint deterministically.
    Gated { gate: NetGate, inner: Box<LossSpec> },
}

impl LossSpec {
    pub fn build(&self) -> LossPolicy {
        match self {
            LossSpec::None => LossPolicy::None,
            LossSpec::DropFirst(n) => LossPolicy::drop_first(*n),
            LossSpec::DropFirstResponses(n) => LossPolicy::drop_first_responses(*n),
            LossSpec::FirstReplyPerRequest => LossPolicy::first_reply_per_request(),
            LossSpec::Random { p, seed } => LossPolicy::random(*p, *seed),
            LossSpec::Bottleneck(queue) => LossPolicy::Bottleneck(queue.clone()),
            LossSpec::Gated { gate, inner } => LossPolicy::Gated {
                gate: gate.clone(),
                inner: Box::new(inner.build()),
            },
        }
    }

    /// Wrap this spec behind a partition switch (builder style).
    pub fn gated(self, gate: NetGate) -> Self {
        LossSpec::Gated {
            gate,
            inner: Box::new(self),
        }
    }
}

/// Cloneable transport selection, threaded through `ClusterConfig`. Each
/// [`build`](Self::build) call returns a fresh [`Transport`] with its own
/// loss policies, so per-node and per-front-end state never alias.
#[derive(Debug, Clone)]
pub enum TransportSpec {
    /// Length-prefixed frames over persistent TCP connections.
    Tcp,
    /// Datagrams with app-level acks, fixed (jittered) retransmission
    /// timers and chunking — no congestion control.
    Udp {
        cfg: DatagramConfig<FixedRto>,
        /// Loss applied to datagrams the *client* endpoint sends (requests).
        client_loss: LossSpec,
        /// Loss applied to datagrams each *server* endpoint sends (acks,
        /// responses).
        server_loss: LossSpec,
    },
    /// Congestion-controlled datagrams: RTT-adaptive RTO with exponential
    /// backoff, AIMD in-flight window, token-paced sends.
    CcUdp {
        cfg: DatagramConfig<AdaptiveConfig>,
        /// Loss applied to datagrams the *client* endpoint sends (requests).
        client_loss: LossSpec,
        /// Loss applied to datagrams each *server* endpoint sends (acks,
        /// responses).
        server_loss: LossSpec,
    },
}

impl TransportSpec {
    /// UDP with default retransmission parameters and no loss injection.
    pub fn udp() -> Self {
        TransportSpec::Udp {
            cfg: DatagramConfig::default(),
            client_loss: LossSpec::None,
            server_loss: LossSpec::None,
        }
    }

    /// Congestion-controlled UDP with default parameters and no loss
    /// injection.
    pub fn ccudp() -> Self {
        TransportSpec::CcUdp {
            cfg: DatagramConfig::default(),
            client_loss: LossSpec::None,
            server_loss: LossSpec::None,
        }
    }

    /// Default spec for a transport name (`"tcp"` / `"udp"` / `"ccudp"`):
    /// how CI's transport matrix pins a leg via `ROAR_TRANSPORT`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "tcp" => Some(TransportSpec::Tcp),
            "udp" => Some(TransportSpec::udp()),
            "ccudp" => Some(TransportSpec::ccudp()),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            TransportSpec::Tcp => "tcp",
            TransportSpec::Udp { .. } => "udp",
            TransportSpec::CcUdp { .. } => "ccudp",
        }
    }

    pub fn build(&self) -> Arc<dyn Transport> {
        match self {
            TransportSpec::Tcp => Arc::new(TcpTransport),
            TransportSpec::Udp {
                cfg,
                client_loss,
                server_loss,
            } => Arc::new(DatagramTransport::<FixedRto>::new(
                *cfg,
                client_loss.clone(),
                server_loss.clone(),
            )),
            TransportSpec::CcUdp {
                cfg,
                client_loss,
                server_loss,
            } => Arc::new(DatagramTransport::<Adaptive>::new(
                *cfg,
                client_loss.clone(),
                server_loss.clone(),
            )),
        }
    }
}
