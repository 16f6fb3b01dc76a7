//! TCP transport: length-prefixed binary frames over persistent
//! connections (the [`crate::proto`] framing, the tokio tutorial idiom).
//!
//! The client keeps one connection per node with a pending-response map
//! (§4.8's outstanding-query table); the server accepts connections and
//! serves each frame concurrently, correlating replies by frame id. The
//! §4.8.4 caveat lives here: a lost segment on this path stalls behind
//! TCP's conservative minimum RTO, which is why [`super::datagram`] exists.
//!
//! Both ends read through a [`FrameReader`] and write through one
//! connection buffer (`ConnWriter`), so a frame is encoded once, into the
//! buffer it is sent from. The server answers a request on the connection's
//! reader task when nothing else is buffered behind it and the handler is
//! done at its first poll (a one-chunk sub-query); anything else runs on a
//! task of its own, so a burst keeps its parallelism.

use super::{BoundServer, BoxFuture, Encoder, Handler, NodeLink, RpcError, Transport};
use crate::proto::{put_frame, FrameReader, Msg, FRAME_READ_BUF};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::future::Future;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;
use tokio::io::AsyncWrite;
use tokio::net::tcp::OwnedWriteHalf;
use tokio::net::{TcpListener, TcpStream};

/// A connection buffer that grew past this (a `Store`) is released once
/// flushed, so a connection keeps no more than its read side does
/// ([`FRAME_READ_BUF`]), not its largest frame.
const KEEP_WRITE_BUF: usize = FRAME_READ_BUF;

/// One connection's write side: the socket half and the one buffer frames
/// are encoded into. `buf[sent..]` are bytes of whole frames not yet on the
/// wire, in order — whoever holds the lock next sends them before (with)
/// its own, so a write cut short never tears a frame.
struct ConnWriter {
    half: OwnedWriteHalf,
    buf: Vec<u8>,
    sent: usize,
}

type SharedWriter = Arc<tokio::sync::Mutex<ConnWriter>>;

impl ConnWriter {
    fn new(half: OwnedWriteHalf) -> SharedWriter {
        Arc::new(tokio::sync::Mutex::new(ConnWriter {
            half,
            buf: Vec::new(),
            sent: 0,
        }))
    }

    /// Send everything buffered, as far as the socket takes it now.
    fn poll_flush(&mut self, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        while self.sent < self.buf.len() {
            match self.half.poll_write(cx, &self.buf[self.sent..]) {
                Poll::Ready(Ok(0)) => {
                    return Poll::Ready(Err(std::io::ErrorKind::WriteZero.into()));
                }
                Poll::Ready(Ok(n)) => self.sent += n,
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => return Poll::Pending,
            }
        }
        self.sent = 0;
        if self.buf.capacity() > KEEP_WRITE_BUF {
            self.buf = Vec::new();
        } else {
            self.buf.clear();
        }
        Poll::Ready(Ok(()))
    }

    async fn flush(&mut self) -> std::io::Result<()> {
        std::future::poll_fn(|cx| self.poll_flush(cx)).await
    }

    /// Append one frame and send it (and anything buffered before it).
    async fn send(&mut self, id: u64, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        put_frame(&mut self.buf, id, encode)?;
        self.flush().await
    }
}

/// Poll `fut` once, on the calling task.
async fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    std::future::poll_fn(|cx| Poll::Ready(std::pin::Pin::new(&mut *fut).poll(cx))).await
}

/// One node connection with response correlation.
pub struct NodeConn {
    addr: SocketAddr,
    writer: SharedWriter,
    pending: Arc<Mutex<HashMap<u64, tokio::sync::oneshot::Sender<Msg>>>>,
    next_id: AtomicU64,
    connected: AtomicBool,
}

impl NodeConn {
    pub async fn connect(addr: SocketAddr) -> std::io::Result<Arc<Self>> {
        let stream = TcpStream::connect(addr).await?;
        stream.set_nodelay(true)?;
        let (rd, wr) = stream.into_split();
        let pending: Arc<Mutex<HashMap<u64, tokio::sync::oneshot::Sender<Msg>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let conn = Arc::new(NodeConn {
            addr,
            writer: ConnWriter::new(wr),
            pending: Arc::clone(&pending),
            next_id: AtomicU64::new(1),
            connected: AtomicBool::new(true),
        });
        let conn2 = Arc::clone(&conn);
        tokio::spawn(async move {
            // reader task: route responses to their waiters; a reply that
            // does not decode fails its own exchange (its sender drops)
            let mut frames = FrameReader::new(rd);
            while let Ok(Some((id, body))) = frames.next().await {
                let waiter = pending.lock().remove(&id);
                if let (Some(tx), Some(msg)) = (waiter, body) {
                    let _ = tx.send(msg);
                }
            }
            // ORDERING: SeqCst — connection-liveness flag; readers only
            // need to eventually observe the drop, and the waiter cleanup
            // below is guarded by the `pending` mutex, not this flag
            conn2.connected.store(false, Ordering::SeqCst);
            // wake all waiters with closure (drop senders)
            pending.lock().clear();
        });
        Ok(conn)
    }

    /// One request-response exchange with a deadline.
    pub async fn rpc(&self, body: Msg, timeout: Duration) -> Result<Msg, RpcError> {
        self.rpc_with(&|out| body.put(out), timeout).await
    }

    /// One exchange whose request `encode` appends straight into the
    /// connection's write buffer.
    pub async fn rpc_with(&self, encode: &Encoder<'_>, timeout: Duration) -> Result<Msg, RpcError> {
        if !self.is_connected() {
            return Err(RpcError::Disconnected);
        }
        // ORDERING: Relaxed — only uniqueness of the id matters; the RMW is
        // atomic at any ordering and nothing else is published through it
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = tokio::sync::oneshot::channel();
        self.pending.lock().insert(id, tx);
        let sent = self.writer.lock().await.send(id, encode).await;
        if sent.is_err() {
            self.pending.lock().remove(&id);
            return Err(RpcError::Disconnected);
        }
        match tokio::time::timeout(timeout, rx).await {
            Ok(Ok(msg)) => Ok(msg),
            Ok(Err(_)) => Err(RpcError::Disconnected),
            Err(_) => {
                self.pending.lock().remove(&id);
                Err(RpcError::Timeout)
            }
        }
    }
}

impl NodeLink for NodeConn {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn is_connected(&self) -> bool {
        // ORDERING: SeqCst — pairs with the reader task's disconnect store;
        // plain flag poll, inherently racy against a concurrent close anyway
        self.connected.load(Ordering::SeqCst)
    }

    fn rpc_with<'a>(
        &'a self,
        encode: &'a Encoder<'a>,
        timeout: Duration,
    ) -> BoxFuture<'a, Result<Msg, RpcError>> {
        Box::pin(NodeConn::rpc_with(self, encode, timeout))
    }
}

/// A bound TCP listener ready to serve frames.
pub struct TcpBoundServer {
    listener: TcpListener,
}

impl BoundServer for TcpBoundServer {
    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    fn serve(
        self: Box<Self>,
        handler: Arc<dyn Handler>,
        mut shutdown: tokio::sync::watch::Receiver<bool>,
    ) -> tokio::task::JoinHandle<()> {
        tokio::spawn(async move {
            loop {
                tokio::select! {
                    accepted = self.listener.accept() => {
                        let Ok((stream, _)) = accepted else { return };
                        // several small replies may be owed at once: without
                        // this the second waits out the peer's delayed ACK
                        let _ = stream.set_nodelay(true);
                        let h = Arc::clone(&handler);
                        let sd = shutdown.clone();
                        tokio::spawn(async move {
                            let _ = handle_conn(stream, h, sd).await;
                        });
                    }
                    _ = shutdown.changed() => {
                        if *shutdown.borrow() {
                            return;
                        }
                    }
                }
            }
        })
    }
}

/// Per-connection loop: frames are served concurrently; responses are
/// correlated by frame id, so completion order does not matter.
///
/// A request that is the last frame the reader holds is polled once right
/// here: a handler done at its first poll (a one-chunk sub-query, a ping)
/// is answered without a task of its own. Everything else — a handler
/// still pending, or a frame with more buffered behind it, which a burst's
/// parallelism needs — runs on a spawned task. A frame whose body does not
/// decode is answered `Msg::Error` on its id, and the connection serves on;
/// only a broken stream (EOF inside a frame, a length over
/// [`crate::proto::MAX_FRAME`]) closes it.
///
/// The loop also watches the server's shutdown signal: a killed node must
/// stop answering on *established* connections too, not just stop
/// accepting — otherwise a "crashed" node keeps serving the front-end's
/// persistent conns forever (already-spawned replies still flush, so the
/// `Shutdown` ack itself gets out before the stream drops).
async fn handle_conn(
    stream: TcpStream,
    handler: Arc<dyn Handler>,
    mut shutdown: tokio::sync::watch::Receiver<bool>,
) -> std::io::Result<()> {
    let (rd, wr) = stream.into_split();
    let mut frames = FrameReader::new(rd);
    let wr = ConnWriter::new(wr);
    // one shutdown watch for the connection's life, polled beside the
    // reader: no per-frame `select!`
    let stop = async move {
        while !*shutdown.borrow() {
            if shutdown.changed().await.is_err() {
                // no sender left: nothing can stop this connection now
                std::future::pending::<()>().await;
            }
        }
    };
    let mut stop = std::pin::pin!(stop);
    loop {
        let next = std::future::poll_fn(|cx| {
            if stop.as_mut().poll(cx).is_ready() {
                return Poll::Ready(Ok(None));
            }
            frames.poll_next(cx)
        })
        .await?;
        let Some((id, body)) = next else {
            return Ok(());
        };
        let Some(msg) = body else {
            let error = Msg::Error {
                what: "malformed request".into(),
            };
            reply_inline(&wr, id, error).await;
            continue;
        };
        let mut reply = Arc::clone(&handler).handle(msg);
        if !frames.buffered() {
            if let Poll::Ready(msg) = poll_once(&mut reply).await {
                reply_inline(&wr, id, msg).await;
                continue;
            }
        }
        let wr = Arc::clone(&wr);
        tokio::spawn(async move {
            let msg = reply.await;
            let _ = wr.lock().await.send(id, |out| msg.put(out)).await;
        });
    }
}

/// Answer `id` from the reader task without ever parking it on the peer:
/// with the writer free, the reply is encoded into the connection buffer
/// and sent as far as the socket takes it now; a writer held elsewhere, or
/// a socket that would block, hands the rest to a spawned task.
async fn reply_inline(wr: &SharedWriter, id: u64, msg: Msg) {
    let Ok(mut w) = wr.try_lock() else {
        let wr = Arc::clone(wr);
        tokio::spawn(async move {
            let _ = wr.lock().await.send(id, |out| msg.put(out)).await;
        });
        return;
    };
    if put_frame(&mut w.buf, id, |out| msg.put(out)).is_err() {
        return;
    }
    let flushed = std::future::poll_fn(|cx| Poll::Ready(w.poll_flush(cx))).await;
    if flushed.is_pending() {
        // the unsent tail stays buffered: whoever holds the writer next
        // sends it first
        drop(w);
        let wr = Arc::clone(wr);
        tokio::spawn(async move {
            let _ = wr.lock().await.flush().await;
        });
    }
}

/// The TCP transport: stateless factory over [`NodeConn`] and
/// [`TcpBoundServer`].
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn bind<'a>(&'a self, addr: &'a str) -> BoxFuture<'a, std::io::Result<Box<dyn BoundServer>>> {
        Box::pin(async move {
            let listener = TcpListener::bind(addr).await?;
            Ok(Box::new(TcpBoundServer { listener }) as Box<dyn BoundServer>)
        })
    }

    fn connect<'a>(
        &'a self,
        addr: SocketAddr,
    ) -> BoxFuture<'a, std::io::Result<Arc<dyn NodeLink>>> {
        Box::pin(async move {
            let conn = NodeConn::connect(addr).await?;
            Ok(conn as Arc<dyn NodeLink>)
        })
    }
}
