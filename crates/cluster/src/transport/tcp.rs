//! TCP transport: length-prefixed binary frames over persistent
//! connections (the [`crate::proto`] framing, the tokio tutorial idiom).
//!
//! The client keeps one connection per node with a pending-response map
//! (§4.8's outstanding-query table); the server accepts connections and
//! serves each frame concurrently, correlating replies by frame id. The
//! §4.8.4 caveat lives here: a lost segment on this path stalls behind
//! TCP's conservative minimum RTO, which is why [`super::datagram`] exists.

use super::{BoundServer, BoxFuture, Handler, NodeLink, RpcError, Transport};
use crate::proto::{read_frame, write_frame, Frame, Msg};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::net::{TcpListener, TcpStream};

/// One node connection with response correlation.
pub struct NodeConn {
    addr: SocketAddr,
    writer: tokio::sync::Mutex<tokio::net::tcp::OwnedWriteHalf>,
    pending: Arc<Mutex<HashMap<u64, tokio::sync::oneshot::Sender<Msg>>>>,
    next_id: AtomicU64,
    connected: AtomicBool,
}

impl NodeConn {
    pub async fn connect(addr: SocketAddr) -> std::io::Result<Arc<Self>> {
        let stream = TcpStream::connect(addr).await?;
        stream.set_nodelay(true)?;
        let (mut rd, wr) = stream.into_split();
        let pending: Arc<Mutex<HashMap<u64, tokio::sync::oneshot::Sender<Msg>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let conn = Arc::new(NodeConn {
            addr,
            writer: tokio::sync::Mutex::new(wr),
            pending: Arc::clone(&pending),
            next_id: AtomicU64::new(1),
            connected: AtomicBool::new(true),
        });
        let conn2 = Arc::clone(&conn);
        tokio::spawn(async move {
            // reader task: route responses to their waiters
            while let Ok(Some(frame)) = read_frame(&mut rd).await {
                if let Some(tx) = pending.lock().remove(&frame.id) {
                    let _ = tx.send(frame.body);
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
        if !self.is_connected() {
            return Err(RpcError::Disconnected);
        }
        // ORDERING: Relaxed — only uniqueness of the id matters; the RMW is
        // atomic at any ordering and nothing else is published through it
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = tokio::sync::oneshot::channel();
        self.pending.lock().insert(id, tx);
        {
            let mut w = self.writer.lock().await;
            if write_frame(&mut *w, &Frame { id, body }).await.is_err() {
                self.pending.lock().remove(&id);
                return Err(RpcError::Disconnected);
            }
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

    fn rpc<'a>(&'a self, msg: Msg, timeout: Duration) -> BoxFuture<'a, Result<Msg, RpcError>> {
        Box::pin(NodeConn::rpc(self, msg, timeout))
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

/// Per-connection loop: each frame is served concurrently; responses are
/// correlated by frame id, so completion order does not matter. The loop
/// also watches the server's shutdown signal: a killed node must stop
/// answering on *established* connections too, not just stop accepting —
/// otherwise a "crashed" node keeps serving the front-end's persistent
/// conns forever (already-spawned replies still flush, so the `Shutdown`
/// ack itself gets out before the stream drops).
async fn handle_conn(
    stream: TcpStream,
    handler: Arc<dyn Handler>,
    mut shutdown: tokio::sync::watch::Receiver<bool>,
) -> std::io::Result<()> {
    let (mut rd, wr) = stream.into_split();
    let wr = Arc::new(tokio::sync::Mutex::new(wr));
    loop {
        if *shutdown.borrow() {
            return Ok(());
        }
        tokio::select! {
            frame = read_frame(&mut rd) => {
                let Some(frame) = frame? else { return Ok(()) };
                let h = Arc::clone(&handler);
                let wr = Arc::clone(&wr);
                tokio::spawn(async move {
                    let reply = h.handle(frame.body).await;
                    let mut w = wr.lock().await;
                    let _ = write_frame(
                        &mut *w,
                        &Frame {
                            id: frame.id,
                            body: reply,
                        },
                    )
                    .await;
                });
            }
            _ = shutdown.changed() => {}
        }
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
