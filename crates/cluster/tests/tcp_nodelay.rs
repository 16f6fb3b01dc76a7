//! Two replies owed on one accepted TCP connection must both arrive
//! promptly.
//!
//! The front-end multiplexes sub-queries over one persistent connection
//! per node, so a node routinely owes it several small replies at once.
//! With Nagle's algorithm left on at the accepting side, the second reply
//! is held until the first is acknowledged — and the client, having
//! nothing to send, delays that ACK by ~40 ms. `NodeConn::connect` always
//! set `TCP_NODELAY`; the accept path must too.

use roar_cluster::transport::{FnHandler, TcpTransport, Transport};
use roar_cluster::{Msg, NodeConn};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[tokio::test]
async fn two_replies_on_one_accepted_connection_do_not_wait_for_a_delayed_ack() {
    let server = TcpTransport.bind("127.0.0.1:0").await.expect("bind");
    let addr = server.local_addr().expect("addr");
    let (_stop, stopped) = tokio::sync::watch::channel(false);
    server.serve(Arc::new(FnHandler(|_| Msg::Pong)), stopped);
    let conn = NodeConn::connect(addr).await.expect("connect");

    let timeout = Duration::from_secs(5);
    let mut round_ms = Vec::new();
    // a fresh connection ACKs eagerly (quick-ack mode) for its first
    // segments; the stall shows once that wears off, hence many rounds
    // and a median rather than one sample
    for _ in 0..31 {
        let t0 = Instant::now();
        let in_flight: Vec<_> = (0..2)
            .map(|_| {
                let conn = Arc::clone(&conn);
                tokio::spawn(async move { conn.rpc(Msg::Ping, timeout).await })
            })
            .collect();
        for reply in in_flight {
            assert_eq!(reply.await.expect("rpc task"), Ok(Msg::Pong));
        }
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let median = roar_util::percentile(&round_ms, 50.0);
    assert!(
        median < 20.0,
        "two multiplexed replies took a median {median:.1} ms per round \
         (a delayed-ACK stall is ~40 ms): {round_ms:.1?}"
    );
}
