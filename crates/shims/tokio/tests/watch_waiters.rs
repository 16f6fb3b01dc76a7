//! A `watch` channel remembers only the receivers waiting on it right now.
//! The serve loops build `shutdown.changed()` afresh inside `select!` for
//! every frame; each of those used to leave a waker behind for the life of
//! the process.

use std::time::Duration;

#[test]
fn dropped_changed_futures_leave_no_waker_behind() {
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    let (tx, mut rx) = tokio::sync::watch::channel(false);
    rt.block_on(async {
        for _ in 0..10_000 {
            // `changed()` is polled first (pending: it registers), then the
            // ready arm wins and the `Changed` future is dropped
            tokio::select! {
                _ = rx.changed() => panic!("nothing was sent"),
                _ = std::future::ready(()) => {}
            }
        }
    });
    assert!(
        tx.waiters() <= 1,
        "{} wakers left by 10 000 abandoned waits",
        tx.waiters()
    );
}

#[test]
fn send_wakes_every_waiting_task() {
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    let (tx, rx) = tokio::sync::watch::channel(0u32);
    rt.block_on(async {
        let tasks: Vec<_> = (0..3)
            .map(|_| {
                let mut rx = rx.clone();
                tokio::spawn(async move {
                    rx.changed().await.expect("sender alive");
                    *rx.borrow()
                })
            })
            .collect();
        while tx.waiters() < 3 {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
        tx.send(7).expect("send");
        for t in tasks {
            assert_eq!(t.await.expect("join"), 7);
        }
    });
    assert_eq!(tx.waiters(), 0);
}
