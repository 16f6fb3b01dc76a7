//! A satisfied `timeout` gives its deadline back at once: no wheel entry,
//! no waker and no `timerfd` expiry outlive it. Every RPC is wrapped in a
//! 5 s `timeout`, so under the old lazy cancellation the wheel held five
//! seconds' worth of finished requests and the reactor woke for deadlines
//! nobody waited on. One test, run in its own process, so nothing else
//! moves the wake-up counter or the wheel.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

/// Pending on its first poll (after waking itself), ready on the second:
/// `Sleep` arms its wheel entry lazily, so the inner future of a `timeout`
/// must not be ready at once for there to be anything to reclaim.
struct SecondPoll(bool);

impl Future for SecondPoll {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if std::mem::replace(&mut self.0, true) {
            return Poll::Ready(());
        }
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

async fn satisfied_timeout(d: Duration) {
    tokio::time::timeout(d, SecondPoll(false))
        .await
        .expect("the inner future wins");
}

#[test]
fn satisfied_timeouts_leave_nothing_behind() {
    let rt = tokio::runtime::Runtime::new().expect("runtime");

    // 200 dead deadlines spread over ~20 wheel slots, all still ahead
    rt.block_on(async {
        for _ in 0..200 {
            satisfied_timeout(Duration::from_millis(100)).await;
            std::thread::sleep(Duration::from_micros(100));
        }
    });
    let before = tokio::runtime::reactor_wakeups();
    std::thread::sleep(Duration::from_millis(300));
    let woken = tokio::runtime::reactor_wakeups() - before;
    // the one expiry the timerfd was already armed for may still happen
    assert!(
        woken <= 2,
        "{woken} reactor wake-ups for deadlines nobody waits on"
    );

    rt.block_on(async {
        for _ in 0..50_000 {
            satisfied_timeout(Duration::from_secs(5)).await;
        }
    });
    let pending = tokio::runtime::pending_timers();
    assert!(
        pending <= 200,
        "{pending} wheel entries left by 50 000 satisfied timeouts"
    );
}
