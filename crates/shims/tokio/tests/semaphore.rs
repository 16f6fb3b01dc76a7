//! `sync::Semaphore`: a bounded number of holders, served in arrival order,
//! and no permit lost to a waiter that gives up.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;
use tokio::sync::{Acquire, Semaphore, SemaphorePermit};

fn poll<'a>(a: &mut Acquire<'a>) -> Option<SemaphorePermit<'a>> {
    let mut cx = Context::from_waker(Waker::noop());
    match Pin::new(a).poll(&mut cx) {
        Poll::Ready(permit) => Some(permit.expect("never closed")),
        Poll::Pending => None,
    }
}

#[test]
fn released_permits_go_to_waiters_in_arrival_order() {
    let sem = Semaphore::new(1);
    let held = poll(&mut sem.acquire()).expect("a free permit");
    let (mut first, mut second) = (sem.acquire(), sem.acquire());
    assert!(poll(&mut first).is_none() && poll(&mut second).is_none());
    drop(held);
    // a newcomer does not overtake the queue, nor does the second waiter
    let mut late = sem.acquire();
    assert!(poll(&mut late).is_none() && poll(&mut second).is_none());
    let p = poll(&mut first).expect("the oldest waiter was handed the permit");
    drop(p);
    assert!(poll(&mut late).is_none());
    drop(poll(&mut second).expect("second in line"));
    drop(poll(&mut late).expect("last in line"));
    assert_eq!(sem.available_permits(), 1);
}

#[test]
fn a_waiter_that_gives_up_loses_no_permit() {
    let sem = Semaphore::new(1);
    let held = poll(&mut sem.acquire()).expect("a free permit");
    let (mut granted, mut queued, mut next) = (sem.acquire(), sem.acquire(), sem.acquire());
    for a in [&mut granted, &mut queued, &mut next] {
        assert!(poll(a).is_none());
    }
    drop(held);
    // handed the permit, then dropped before taking it: it passes it on,
    // past a waiter that left the queue without one
    drop(queued);
    drop(granted);
    drop(poll(&mut next).expect("the permit was passed on"));
    assert_eq!(sem.available_permits(), 1);
}

#[test]
fn holders_never_exceed_the_permits() {
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    let sem = Arc::new(Semaphore::new(3));
    let (inside, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    rt.block_on(async {
        let tasks: Vec<_> = (0..24)
            .map(|_| {
                let (sem, inside, peak) = (sem.clone(), inside.clone(), peak.clone());
                tokio::spawn(async move {
                    let _permit = sem.acquire().await.expect("never closed");
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    tokio::time::sleep(Duration::from_millis(2)).await;
                    inside.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in tasks {
            t.await.expect("join");
        }
    });
    assert_eq!(peak.load(Ordering::SeqCst), 3);
    assert_eq!(sem.available_permits(), 3);
}
