//! Model-checked port of the `Adaptive` policy's window-slot protocol
//! (`src/transport/congestion.rs`): `Adaptive::admit`'s
//! claim-under-the-lock discipline, the signal-not-transfer wakeup, the
//! re-wake on the cancellation path, and `WindowGuard`'s RAII release.
//!
//! The property under check is **no stranded slot**: a wake is only a
//! permission to retry — the slot itself is claimed under the lock by a
//! live waiter — so a waiter that is cancelled at the exact moment it was
//! woken must pass the wake on (`nudge_waiters`), or a free slot sits idle
//! while requests still queue. The deliberately-broken variant cancels
//! without nudging; the checker finds the schedule where the second waiter
//! waits forever (a deadlock).
//!
//! To keep the schedule space exhaustively checkable, the model starts at
//! the critical (reachable) configuration rather than replaying the
//! queue-up phase: one slot held, waiters A and B already queued, wakeups
//! not yet fired. Wakeups are per-waiter flags under the window mutex +
//! condvar broadcast, standing in for the per-waiter oneshot channels;
//! cancellation (a deadline firing between wake and claim) is a
//! [`loom::nondet_bool`] environment choice on waiter A.

use loom::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

const WAITERS: usize = 2;

struct Win {
    in_flight: usize,
    cap: usize,
    /// FIFO of queued waiter ids; the front is popped when woken (the real
    /// code pops the waiter's oneshot tx and fires it).
    queue: VecDeque<usize>,
    /// Fired-wakeup flag per waiter, the oneshot rx stand-in.
    woken: [bool; WAITERS],
}

struct Window {
    st: Mutex<Win>,
    cv: Condvar,
}

/// `PeerCc::wake_admissible`: if the window admits another request, pop
/// the queue front and fire its wakeup.
fn wake_admissible(w: &mut Win) -> bool {
    if w.in_flight < w.cap {
        if let Some(id) = w.queue.pop_front() {
            w.woken[id] = true;
            return true;
        }
    }
    false
}

/// `WindowGuard`: dropping it releases the slot and wakes the queue.
struct Guard {
    win: Arc<Window>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let mut w = self.win.st.lock();
        w.in_flight = w.in_flight.saturating_sub(1);
        if wake_admissible(&mut w) {
            drop(w);
            self.win.cv.notify_all();
        }
    }
}

/// `nudge_waiters`: a waiter bowing out passes its wake on.
fn nudge_waiters(win: &Window) {
    let mut w = win.st.lock();
    if wake_admissible(&mut w) {
        drop(w);
        win.cv.notify_all();
    }
}

/// The post-queue half of `Adaptive::admit` for waiter `me`: wait for the
/// wakeup, maybe get cancelled (deadline fired between wake and claim),
/// else claim the slot under the lock. Returns whether a slot was
/// acquired (and then released via the guard's Drop).
fn woken_waiter(win: &Arc<Window>, me: usize, cancellable: bool, nudge_on_cancel: bool) -> bool {
    {
        let mut w = win.st.lock();
        while !w.woken[me] {
            w = win.cv.wait(w);
        }
    }
    if cancellable && loom::nondet_bool() {
        if nudge_on_cancel {
            nudge_waiters(win);
        }
        // BUG when `nudge_on_cancel` is false (deliberate): the wake spent
        // on this waiter is silently dropped
        return false;
    }
    let guard = {
        let mut w = win.st.lock();
        // the wake is a signal, not a transfer: the claim happens here,
        // under the lock, by this live waiter
        assert!(
            w.in_flight < w.cap,
            "woken waiter found no free slot (cap {}, in-flight {})",
            w.cap,
            w.in_flight
        );
        w.in_flight += 1;
        Guard {
            win: Arc::clone(win),
        }
    };
    drop(guard); // RAII release wakes the next queued waiter
    true
}

/// One slot held, A and B queued behind it. The holder releases, waiter A
/// may be cancelled right after its wake fires, and in every interleaving
/// every claimable slot is claimed — nobody waits forever. Waiter B runs
/// on the root thread: the DFS explores every interleaving of N threads
/// without partial-order reduction, so keeping the model at two threads is
/// what keeps exhaustive exploration cheap.
fn scenario(nudge_on_cancel: bool) {
    let win = Arc::new(Window {
        st: Mutex::new(Win {
            in_flight: 1, // the holder's slot
            cap: 1,
            queue: VecDeque::from([0, 1]),
            woken: [false; WAITERS],
        }),
        cv: Condvar::new(),
    });

    // waiter A — the queue front, first woken — races cancellation
    let w2 = Arc::clone(&win);
    let a = loom::thread::spawn(move || woken_waiter(&w2, 0, true, nudge_on_cancel));

    // the holder's guard drops: release + wake the queue front
    drop(Guard {
        win: Arc::clone(&win),
    });

    // waiter B — the waiter a stranded slot would leave stuck
    let b_acquired = woken_waiter(&win, 1, false, nudge_on_cancel);
    let a_acquired = a.join();

    let w = win.st.lock();
    assert_eq!(w.in_flight, 0, "every RAII guard released its slot");
    assert!(
        a_acquired || b_acquired,
        "a released slot must be claimed by someone"
    );
}

#[test]
fn cancelled_waiter_never_strands_the_slot() {
    let stats = loom::model(|| scenario(true));
    assert!(
        stats.schedules >= 4,
        "wake/cancel races need several schedules, got {}",
        stats.schedules
    );
}

#[test]
fn cancelling_without_nudging_strands_the_slot() {
    let msg = loom::check_expect_failure(|| scenario(false));
    // the exhibited schedule: waiter A is woken, its deadline fires, it
    // bows out silently — waiter B is queued on a free slot forever
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}
