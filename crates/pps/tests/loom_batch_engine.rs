//! Model-checked port of the `BatchEngine` drain protocol
//! (`src/xbatch.rs`): the `Mutex<Admission> + Condvar` handshake between
//! `submit` (push, `notify_one`), the workers' pop-one loop, and `Drop`'s
//! shutdown-`notify_all`-join sequence, with two workers.
//!
//! The property under check is **no stranded task**: after the engine is
//! dropped, every submitted task has completed — a worker must drain
//! `pending` to empty before honouring `shutdown`, and a `notify_one` that
//! lands while a worker is busy, or before it first waits, must not leave a
//! task behind. The deliberately-broken variant checks `shutdown` *before*
//! draining (a classic shutdown-races-submit bug) and the checker finds the
//! schedule where submitted work is abandoned.
//!
//! The model keeps the real control flow — pop one task, block only when
//! the queue is empty, exit only on shutdown with an empty queue — and
//! abstracts the matcher scan to a per-worker completion count, returned
//! to the dropping thread. The first worker races every submit and the
//! shutdown; the second is a late starter that enters its loop once
//! shutdown is raised, on the dropping thread before it joins. (The
//! checker explores schedules exhaustively, without partial-order
//! reduction: two workers spawned ahead of the submits exceed its
//! 1 M-schedule budget already for one task, where this shape takes
//! thousands.)

use loom::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

struct Shared {
    queue: Mutex<Admission>,
    cv: Condvar,
}

struct Admission {
    pending: VecDeque<usize>,
    shutdown: bool,
}

/// `worker_loop` / `next_task`: pop one task, block only while the queue
/// is empty, exit on shutdown with an empty queue. Returns the tasks run.
fn worker_loop(shared: &Shared) -> usize {
    let mut completed = 0;
    loop {
        {
            let mut q = shared.queue.lock();
            loop {
                if q.pending.pop_front().is_some() {
                    break;
                }
                if q.shutdown {
                    return completed;
                }
                q = shared.cv.wait(q);
            }
        }
        completed += 1;
    }
}

/// Broken worker: honours shutdown before draining pending work.
fn worker_loop_shutdown_first(shared: &Shared) -> usize {
    let mut completed = 0;
    loop {
        {
            let mut q = shared.queue.lock();
            loop {
                if q.shutdown {
                    return completed; // BUG (deliberate): pending work abandoned
                }
                if q.pending.pop_front().is_some() {
                    break;
                }
                q = shared.cv.wait(q);
            }
        }
        completed += 1;
    }
}

fn new_shared() -> Arc<Shared> {
    Arc::new(Shared {
        queue: Mutex::new(Admission {
            pending: VecDeque::new(),
            shutdown: false,
        }),
        cv: Condvar::new(),
    })
}

/// `BatchEngine::submit`: push and wake one worker.
fn submit(shared: &Shared, task: usize) {
    let mut q = shared.queue.lock();
    q.pending.push_back(task);
    drop(q);
    shared.cv.notify_one();
}

/// Spawn the first worker, submit `submitted` tasks, drop the engine —
/// raise shutdown and wake everyone, run the late second worker, join;
/// returns the tasks the two workers ran.
fn run_engine(worker: fn(&Shared) -> usize, submitted: usize) -> usize {
    let shared = new_shared();
    let s2 = Arc::clone(&shared);
    let first = loom::thread::spawn(move || worker(&s2));
    for task in 0..submitted {
        submit(&shared, task);
    }
    shared.queue.lock().shutdown = true;
    shared.cv.notify_all();
    let late = worker(&shared);
    late + first.join()
}

#[test]
fn drop_never_strands_a_submitted_task() {
    const SUBMITTED: usize = 2;
    let stats = loom::model(|| {
        // every submitted task completed, no matter how the submits, the
        // pops, the single wake-ups and the shutdown interleaved
        assert_eq!(run_engine(worker_loop, SUBMITTED), SUBMITTED);
    });
    assert!(
        stats.schedules >= 1_000,
        "submit/drain/shutdown races need thousands of schedules, got {}",
        stats.schedules
    );
}

#[test]
fn checking_shutdown_before_draining_strands_tasks() {
    const SUBMITTED: usize = 2;
    let msg = loom::check_expect_failure(|| {
        assert_eq!(run_engine(worker_loop_shutdown_first, SUBMITTED), SUBMITTED);
    });
    // the exhibited schedule: both submits land, shutdown is raised, and
    // only then does the first worker wake — both exit with work still
    // queued
    assert!(msg.contains("assertion"), "unexpected failure: {msg}");
}
