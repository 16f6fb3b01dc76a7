//! Model-checked port of `DataNode::update_store` (`src/node.rs`): the
//! compare-and-swap loop every store writer — a `Store` batch, a
//! `SetCoverage` narrowing — runs against the node's state lock.
//!
//! A writer snapshots the store's `Arc` under the lock, builds the next
//! store from a clone *outside* it, then re-takes the lock and swaps its
//! result in only if the store is still the one it started from
//! (`Arc::ptr_eq`); otherwise it starts over from the winner's store.
//!
//! The properties under check, on every interleaving:
//! - **commit-order serialisability** — the final store equals the
//!   initial one with every update applied once, in the order the swaps
//!   landed: no lost update (a batch overwritten by a writer that started
//!   before it), no resurrected record (an id a narrowing dropped,
//!   brought back by a writer that started before it);
//! - **progress** — a writer retries only because another writer
//!   committed in between, so no writer loops more often than the others
//!   commit.
//!
//! The deliberately-broken variant swaps without the `ptr_eq` check; the
//! checker finds the schedule where an update is lost.
//!
//! Size: two `Store`-style writers and one `SetCoverage`-style retainer —
//! three model threads — explore exhaustively in about 33 000 schedules;
//! a fourth writer overruns the checker's default budget of one million.

use loom::sync::Mutex;
use std::sync::Arc;

/// The part of `NodeState` the loop touches: the store behind its `Arc`,
/// plus a log of which update each swap committed (model bookkeeping, the
/// order to replay against).
struct State {
    store: Arc<Vec<u64>>,
    commits: Vec<usize>,
}

#[derive(Clone, Copy)]
enum Update {
    /// `Store`: merge one id into the ascending, unique ids.
    Insert(u64),
    /// `SetCoverage`: keep only the ids at or below the bound.
    RetainUpTo(u64),
}

impl Update {
    fn apply(self, ids: &mut Vec<u64>) {
        match self {
            Update::Insert(id) => {
                if let Err(at) = ids.binary_search(&id) {
                    ids.insert(at, id);
                }
            }
            Update::RetainUpTo(bound) => ids.retain(|&id| id <= bound),
        }
    }
}

/// `update_store` for update number `me`: clone → update → lock →
/// compare → swap or retry. Returns how many times it started over.
fn update_store(state: &Mutex<State>, updates: &[Update], me: usize, check_ptr: bool) -> usize {
    let mut base = Arc::clone(&state.lock().store);
    let mut retries = 0;
    loop {
        let mut next = Vec::clone(&base);
        updates[me].apply(&mut next);
        let mut st = state.lock();
        // BUG when `check_ptr` is false (deliberate): a writer that lost
        // the race overwrites the winner's store with its stale result
        if !check_ptr || Arc::ptr_eq(&st.store, &base) {
            st.store = Arc::new(next);
            st.commits.push(me);
            return retries;
        }
        base = Arc::clone(&st.store);
        retries += 1;
    }
}

const INITIAL: [u64; 3] = [10, 20, 30];

/// Two writers insert 15 and 40 while the retainer drops everything above
/// 25 — which covers 30 from the start and 40 if that insert lands first.
fn scenario(check_ptr: bool) {
    let updates = [
        Update::RetainUpTo(25),
        Update::Insert(15),
        Update::Insert(40),
    ];
    let state = Arc::new(Mutex::new(State {
        store: Arc::new(INITIAL.to_vec()),
        commits: Vec::new(),
    }));
    let writers: Vec<_> = (1..updates.len())
        .map(|me| {
            let state = Arc::clone(&state);
            loom::thread::spawn(move || update_store(&state, &updates, me, check_ptr))
        })
        .collect();
    let mut retries = vec![update_store(&state, &updates, 0, check_ptr)];
    retries.extend(writers.into_iter().map(|w| w.join()));

    let st = state.lock();
    let mut want = INITIAL.to_vec();
    for &me in &st.commits {
        updates[me].apply(&mut want);
    }
    assert_eq!(st.commits.len(), updates.len(), "every writer commits once");
    assert_eq!(
        *st.store, want,
        "final store must be the updates replayed in commit order {:?}",
        st.commits
    );
    let others = updates.len() - 1;
    for (me, &tries) in retries.iter().enumerate() {
        assert!(
            tries <= others,
            "writer {me} retried {tries} times; only {others} others commit"
        );
    }
}

#[test]
fn concurrent_writers_serialise_in_commit_order() {
    let stats = loom::model(|| scenario(true));
    assert!(
        stats.schedules >= 1_000,
        "three racing writers need thousands of schedules, got {}",
        stats.schedules
    );
}

#[test]
fn swapping_without_pointer_check_loses_updates() {
    let msg = loom::check_expect_failure(|| scenario(false));
    assert!(msg.contains("commit order"), "unexpected failure: {msg}");
}
