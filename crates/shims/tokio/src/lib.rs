//! Offline stand-in for `tokio`, providing exactly the surface this
//! workspace uses: a runtime with `block_on`/`spawn`,
//! `net::{TcpListener, TcpStream, UdpSocket}`, `io` read/write traits plus
//! `duplex`, `sync::{oneshot, watch, Mutex, Semaphore}`, `time::{sleep, timeout}`, and
//! the `select!`/`pin!`/`#[tokio::main]`/`#[tokio::test]` macros.
//!
//! Execution model: an **event-driven reactor** (the private `reactor`
//! module). Spawned
//! tasks are heap futures scheduled by `Waker`s onto a fixed worker pool
//! draining a shared run queue; sockets are non-blocking and registered
//! with edge-triggered interest on one process-wide epoll instance; timers
//! live on a 1 ms hashed wheel whose earliest deadline arms a `timerfd`,
//! so sub-millisecond hedge delays and RTOs fire at their actual deadline
//! rather than a poll-loop tick. The thread count is a constant (one
//! reactor plus `reactor::worker_count()` workers) regardless of how many
//! tasks, connections or timers exist — which lets one process simulate
//! 512-node clusters. `block_on` drives its future on the calling thread
//! with a parker (reactor and workers deliver its wakes by unparking).

pub use tokio_macros::{main, test};

mod reactor;

pub mod runtime {
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};

    struct ThreadWaker {
        thread: std::thread::Thread,
        notified: AtomicBool,
    }

    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.notified.store(true, Ordering::SeqCst);
            self.thread.unpark();
        }
    }

    /// Drive a future to completion on the current thread, parking between
    /// polls until a waker fires.
    pub fn block_on<F: Future>(fut: F) -> F::Output {
        let mut fut: Pin<Box<F>> = Box::pin(fut);
        let waker_impl = Arc::new(ThreadWaker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&waker_impl));
        let mut cx = Context::from_waker(&waker);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    // consume one notification; park only if none arrived
                    // since the poll started (unpark tokens make this safe
                    // against the wake-just-before-park race)
                    if !waker_impl.notified.swap(false, Ordering::SeqCst) {
                        std::thread::park();
                        waker_impl.notified.store(false, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    /// Times the reactor thread has returned from `epoll_wait` since
    /// process start. An idle process — parked accept loops, pending
    /// recvs, distant timers — must not advance this; tests pin the
    /// zero-cost-when-idle property against it.
    pub fn reactor_wakeups() -> u64 {
        crate::reactor::handle().wakeup_count()
    }

    /// How many worker threads run the process's tasks (8, or
    /// `ROAR_RT_WORKERS`).
    pub fn worker_threads() -> usize {
        crate::reactor::worker_count()
    }

    /// Deadlines currently on the timer wheel (test hook: a satisfied
    /// `timeout` must not leave one behind).
    #[doc(hidden)]
    pub fn pending_timers() -> usize {
        crate::reactor::handle().pending_timers()
    }

    /// The shim runtime. Single flavor: all tasks share the reactor's
    /// worker pool, sized once per process (`ROAR_RT_WORKERS`), so "multi
    /// thread" is trivially true and the builder takes no knobs.
    #[derive(Debug)]
    pub struct Runtime {
        _priv: (),
    }

    impl Runtime {
        pub fn new() -> std::io::Result<Runtime> {
            Ok(Runtime { _priv: () })
        }

        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            block_on(fut)
        }
    }

    #[derive(Debug, Default)]
    pub struct Builder {
        _priv: (),
    }

    impl Builder {
        pub fn new_multi_thread() -> Builder {
            Builder { _priv: () }
        }

        pub fn enable_all(self) -> Builder {
            self
        }

        pub fn build(self) -> std::io::Result<Runtime> {
            Runtime::new()
        }
    }
}

pub mod task {
    use std::fmt;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    /// Task failed (panicked). Carries no payload beyond the fact.
    #[derive(Debug)]
    pub struct JoinError {
        _priv: (),
    }

    impl fmt::Display for JoinError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "task panicked")
        }
    }

    impl std::error::Error for JoinError {}

    struct JoinState<T> {
        result: Option<Result<T, JoinError>>,
        waker: Option<Waker>,
    }

    /// Handle to a spawned task; awaiting it yields the task's output.
    pub struct JoinHandle<T> {
        state: Arc<Mutex<JoinState<T>>>,
    }

    impl<T> Unpin for JoinHandle<T> {}

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut st = self.state.lock().expect("join state");
            if let Some(res) = st.result.take() {
                Poll::Ready(res)
            } else {
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    fn finish<T>(state: &Arc<Mutex<JoinState<T>>>, res: Result<T, JoinError>) {
        let mut st = state.lock().expect("join state");
        st.result = Some(res);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }

    /// Catches a panic out of each poll of the wrapped future so a
    /// panicking task surfaces as `Err(JoinError)` on its handle instead
    /// of taking down a pool worker's current task batch.
    struct CatchPanic<F> {
        inner: Pin<Box<F>>,
    }

    impl<F> Unpin for CatchPanic<F> {}

    impl<F: Future> Future for CatchPanic<F> {
        type Output = Result<F::Output, JoinError>;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let inner = self.inner.as_mut();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut cx = Context::from_waker(cx.waker());
                inner.poll(&mut cx)
            })) {
                Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
                Ok(Poll::Pending) => Poll::Pending,
                Err(_) => Poll::Ready(Err(JoinError { _priv: () })),
            }
        }
    }

    /// Spawn a future onto the reactor's worker pool.
    pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let state = Arc::new(Mutex::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = Arc::clone(&state);
        crate::reactor::handle().schedule(Box::pin(async move {
            let res = CatchPanic {
                inner: Box::pin(fut),
            }
            .await;
            finish(&state2, res);
        }));
        JoinHandle { state }
    }
}

pub use task::spawn;

pub mod time {
    use std::fmt;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};
    use std::time::{Duration, Instant};

    /// Future that resolves at a deadline, driven by the reactor's timer
    /// wheel: the first `Pending` poll registers the deadline, the wheel's
    /// `timerfd` fires it, and the stored waker reschedules the task. A
    /// `Sleep` dropped before its deadline (the losing arm of `select!`,
    /// a satisfied `timeout`) takes its entry off the wheel then and
    /// there: from that moment the abandoned deadline holds no memory, no
    /// waker and no claim on the `timerfd`.
    pub struct Sleep {
        deadline: Instant,
        entry: Option<std::sync::Arc<crate::reactor::TimerEntry>>,
    }

    impl fmt::Debug for Sleep {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sleep")
                .field("deadline", &self.deadline)
                .finish()
        }
    }

    impl Unpin for Sleep {}

    impl Future for Sleep {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = self.get_mut();
            if Instant::now() >= this.deadline {
                return Poll::Ready(());
            }
            let deadline = this.deadline;
            let entry = this
                .entry
                .get_or_insert_with(|| crate::reactor::handle().add_timer(deadline));
            if entry.poll_fired(cx) {
                // fired entries have left the wheel: nothing to cancel
                this.entry = None;
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        }
    }

    impl Drop for Sleep {
        fn drop(&mut self) {
            if let Some(entry) = self.entry.take() {
                crate::reactor::handle().cancel_timer(&entry);
            }
        }
    }

    pub fn sleep(d: Duration) -> Sleep {
        Sleep {
            deadline: Instant::now() + d,
            entry: None,
        }
    }

    /// The timeout elapsed before the inner future completed.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Elapsed(());

    impl fmt::Display for Elapsed {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "deadline has elapsed")
        }
    }

    impl std::error::Error for Elapsed {}

    pub struct Timeout<F: Future> {
        fut: Pin<Box<F>>,
        sleep: Sleep,
    }

    impl<F: Future> Unpin for Timeout<F> {}

    impl<F: Future> Future for Timeout<F> {
        type Output = Result<F::Output, Elapsed>;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            if let Poll::Ready(v) = self.fut.as_mut().poll(cx) {
                return Poll::Ready(Ok(v));
            }
            match Pin::new(&mut self.sleep).poll(cx) {
                Poll::Ready(()) => Poll::Ready(Err(Elapsed(()))),
                Poll::Pending => Poll::Pending,
            }
        }
    }

    pub fn timeout<F: Future>(d: Duration, fut: F) -> Timeout<F> {
        Timeout {
            fut: Box::pin(fut),
            sleep: sleep(d),
        }
    }
}

pub mod sync {
    pub mod oneshot {
        use std::fmt;
        use std::future::Future;
        use std::pin::Pin;
        use std::sync::{Arc, Mutex};
        use std::task::{Context, Poll, Waker};

        pub mod error {
            /// The sender was dropped without sending.
            #[derive(Debug, PartialEq, Eq)]
            pub struct RecvError(pub(crate) ());

            impl std::fmt::Display for RecvError {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, "channel closed")
                }
            }

            impl std::error::Error for RecvError {}
        }

        struct Shared<T> {
            value: Option<T>,
            sender_gone: bool,
            receiver_gone: bool,
            waker: Option<Waker>,
        }

        impl<T> fmt::Debug for Shared<T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "oneshot::Shared")
            }
        }

        pub struct Sender<T> {
            shared: Arc<Mutex<Shared<T>>>,
        }

        pub struct Receiver<T> {
            shared: Arc<Mutex<Shared<T>>>,
        }

        impl<T> Unpin for Receiver<T> {}

        pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
            let shared = Arc::new(Mutex::new(Shared {
                value: None,
                sender_gone: false,
                receiver_gone: false,
                waker: None,
            }));
            (
                Sender {
                    shared: Arc::clone(&shared),
                },
                Receiver { shared },
            )
        }

        impl<T> Sender<T> {
            /// Send the value; returns it back if the receiver is gone.
            pub fn send(self, value: T) -> Result<(), T> {
                let mut st = self.shared.lock().expect("oneshot state");
                if st.receiver_gone {
                    return Err(value);
                }
                st.value = Some(value);
                if let Some(w) = st.waker.take() {
                    w.wake();
                }
                Ok(())
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                let mut st = self.shared.lock().expect("oneshot state");
                st.sender_gone = true;
                if let Some(w) = st.waker.take() {
                    w.wake();
                }
            }
        }

        impl<T> Drop for Receiver<T> {
            fn drop(&mut self) {
                self.shared.lock().expect("oneshot state").receiver_gone = true;
            }
        }

        impl<T> Future for Receiver<T> {
            type Output = Result<T, error::RecvError>;

            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let mut st = self.shared.lock().expect("oneshot state");
                if let Some(v) = st.value.take() {
                    return Poll::Ready(Ok(v));
                }
                if st.sender_gone {
                    return Poll::Ready(Err(error::RecvError(())));
                }
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    pub mod watch {
        use std::future::Future;
        use std::ops::Deref;
        use std::pin::Pin;
        use std::sync::{Arc, Mutex, MutexGuard};
        use std::task::{Context, Poll, Waker};

        pub mod error {
            /// Every sender is gone.
            #[derive(Debug, PartialEq, Eq)]
            pub struct RecvError(pub(crate) ());

            impl std::fmt::Display for RecvError {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, "watch channel closed")
                }
            }

            impl std::error::Error for RecvError {}
        }

        struct Shared<T> {
            value: T,
            version: u64,
            senders: usize,
            /// Receivers handed out so far; the next one's id.
            receivers: u64,
            /// One waker per receiver with a pending [`Changed`], keyed by
            /// receiver id. A `Changed` takes its entry along when it is
            /// dropped, so a waiter that gave up (the losing arm of a
            /// `select!` built anew per loop iteration) costs nothing: the
            /// table is bounded by the receivers waiting right now.
            waiters: Vec<(u64, Waker)>,
        }

        impl<T> Shared<T> {
            fn new_receiver(&mut self, shared: &Arc<Mutex<Shared<T>>>) -> Receiver<T> {
                self.receivers += 1;
                Receiver {
                    shared: Arc::clone(shared),
                    seen: self.version,
                    id: self.receivers,
                }
            }

            fn wake_all(&mut self) {
                for (_, w) in self.waiters.drain(..) {
                    w.wake();
                }
            }
        }

        pub struct Sender<T> {
            shared: Arc<Mutex<Shared<T>>>,
        }

        pub struct Receiver<T> {
            shared: Arc<Mutex<Shared<T>>>,
            seen: u64,
            id: u64,
        }

        pub fn channel<T>(init: T) -> (Sender<T>, Receiver<T>) {
            let shared = Arc::new(Mutex::new(Shared {
                value: init,
                version: 0,
                senders: 1,
                receivers: 0,
                waiters: Vec::new(),
            }));
            let rx = shared.lock().expect("watch state").new_receiver(&shared);
            (Sender { shared }, rx)
        }

        impl<T> Sender<T> {
            pub fn send(&self, value: T) -> Result<(), T> {
                let mut st = self.shared.lock().expect("watch state");
                st.value = value;
                st.version += 1;
                st.wake_all();
                Ok(())
            }

            pub fn subscribe(&self) -> Receiver<T> {
                let mut st = self.shared.lock().expect("watch state");
                st.new_receiver(&self.shared)
            }

            /// Receivers with a registered waker (test hook: dropped
            /// waiters must not accumulate).
            #[doc(hidden)]
            pub fn waiters(&self) -> usize {
                self.shared.lock().expect("watch state").waiters.len()
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                let mut st = self.shared.lock().expect("watch state");
                st.senders -= 1;
                if st.senders == 0 {
                    st.wake_all();
                }
            }
        }

        /// Borrow guard over the current value.
        pub struct Ref<'a, T> {
            guard: MutexGuard<'a, Shared<T>>,
        }

        impl<T> Deref for Ref<'_, T> {
            type Target = T;

            fn deref(&self) -> &T {
                &self.guard.value
            }
        }

        impl<T> Receiver<T> {
            pub fn borrow(&self) -> Ref<'_, T> {
                Ref {
                    guard: self.shared.lock().expect("watch state"),
                }
            }

            /// Wait for a version newer than the last one seen.
            pub fn changed(&mut self) -> Changed<'_, T> {
                Changed {
                    rx: self,
                    registered: false,
                }
            }
        }

        impl<T> Clone for Receiver<T> {
            fn clone(&self) -> Self {
                let mut st = self.shared.lock().expect("watch state");
                Receiver {
                    seen: self.seen,
                    ..st.new_receiver(&self.shared)
                }
            }
        }

        pub struct Changed<'a, T> {
            rx: &'a mut Receiver<T>,
            /// Whether this future left a waker in the channel's table.
            registered: bool,
        }

        impl<T> Unpin for Changed<'_, T> {}

        impl<T> Future for Changed<'_, T> {
            type Output = Result<(), error::RecvError>;

            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let mut st = self.rx.shared.lock().expect("watch state");
                if st.version != self.rx.seen {
                    let v = st.version;
                    drop(st);
                    self.rx.seen = v;
                    return Poll::Ready(Ok(()));
                }
                if st.senders == 0 {
                    return Poll::Ready(Err(error::RecvError(())));
                }
                let id = self.rx.id;
                match st.waiters.iter_mut().find(|(rx, _)| *rx == id) {
                    Some((_, w)) => w.clone_from(cx.waker()),
                    None => st.waiters.push((id, cx.waker().clone())),
                }
                drop(st);
                self.registered = true;
                Poll::Pending
            }
        }

        impl<T> Drop for Changed<'_, T> {
            fn drop(&mut self) {
                if self.registered {
                    let mut st = self.rx.shared.lock().expect("watch state");
                    let id = self.rx.id;
                    st.waiters.retain(|(rx, _)| *rx != id);
                }
            }
        }
    }

    mod async_mutex {
        use std::cell::UnsafeCell;
        use std::collections::VecDeque;
        use std::future::Future;
        use std::ops::{Deref, DerefMut};
        use std::pin::Pin;
        use std::sync::Mutex as StdMutex;
        use std::task::{Context, Poll, Waker};

        struct LockState {
            locked: bool,
            waiters: VecDeque<Waker>,
        }

        /// Async mutex: the guard may be held across `.await` points.
        pub struct Mutex<T: ?Sized> {
            state: StdMutex<LockState>,
            value: UnsafeCell<T>,
        }

        // SAFETY: same bounds as std::sync::Mutex — the UnsafeCell is only
        // reached through a guard handed out under the `locked` flag, so
        // sharing the Mutex across threads only ever gives one thread
        // access to the T at a time; T: Send is all that access needs.
        unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
        // SAFETY: see above — &Mutex<T> only exposes T via mutual
        // exclusion, so Sync requires only T: Send, not T: Sync.
        unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

        impl<T> Mutex<T> {
            pub fn new(value: T) -> Self {
                Mutex {
                    state: StdMutex::new(LockState {
                        locked: false,
                        waiters: VecDeque::new(),
                    }),
                    value: UnsafeCell::new(value),
                }
            }
        }

        impl<T: ?Sized> Mutex<T> {
            pub fn lock(&self) -> LockFuture<'_, T> {
                LockFuture { mutex: self }
            }

            /// Take the lock if it is free, without waiting.
            pub fn try_lock(&self) -> Result<MutexGuard<'_, T>, TryLockError> {
                let mut st = self.state.lock().expect("mutex state");
                if st.locked {
                    return Err(TryLockError(()));
                }
                st.locked = true;
                Ok(MutexGuard { mutex: self })
            }
        }

        /// [`Mutex::try_lock`] found the lock held.
        #[derive(Debug)]
        pub struct TryLockError(());

        pub struct LockFuture<'a, T: ?Sized> {
            mutex: &'a Mutex<T>,
        }

        impl<T: ?Sized> Unpin for LockFuture<'_, T> {}

        impl<'a, T: ?Sized> Future for LockFuture<'a, T> {
            type Output = MutexGuard<'a, T>;

            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let mut st = self.mutex.state.lock().expect("mutex state");
                if !st.locked {
                    st.locked = true;
                    Poll::Ready(MutexGuard { mutex: self.mutex })
                } else {
                    st.waiters.push_back(cx.waker().clone());
                    Poll::Pending
                }
            }
        }

        pub struct MutexGuard<'a, T: ?Sized> {
            mutex: &'a Mutex<T>,
        }

        // SAFETY: the guard is an exclusive handle to the T (it moves the
        // logical &mut T between threads when sent), so T: Send suffices —
        // this is what lets the guard be held across .await on a
        // work-stealing runtime.
        unsafe impl<T: ?Sized + Send> Send for MutexGuard<'_, T> {}
        // SAFETY: &MutexGuard only exposes &T, so sharing it across
        // threads needs exactly T: Sync.
        unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

        impl<T: ?Sized> Deref for MutexGuard<'_, T> {
            type Target = T;

            fn deref(&self) -> &T {
                // SAFETY: a guard only exists while `locked` is true, and
                // LockFuture::poll hands out at most one guard per
                // acquisition — exclusive logical ownership for the
                // guard's whole lifetime.
                unsafe { &*self.mutex.value.get() }
            }
        }

        impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
            fn deref_mut(&mut self) -> &mut T {
                // SAFETY: as in Deref — the guard is the unique live
                // handle, and &mut self forbids aliasing through this
                // same guard.
                unsafe { &mut *self.mutex.value.get() }
            }
        }

        impl<T: ?Sized> Drop for MutexGuard<'_, T> {
            fn drop(&mut self) {
                let mut st = self.mutex.state.lock().expect("mutex state");
                st.locked = false;
                if let Some(w) = st.waiters.pop_front() {
                    w.wake();
                }
            }
        }
    }

    pub use async_mutex::{Mutex, MutexGuard, TryLockError};

    mod semaphore {
        use std::collections::VecDeque;
        use std::future::Future;
        use std::pin::Pin;
        use std::sync::Mutex as StdMutex;
        use std::task::{Context, Poll, Waker};

        /// The semaphore was closed. The shim never closes one; the type
        /// keeps `acquire`'s signature the real crate's.
        #[derive(Debug, PartialEq, Eq)]
        pub struct AcquireError(());

        impl std::fmt::Display for AcquireError {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "semaphore closed")
            }
        }

        impl std::error::Error for AcquireError {}

        struct Waiter {
            id: u64,
            waker: Waker,
            /// A released permit was handed to this waiter; its next poll
            /// takes it.
            granted: bool,
        }

        struct State {
            permits: usize,
            next_id: u64,
            waiters: VecDeque<Waiter>,
        }

        impl State {
            /// Give a permit back: to the oldest waiter not yet granted
            /// one, or to the free count when nobody waits.
            fn release(&mut self) {
                match self.waiters.iter_mut().find(|w| !w.granted) {
                    Some(w) => {
                        w.granted = true;
                        w.waker.wake_by_ref();
                    }
                    None => self.permits += 1,
                }
            }

            /// Take waiter `id` off the queue; whether it held a grant.
            fn dequeue(&mut self, id: u64) -> bool {
                let at = self.waiters.iter().position(|w| w.id == id);
                at.and_then(|at| self.waiters.remove(at))
                    .is_some_and(|w| w.granted)
            }
        }

        /// A counting semaphore served first come, first served: a released
        /// permit goes straight to the oldest waiting `acquire`, so a stream
        /// of new arrivals cannot overtake it.
        pub struct Semaphore {
            state: StdMutex<State>,
        }

        impl Semaphore {
            pub fn new(permits: usize) -> Self {
                Semaphore {
                    state: StdMutex::new(State {
                        permits,
                        next_id: 0,
                        waiters: VecDeque::new(),
                    }),
                }
            }

            pub fn available_permits(&self) -> usize {
                self.state.lock().expect("semaphore state").permits
            }

            /// Wait for a permit; it is returned when the permit drops.
            /// Dropping a waiting `acquire` leaves the queue (passing on a
            /// permit it was already handed).
            pub fn acquire(&self) -> Acquire<'_> {
                Acquire {
                    sem: self,
                    id: None,
                }
            }
        }

        pub struct Acquire<'a> {
            sem: &'a Semaphore,
            /// This acquire's place in the queue, once it had to wait.
            id: Option<u64>,
        }

        impl<'a> Future for Acquire<'a> {
            type Output = Result<SemaphorePermit<'a>, AcquireError>;

            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                let sem = self.sem;
                let mut st = sem.state.lock().expect("semaphore state");
                match self.id {
                    None if st.permits > 0 && st.waiters.is_empty() => st.permits -= 1,
                    None => {
                        let id = st.next_id;
                        st.next_id += 1;
                        st.waiters.push_back(Waiter {
                            id,
                            waker: cx.waker().clone(),
                            granted: false,
                        });
                        self.id = Some(id);
                        return Poll::Pending;
                    }
                    Some(id) => {
                        let w = st.waiters.iter_mut().find(|w| w.id == id);
                        let w = w.expect("a waiting acquire is queued");
                        if !w.granted {
                            w.waker.clone_from(cx.waker());
                            return Poll::Pending;
                        }
                        st.dequeue(id);
                        self.id = None;
                    }
                }
                Poll::Ready(Ok(SemaphorePermit { sem }))
            }
        }

        impl Drop for Acquire<'_> {
            fn drop(&mut self) {
                if let Some(id) = self.id {
                    let mut st = self.sem.state.lock().expect("semaphore state");
                    if st.dequeue(id) {
                        st.release();
                    }
                }
            }
        }

        pub struct SemaphorePermit<'a> {
            sem: &'a Semaphore,
        }

        impl Drop for SemaphorePermit<'_> {
            fn drop(&mut self) {
                self.sem.state.lock().expect("semaphore state").release();
            }
        }
    }

    pub use semaphore::{Acquire, AcquireError, Semaphore, SemaphorePermit};
}

pub mod io;
pub mod net;

/// Support types for the `select!` macro expansion.
pub mod macros_support {
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    pub enum Either<A, B> {
        Left(A),
        Right(B),
    }

    pub struct Race2<F1: Future, F2: Future> {
        f1: Pin<Box<F1>>,
        f2: Pin<Box<F2>>,
    }

    impl<F1: Future, F2: Future> Unpin for Race2<F1, F2> {}

    impl<F1: Future, F2: Future> Future for Race2<F1, F2> {
        type Output = Either<F1::Output, F2::Output>;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            if let Poll::Ready(v) = self.f1.as_mut().poll(cx) {
                return Poll::Ready(Either::Left(v));
            }
            if let Poll::Ready(v) = self.f2.as_mut().poll(cx) {
                return Poll::Ready(Either::Right(v));
            }
            Poll::Pending
        }
    }

    /// Race two futures; first ready wins (left-biased on simultaneous
    /// readiness).
    pub fn race2<F1: Future, F2: Future>(f1: F1, f2: F2) -> Race2<F1, F2> {
        Race2 {
            f1: Box::pin(f1),
            f2: Box::pin(f2),
        }
    }
}

/// Two-branch `select!` — the only arity this workspace uses. Branches are
/// raced left-biased; the losing future is dropped (same cancellation
/// semantics callers rely on from upstream tokio).
#[macro_export]
macro_rules! select {
    ($p1:pat = $e1:expr => $b1:block $p2:pat = $e2:expr => $b2:block) => {
        match $crate::macros_support::race2($e1, $e2).await {
            $crate::macros_support::Either::Left($p1) => $b1,
            $crate::macros_support::Either::Right($p2) => $b2,
        }
    };
    ($p1:pat = $e1:expr => $b1:expr, $p2:pat = $e2:expr => $b2:expr $(,)?) => {
        match $crate::macros_support::race2($e1, $e2).await {
            $crate::macros_support::Either::Left($p1) => $b1,
            $crate::macros_support::Either::Right($p2) => $b2,
        }
    };
}

/// Shim `pin!`: every leaf future in this shim is `Unpin`, so pinning
/// reduces to a rebinding that prevents moves by shadowing.
#[macro_export]
macro_rules! pin {
    ($($x:ident),* $(,)?) => {
        $(let mut $x = $x;)*
    };
}
