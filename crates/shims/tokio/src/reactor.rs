//! The event-driven core of the shim runtime: one epoll-polling reactor
//! thread, a hashed timer wheel, and a fixed pool of worker threads draining
//! a shared run queue.
//!
//! This replaces the seed's thread-per-task executor. Tasks are heap
//! state machines scheduled by `Waker`s; I/O leaf futures register
//! edge-triggered interest on non-blocking sockets and are woken by the
//! reactor when the kernel reports readiness; `sleep`/`timeout` deadlines
//! live on a 1 ms hashed wheel whose next firing arms a `timerfd`, so
//! sub-tick delays are not quantized. An idle cluster — parked accept
//! loops, pending UDP recvs, distant RTO timers — costs **zero** reactor
//! wakeups ([`Reactor::wakeups`] is exported for tests to pin exactly
//! that).
//!
//! The thread budget is fixed: 1 reactor + [`worker_count`] workers,
//! however many tasks, sockets and timers exist.

use std::collections::HashMap;
use std::future::Future;
use std::io;
use std::os::fd::RawFd;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Raw Linux bindings for the handful of syscalls the reactor needs. The
/// workspace vendors no external crates, so these are declared directly
/// against the libc the std library already links.
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const TFD_CLOEXEC: c_int = 0o2000000;
    pub const TFD_NONBLOCK: c_int = 0o4000;
    pub const CLOCK_MONOTONIC: c_int = 1;

    /// `struct epoll_event`; packed on x86-64 (`__EPOLL_PACKED`).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    #[repr(C)]
    pub struct Itimerspec {
        pub it_interval: Timespec,
        pub it_value: Timespec,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
        pub fn timerfd_settime(
            fd: c_int,
            flags: c_int,
            new_value: *const Itimerspec,
            old_value: *mut Itimerspec,
        ) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

// ---- task scheduling --------------------------------------------------------

const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// A spawned task: a boxed future plus a scheduling state machine. The
/// task's `Waker` is the task itself (`Wake` impl); waking pushes it onto
/// the run queue exactly once however many wakers fire concurrently.
pub(crate) struct Task {
    state: AtomicU8,
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
}

impl Task {
    fn new(future: Pin<Box<dyn Future<Output = ()> + Send>>) -> Arc<Task> {
        Arc::new(Task {
            state: AtomicU8::new(IDLE),
            future: Mutex::new(Some(future)),
        })
    }

    /// Poll the future once. Called only by workers, with the task already
    /// transitioned to `RUNNING`.
    fn run(self: &Arc<Task>) {
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        let mut slot = self.future.lock().expect("task future");
        let Some(fut) = slot.as_mut() else {
            return; // already completed
        };
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                *slot = None;
                self.state.store(DONE, Ordering::Release);
            }
            Poll::Pending => {
                drop(slot);
                // a wake that raced the poll set NOTIFIED; honour it
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    self.state.store(QUEUED, Ordering::Release);
                    handle().pool.push(Arc::clone(self));
                }
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        handle().pool.push(Arc::clone(self));
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED / NOTIFIED: a wake is already pending; DONE: no-op
                _ => return,
            }
        }
    }
}

/// The shared run queue the worker pool drains.
struct Pool {
    queue: Mutex<std::collections::VecDeque<Arc<Task>>>,
    available: Condvar,
}

impl Pool {
    fn push(&self, task: Arc<Task>) {
        self.queue.lock().expect("run queue").push_back(task);
        self.available.notify_one();
    }

    fn pop(&self) -> Arc<Task> {
        let mut q = self.queue.lock().expect("run queue");
        loop {
            if let Some(task) = q.pop_front() {
                return task;
            }
            q = self.available.wait(q).expect("run queue");
        }
    }
}

/// Fixed worker-pool width: enough parallel slots that a handful of
/// blocking request handlers (tests intentionally park inside `Handler`
/// closures) cannot starve the timers and recv loops, small enough that a
/// 512-node cluster stays a one-digit-thread process. Overridable with
/// `ROAR_RT_WORKERS` for experiments.
pub(crate) fn worker_count() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("ROAR_RT_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(8)
    })
}

// ---- I/O sources ------------------------------------------------------------

const READ_READY: u8 = 0b01;
const WRITE_READY: u8 = 0b10;

pub(crate) enum Dir {
    Read,
    Write,
}

struct SourceState {
    /// Readiness observed since the last `WouldBlock` in each direction.
    /// Seeded all-ready at registration: edge-triggered interest only
    /// reports *transitions*, so anything that was already readable or
    /// writable when registered must be discovered by one syscall attempt.
    ready: u8,
    read_wakers: Vec<Waker>,
    write_wakers: Vec<Waker>,
}

/// One registered file descriptor. Both split halves of a stream share one
/// source (one epoll registration per socket).
pub(crate) struct Source {
    fd: RawFd,
    token: u64,
    state: Mutex<SourceState>,
}

impl Source {
    /// Drive one non-blocking syscall attempt against the readiness
    /// protocol: retry while the direction is marked ready, park the waker
    /// otherwise. The readiness flag and the waker slot are guarded by one
    /// mutex — the same one the reactor takes to deliver events — so a
    /// readiness edge can never fall between the failed syscall and the
    /// waker store.
    pub(crate) fn poll_io<T>(
        &self,
        dir: Dir,
        cx: &mut Context<'_>,
        mut attempt: impl FnMut() -> io::Result<T>,
    ) -> Poll<io::Result<T>> {
        let bit = match dir {
            Dir::Read => READ_READY,
            Dir::Write => WRITE_READY,
        };
        loop {
            match attempt() {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    let mut st = self.state.lock().expect("source state");
                    if st.ready & bit != 0 {
                        // an edge arrived since (or before) the attempt;
                        // consume it and retry the syscall
                        st.ready &= !bit;
                        continue;
                    }
                    let wakers = match dir {
                        Dir::Read => &mut st.read_wakers,
                        Dir::Write => &mut st.write_wakers,
                    };
                    if !wakers.iter().any(|w| w.will_wake(cx.waker())) {
                        wakers.push(cx.waker().clone());
                    }
                    return Poll::Pending;
                }
                res => return Poll::Ready(res),
            }
        }
    }
}

/// RAII registration handle: deregisters from the epoll set on drop.
pub(crate) struct Registration {
    pub(crate) source: Arc<Source>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        handle().deregister(&self.source);
    }
}

// ---- timer wheel ------------------------------------------------------------

/// Wheel geometry: 1 ms ticks, ~1 s per lap. Entries farther out than one
/// lap stay in their slot across laps (classic hashed wheel); the per-slot
/// cached minimum keeps the `timerfd` armed at the true earliest deadline,
/// so long RTO timers cause no extra wakeups while they are distant.
///
/// A cancelled deadline (a `Sleep` dropped early: the losing arm of
/// `select!`, a satisfied `timeout`) costs nothing from then on: its entry
/// leaves its slot and releases its waker at once, and the slot minimum
/// forgets it, so the `timerfd` is never re-armed for it. (If it was the
/// deadline the `timerfd` is armed for *right now*, that one expiry still
/// happens — cheaper than waking the reactor to disarm it.)
///
/// Lock order: wheel → entry, never the reverse (`advance` locks entries
/// while it holds the wheel).
const WHEEL_SLOTS: usize = 1024;
const TICK_MS: u64 = 1;

struct TimerState {
    waker: Option<Waker>,
    fired: bool,
}

/// One pending deadline. Shared between its [`crate::time::Sleep`] future
/// (which stores the waker and observes `fired`) and the wheel (which
/// fires it, or gives it up when the future cancels).
pub(crate) struct TimerEntry {
    deadline: Instant,
    /// The wheel slot holding this entry until it fires or is cancelled.
    slot: usize,
    state: Mutex<TimerState>,
}

impl TimerEntry {
    /// True once the wheel fired this entry.
    pub(crate) fn poll_fired(&self, cx: &mut Context<'_>) -> bool {
        let mut st = self.state.lock().expect("timer state");
        if st.fired {
            return true;
        }
        st.waker = Some(cx.waker().clone());
        false
    }
}

struct TimerWheel {
    slots: Vec<Vec<Arc<TimerEntry>>>,
    /// Cached earliest deadline per slot (`None` = empty); scanned to arm
    /// the timerfd.
    slot_min: Vec<Option<Instant>>,
    /// Next tick index (ms since `epoch`) to process.
    cursor: u64,
    epoch: Instant,
}

impl TimerWheel {
    fn new(epoch: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            slot_min: vec![None; WHEEL_SLOTS],
            cursor: 0,
            epoch,
        }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_millis() as u64 / TICK_MS
    }

    fn insert(&mut self, deadline: Instant) -> Arc<TimerEntry> {
        let tick = self.tick_of(deadline).max(self.cursor);
        let slot = (tick % WHEEL_SLOTS as u64) as usize;
        let entry = Arc::new(TimerEntry {
            deadline,
            slot,
            state: Mutex::new(TimerState {
                waker: None,
                fired: false,
            }),
        });
        self.slots[slot].push(Arc::clone(&entry));
        if self.slot_min[slot].is_none_or(|m| deadline < m) {
            self.slot_min[slot] = Some(deadline);
        }
        entry
    }

    /// Take a cancelled entry out of its slot (a fired one has left
    /// already). The caller holds the wheel lock, so `advance` is not
    /// half-way through the slot: the entry is either there or fired.
    fn remove(&mut self, entry: &Arc<TimerEntry>) {
        let slot = &mut self.slots[entry.slot];
        let Some(i) = slot.iter().position(|e| Arc::ptr_eq(e, entry)) else {
            return;
        };
        slot.swap_remove(i);
        if self.slot_min[entry.slot] == Some(entry.deadline) {
            self.slot_min[entry.slot] = slot.iter().map(|e| e.deadline).min();
        }
    }

    /// Earliest pending deadline across the wheel.
    fn next_deadline(&self) -> Option<Instant> {
        self.slot_min.iter().flatten().min().copied()
    }

    /// Fire everything due at `now`. The current slot is re-examined on
    /// every pass (entries due later in the current tick stay until their
    /// exact deadline — firing is never early); the cursor only advances
    /// over fully elapsed ticks.
    fn advance(&mut self, now: Instant) {
        let now_tick = self.tick_of(now);
        loop {
            let slot = (self.cursor % WHEEL_SLOTS as u64) as usize;
            if self.slot_min[slot].is_some_and(|m| m <= now) {
                let entries = std::mem::take(&mut self.slots[slot]);
                let mut min: Option<Instant> = None;
                for entry in entries {
                    let mut st = entry.state.lock().expect("timer state");
                    if entry.deadline <= now {
                        st.fired = true;
                        if let Some(w) = st.waker.take() {
                            w.wake();
                        }
                    } else {
                        let d = entry.deadline;
                        drop(st);
                        if min.is_none_or(|m| d < m) {
                            min = Some(d);
                        }
                        self.slots[slot].push(entry);
                    }
                }
                self.slot_min[slot] = min;
            }
            if self.cursor < now_tick {
                self.cursor += 1;
            } else {
                return;
            }
        }
    }
}

// ---- the reactor ------------------------------------------------------------

const WAKE_TOKEN: u64 = 0;
const TIMER_TOKEN: u64 = 1;
const FIRST_SOURCE_TOKEN: u64 = 2;

pub(crate) struct Reactor {
    epfd: RawFd,
    wake_fd: RawFd,
    timer_fd: RawFd,
    sources: Mutex<HashMap<u64, Arc<Source>>>,
    next_token: AtomicU64,
    timers: Mutex<TimerWheel>,
    /// Deadline (ns since the wheel epoch) the timerfd is currently armed
    /// for; `u64::MAX` when disarmed. Timer inserts earlier than this kick
    /// the eventfd so the reactor re-arms.
    armed_ns: AtomicU64,
    epoch: Instant,
    /// Times the reactor came back from `epoll_wait` — the observable
    /// "wakeup" cost of the process. Idle clusters must not advance this.
    wakeups: AtomicU64,
    pool: Pool,
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

pub(crate) fn handle() -> &'static Reactor {
    static REACTOR: OnceLock<&'static Reactor> = OnceLock::new();
    REACTOR.get_or_init(|| {
        let r: &'static Reactor = Box::leak(Box::new(Reactor::new().expect("init reactor")));
        std::thread::Builder::new()
            .name("roar-reactor".into())
            .spawn(move || r.run())
            .expect("spawn reactor thread");
        for i in 0..worker_count() {
            std::thread::Builder::new()
                .name(format!("roar-rt-w{i}"))
                .spawn(move || loop {
                    let task = r.pool.pop();
                    task.state.store(RUNNING, Ordering::Release);
                    // a panicking future is caught by the spawn wrapper;
                    // this net only guards the scheduler itself
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run()));
                })
                .expect("spawn worker thread");
        }
        r
    })
}

impl Reactor {
    fn new() -> io::Result<Reactor> {
        // SAFETY: plain syscall with no pointer arguments; the returned fd
        // is checked before use.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        // SAFETY: plain syscall with no pointer arguments; fd checked.
        let wake_fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if wake_fd < 0 {
            return Err(last_os_error());
        }
        // SAFETY: plain syscall with no pointer arguments; fd checked.
        let timer_fd = unsafe {
            sys::timerfd_create(sys::CLOCK_MONOTONIC, sys::TFD_CLOEXEC | sys::TFD_NONBLOCK)
        };
        if timer_fd < 0 {
            return Err(last_os_error());
        }
        let epoch = Instant::now();
        let reactor = Reactor {
            epfd,
            wake_fd,
            timer_fd,
            sources: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(FIRST_SOURCE_TOKEN),
            timers: Mutex::new(TimerWheel::new(epoch)),
            armed_ns: AtomicU64::new(u64::MAX),
            epoch,
            wakeups: AtomicU64::new(0),
            pool: Pool {
                queue: Mutex::new(std::collections::VecDeque::new()),
                available: Condvar::new(),
            },
        };
        reactor.epoll_add(wake_fd, WAKE_TOKEN, sys::EPOLLIN)?;
        reactor.epoll_add(timer_fd, TIMER_TOKEN, sys::EPOLLIN)?;
        Ok(reactor)
    }

    fn epoll_add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: events | sys::EPOLLET,
            data: token,
        };
        // SAFETY: `ev` is a live, initialised stack value for the whole
        // call; the kernel copies it before returning.
        if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Register a non-blocking fd with edge-triggered read+write interest.
    pub(crate) fn register(&self, fd: RawFd) -> io::Result<Registration> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let source = Arc::new(Source {
            fd,
            token,
            state: Mutex::new(SourceState {
                ready: READ_READY | WRITE_READY,
                read_wakers: Vec::new(),
                write_wakers: Vec::new(),
            }),
        });
        self.sources
            .lock()
            .expect("sources")
            .insert(token, Arc::clone(&source));
        if let Err(e) = self.epoll_add(fd, token, sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP) {
            self.sources.lock().expect("sources").remove(&token);
            return Err(e);
        }
        Ok(Registration { source })
    }

    fn deregister(&self, source: &Source) {
        // the fd may already be closed by the owner's drop order; EPOLL_CTL_DEL
        // failure is then expected and harmless
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` is a live stack value; a stale/closed fd makes the
        // call fail with EBADF, which is benign here (see above).
        unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, source.fd, &mut ev) };
        self.sources.lock().expect("sources").remove(&source.token);
    }

    /// Register a deadline on the wheel; wakes the reactor if it now needs
    /// to fire earlier than it planned to.
    pub(crate) fn add_timer(&self, deadline: Instant) -> Arc<TimerEntry> {
        let entry = self.timers.lock().expect("wheel").insert(deadline);
        let deadline_ns = deadline
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        if deadline_ns < self.armed_ns.load(Ordering::Acquire) {
            self.notify();
        }
        entry
    }

    /// Give up a deadline nobody waits on any more. Takes only the wheel
    /// lock (see the lock order above).
    pub(crate) fn cancel_timer(&self, entry: &Arc<TimerEntry>) {
        self.timers.lock().expect("wheel").remove(entry);
    }

    /// Deadlines on the wheel (exported via `runtime::pending_timers`).
    pub(crate) fn pending_timers(&self) -> usize {
        let wheel = self.timers.lock().expect("wheel");
        wheel.slots.iter().map(Vec::len).sum()
    }

    fn notify(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live stack u64 to an
        // eventfd owned by self (never closed while the reactor lives).
        unsafe {
            sys::write(self.wake_fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Spawn a task onto the run queue.
    pub(crate) fn schedule(&self, future: Pin<Box<dyn Future<Output = ()> + Send>>) {
        let task = Task::new(future);
        task.state.store(QUEUED, Ordering::Release);
        self.pool.push(task);
    }

    /// Reactor wakeups so far (exported via `runtime::reactor_wakeups`).
    pub(crate) fn wakeup_count(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    fn drain_fd(&self, fd: RawFd) {
        let mut buf = [0u8; 8];
        loop {
            // SAFETY: reads at most 8 bytes into an 8-byte stack buffer;
            // both fds drained here are non-blocking and owned by self.
            let n = unsafe { sys::read(fd, buf.as_mut_ptr().cast(), 8) };
            if n <= 0 {
                return;
            }
        }
    }

    /// Arm the timerfd for the wheel's earliest deadline (disarm when the
    /// wheel is empty). Returns without a syscall when the armed deadline
    /// is unchanged.
    fn arm_timer(&self) {
        let next = self.timers.lock().expect("wheel").next_deadline();
        let next_ns = next.map_or(u64::MAX, |d| {
            d.saturating_duration_since(self.epoch)
                .as_nanos()
                .min(u64::MAX as u128) as u64
        });
        if self.armed_ns.swap(next_ns, Ordering::AcqRel) == next_ns {
            return;
        }
        let rel = next.map_or(Duration::ZERO, |d| {
            d.saturating_duration_since(Instant::now())
        });
        let it = sys::Itimerspec {
            it_interval: sys::Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: match next {
                // it_value all-zero disarms; a due-now deadline must still
                // fire, so clamp to 1 ns
                Some(_) => sys::Timespec {
                    tv_sec: rel.as_secs() as i64,
                    tv_nsec: (rel.subsec_nanos() as i64).max(1),
                },
                None => sys::Timespec {
                    tv_sec: 0,
                    tv_nsec: 0,
                },
            },
        };
        // SAFETY: `it` is a live, fully-initialised stack struct; old_value
        // is documented to accept NULL; the timerfd is owned by self.
        unsafe {
            sys::timerfd_settime(self.timer_fd, 0, &it, std::ptr::null_mut());
        }
    }

    fn run(&self) -> ! {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            self.arm_timer();
            // SAFETY: `events` is a 256-entry stack array and maxevents is
            // its exact length, so the kernel writes only within bounds.
            let n =
                unsafe { sys::epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, -1) };
            if n < 0 {
                // EINTR: retry
                continue;
            }
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            for ev in &events[..n as usize] {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    WAKE_TOKEN => self.drain_fd(self.wake_fd),
                    TIMER_TOKEN => self.drain_fd(self.timer_fd),
                    _ => self.dispatch_io(token, bits),
                }
            }
            let now = Instant::now();
            {
                let mut wheel = self.timers.lock().expect("wheel");
                wheel.advance(now);
            }
            // force a re-arm pass: firing consumed the armed deadline
            self.armed_ns.store(u64::MAX, Ordering::Release);
        }
    }

    fn dispatch_io(&self, token: u64, bits: u32) {
        let Some(source) = self.sources.lock().expect("sources").get(&token).cloned() else {
            return; // deregistered while the event was in flight
        };
        let fault = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
        let readable = fault || bits & sys::EPOLLIN != 0;
        let writable = fault || bits & sys::EPOLLOUT != 0;
        let mut st = source.state.lock().expect("source state");
        if readable {
            st.ready |= READ_READY;
            for w in st.read_wakers.drain(..) {
                w.wake();
            }
        }
        if writable {
            st.ready |= WRITE_READY;
            for w in st.write_wakers.drain(..) {
                w.wake();
            }
        }
    }
}
