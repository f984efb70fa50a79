//! Offline stand-in for the `polling` crate: the readiness-polling subset
//! this workspace uses (the build environment has no crates.io access), in
//! the spirit of the `rand`/`criterion` shims.
//!
//! A [`Poller`] watches a set of file descriptors for read/write readiness.
//! Two backends hide behind one API:
//!
//! * **epoll(7)** on Linux — `O(ready)` wakeups, the production path for the
//!   evented server's thousands of connections.
//! * **poll(2)** everywhere else on Unix — `O(registered)` per wait, but
//!   portable. On Linux it can be forced with
//!   [`Poller::with_backend(Backend::Poll)`](Poller::with_backend) so tests
//!   exercise both code paths on one host.
//!
//! Both backends are **level-triggered**: an event keeps firing while the
//! condition holds, so a handler that drains less than everything is woken
//! again — the forgiving semantics the evented server is written against.
//! Error/hang-up conditions (`EPOLLERR`/`EPOLLHUP`/`POLLERR`/`POLLHUP`) are
//! surfaced as *readable and writable* so the owner's next read/write
//! observes the failure and tears the connection down; they can never be
//! masked by interest flags.
//!
//! The poller embeds a self-pipe: [`Poller::notify`] is safe to call from
//! any thread and wakes a concurrent [`Poller::wait`] — the completion
//! hand-off mechanism worker threads use to hand finished responses back to
//! an event loop. Notifications are internal: `wait` drains the pipe and
//! never surfaces it as a user event.
//!
//! No external crates: the syscalls are declared `extern "C"` against the
//! libc every Rust `std` program on Unix already links.

#![forbid(unsafe_op_in_unsafe_fn)]

#[cfg(unix)]
pub use unix_imp::{Backend, Events, Poller};

#[cfg(not(unix))]
mod imp {
    //! Non-Unix stub: construction reports the platform gap as a plain
    //! `io::Error` instead of failing to compile.
    use std::io;
    use std::time::Duration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Backend {
        Epoll,
        Poll,
    }

    #[derive(Debug, Default)]
    pub struct Events;

    impl Events {
        pub fn with_capacity(_capacity: usize) -> Self {
            Events
        }
        pub fn iter(&self) -> std::iter::Empty<crate::Event> {
            std::iter::empty()
        }
        pub fn len(&self) -> usize {
            0
        }
        pub fn is_empty(&self) -> bool {
            true
        }
    }

    #[derive(Debug)]
    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Err(unsupported())
        }
        pub fn with_backend(_backend: Backend) -> io::Result<Self> {
            Err(unsupported())
        }
        pub fn backend(&self) -> Backend {
            Backend::Poll
        }
        pub fn add(&self, _fd: i32, _interest: crate::Event) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn modify(&self, _fd: i32, _interest: crate::Event) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn delete(&self, _fd: i32) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn wait(&self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<usize> {
            Err(unsupported())
        }
        pub fn notify(&self) -> io::Result<()> {
            Err(unsupported())
        }
    }

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "readiness polling requires a Unix platform")
    }
}
#[cfg(not(unix))]
pub use imp::{Backend, Events, Poller};

/// One readiness registration or occurrence: a caller-chosen `key` plus the
/// directions of interest (registration) or readiness (wait result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier delivered back with every occurrence.
    pub key: usize,
    /// Interested in / ready for reading.
    pub readable: bool,
    /// Interested in / ready for writing.
    pub writable: bool,
}

impl Event {
    /// Interest in both directions.
    pub fn all(key: usize) -> Self {
        Self { key, readable: true, writable: true }
    }

    /// Read interest only.
    pub fn readable(key: usize) -> Self {
        Self { key, readable: true, writable: false }
    }

    /// Write interest only.
    pub fn writable(key: usize) -> Self {
        Self { key, readable: false, writable: true }
    }

    /// No interest (parked registration; still reports errors/hang-ups).
    pub fn none(key: usize) -> Self {
        Self { key, readable: false, writable: false }
    }
}

#[cfg(unix)]
mod sys {
    //! The raw libc surface both backends share, declared by hand: the shim
    //! may not depend on the `libc` crate, but every Rust binary on Unix
    //! already links the C library these symbols live in.
    #![allow(non_camel_case_types)]

    pub type c_int = i32;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        // `nfds_t` is `unsigned long` on the platforms this shim targets;
        // `usize` matches its width on LP64 and ILP32 alike.
        pub fn poll(fds: *mut pollfd, nfds: usize, timeout: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use super::c_int;

        // `struct epoll_event` is declared `__attribute__((packed))` on
        // x86-64 (a kernel ABI quirk); on every other architecture it is a
        // plain C struct.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct epoll_event {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;

        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLL_CLOEXEC: c_int = 0x80000;

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut epoll_event,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    }
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK_FLAG: c_int = 0x800;
    #[cfg(target_os = "linux")]
    pub const O_CLOEXEC_FLAG: c_int = 0x80000;

    #[cfg(all(unix, not(target_os = "linux")))]
    extern "C" {
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }
}

#[cfg(unix)]
mod unix_imp {
    use std::collections::HashMap;
    use std::io;
    use std::sync::Mutex;
    use std::time::Duration;

    use crate::sys;
    use crate::Event;

    /// Which readiness syscall a [`Poller`] uses.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Backend {
        /// Linux epoll(7): `O(ready)` wakeups. Construction fails off Linux.
        Epoll,
        /// Portable poll(2): rebuilds the fd array every wait.
        Poll,
    }

    /// Readiness occurrences collected by one [`Poller::wait`] call. Owns the
    /// backend scratch buffers so repeated waits allocate nothing.
    pub struct Events {
        list: Vec<Event>,
        capacity: usize,
        #[cfg(target_os = "linux")]
        raw: Vec<sys::epoll::epoll_event>,
        raw_poll: Vec<sys::pollfd>,
        keys: Vec<usize>,
    }

    impl std::fmt::Debug for Events {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Events").field("len", &self.list.len()).finish()
        }
    }

    impl Events {
        /// Room for `capacity` occurrences per wait (at least 1).
        pub fn with_capacity(capacity: usize) -> Self {
            let capacity = capacity.max(1);
            Self {
                list: Vec::with_capacity(capacity),
                capacity,
                #[cfg(target_os = "linux")]
                raw: Vec::with_capacity(capacity),
                raw_poll: Vec::new(),
                keys: Vec::new(),
            }
        }

        /// Iterates the occurrences of the last wait.
        pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
            self.list.iter().copied()
        }

        /// Occurrences collected by the last wait.
        pub fn len(&self) -> usize {
            self.list.len()
        }

        /// Whether the last wait collected nothing.
        pub fn is_empty(&self) -> bool {
            self.list.is_empty()
        }
    }

    impl Default for Events {
        fn default() -> Self {
            Self::with_capacity(256)
        }
    }

    enum BackendState {
        #[cfg(target_os = "linux")]
        Epoll {
            epfd: i32,
        },
        Poll {
            registrations: Mutex<HashMap<i32, Event>>,
        },
    }

    /// A readiness poller over one of the two [`Backend`]s.
    pub struct Poller {
        backend: BackendState,
        notify_read: i32,
        notify_write: i32,
    }

    impl std::fmt::Debug for Poller {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Poller").field("backend", &self.backend_kind()).finish()
        }
    }

    // The fds inside are plain integers operated on through thread-safe
    // syscalls; the poll-backend registration map is behind a Mutex.
    unsafe impl Send for Poller {}
    unsafe impl Sync for Poller {}

    fn last_err() -> io::Error {
        io::Error::last_os_error()
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(last_err())
        } else {
            Ok(ret)
        }
    }

    /// A nonblocking close-on-exec pipe (read end, write end).
    fn nonblocking_pipe() -> io::Result<(i32, i32)> {
        let mut fds = [0i32; 2];
        #[cfg(target_os = "linux")]
        cvt(unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK_FLAG | sys::O_CLOEXEC_FLAG) })?;
        #[cfg(all(unix, not(target_os = "linux")))]
        {
            cvt(unsafe { sys::pipe(fds.as_mut_ptr()) })?;
            // F_SETFL = 4, O_NONBLOCK = 0x4 on the BSD family this branch
            // serves; close fds on failure rather than leaking them.
            for fd in fds {
                if unsafe { sys::fcntl(fd, 4, 0x4) } < 0 {
                    let e = last_err();
                    unsafe {
                        sys::close(fds[0]);
                        sys::close(fds[1]);
                    }
                    return Err(e);
                }
            }
        }
        Ok((fds[0], fds[1]))
    }

    /// Reserved key marking the internal notify pipe inside the epoll set.
    const NOTIFY_KEY: u64 = u64::MAX;

    impl Poller {
        /// The platform's best backend: epoll on Linux, poll elsewhere.
        pub fn new() -> io::Result<Self> {
            #[cfg(target_os = "linux")]
            return Self::with_backend(Backend::Epoll);
            #[cfg(not(target_os = "linux"))]
            return Self::with_backend(Backend::Poll);
        }

        /// An explicit backend — how tests run the portable poll(2) path on a
        /// Linux host. [`Backend::Epoll`] off Linux is a typed
        /// `Unsupported` error.
        pub fn with_backend(backend: Backend) -> io::Result<Self> {
            let (notify_read, notify_write) = nonblocking_pipe()?;
            let state = match backend {
                #[cfg(target_os = "linux")]
                Backend::Epoll => {
                    let epfd = cvt(unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) });
                    match epfd {
                        Ok(epfd) => {
                            // The notify pipe is a permanent member of the set.
                            let mut ev = sys::epoll::epoll_event {
                                events: sys::epoll::EPOLLIN,
                                data: NOTIFY_KEY,
                            };
                            if let Err(e) = cvt(unsafe {
                                sys::epoll::epoll_ctl(
                                    epfd,
                                    sys::epoll::EPOLL_CTL_ADD,
                                    notify_read,
                                    &mut ev,
                                )
                            }) {
                                unsafe {
                                    sys::close(epfd);
                                    sys::close(notify_read);
                                    sys::close(notify_write);
                                }
                                return Err(e);
                            }
                            BackendState::Epoll { epfd }
                        }
                        Err(e) => {
                            unsafe {
                                sys::close(notify_read);
                                sys::close(notify_write);
                            }
                            return Err(e);
                        }
                    }
                }
                #[cfg(not(target_os = "linux"))]
                Backend::Epoll => {
                    unsafe {
                        sys::close(notify_read);
                        sys::close(notify_write);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "the epoll backend requires Linux; use Backend::Poll",
                    ));
                }
                Backend::Poll => BackendState::Poll { registrations: Mutex::new(HashMap::new()) },
            };
            Ok(Self { backend: state, notify_read, notify_write })
        }

        fn backend_kind(&self) -> Backend {
            match &self.backend {
                #[cfg(target_os = "linux")]
                BackendState::Epoll { .. } => Backend::Epoll,
                BackendState::Poll { .. } => Backend::Poll,
            }
        }

        /// The backend this poller runs on.
        pub fn backend(&self) -> Backend {
            self.backend_kind()
        }

        /// Registers `fd` with the given interest. The caller keeps the fd
        /// open for as long as it stays registered.
        pub fn add(&self, fd: i32, interest: Event) -> io::Result<()> {
            match &self.backend {
                #[cfg(target_os = "linux")]
                BackendState::Epoll { epfd } => {
                    let mut ev = to_epoll_event(interest);
                    cvt(unsafe {
                        sys::epoll::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_ADD, fd, &mut ev)
                    })?;
                    Ok(())
                }
                BackendState::Poll { registrations } => {
                    let mut regs = registrations.lock().expect("poller registrations");
                    if regs.insert(fd, interest).is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::AlreadyExists,
                            "fd is already registered; use modify",
                        ));
                    }
                    Ok(())
                }
            }
        }

        /// Replaces the interest of a registered fd.
        pub fn modify(&self, fd: i32, interest: Event) -> io::Result<()> {
            match &self.backend {
                #[cfg(target_os = "linux")]
                BackendState::Epoll { epfd } => {
                    let mut ev = to_epoll_event(interest);
                    cvt(unsafe {
                        sys::epoll::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_MOD, fd, &mut ev)
                    })?;
                    Ok(())
                }
                BackendState::Poll { registrations } => {
                    let mut regs = registrations.lock().expect("poller registrations");
                    match regs.get_mut(&fd) {
                        Some(slot) => {
                            *slot = interest;
                            Ok(())
                        }
                        None => Err(io::Error::new(
                            io::ErrorKind::NotFound,
                            "fd is not registered; use add",
                        )),
                    }
                }
            }
        }

        /// Removes a registration. Call *before* closing the fd.
        pub fn delete(&self, fd: i32) -> io::Result<()> {
            match &self.backend {
                #[cfg(target_os = "linux")]
                BackendState::Epoll { epfd } => {
                    let mut ev = sys::epoll::epoll_event { events: 0, data: 0 };
                    cvt(unsafe {
                        sys::epoll::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_DEL, fd, &mut ev)
                    })?;
                    Ok(())
                }
                BackendState::Poll { registrations } => {
                    let mut regs = registrations.lock().expect("poller registrations");
                    match regs.remove(&fd) {
                        Some(_) => Ok(()),
                        None => {
                            Err(io::Error::new(io::ErrorKind::NotFound, "fd is not registered"))
                        }
                    }
                }
            }
        }

        /// Blocks until at least one registered fd is ready, the timeout
        /// elapses (`None` waits forever), or [`Poller::notify`] is called.
        /// Returns the number of occurrences written into `events`; an
        /// interrupted wait (`EINTR`) returns 0 occurrences rather than an
        /// error. Error/hang-up conditions report as readable **and**
        /// writable regardless of registered interest.
        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            events.list.clear();
            let timeout_ms: i32 = match timeout {
                // Round up so a 1ns timeout doesn't busy-spin as 0ms.
                Some(t) => {
                    t.as_millis().min(i32::MAX as u128) as i32
                        + i32::from(t.subsec_nanos() % 1_000_000 != 0)
                }
                None => -1,
            };
            match &self.backend {
                #[cfg(target_os = "linux")]
                BackendState::Epoll { epfd } => {
                    events
                        .raw
                        .resize(events.capacity, sys::epoll::epoll_event { events: 0, data: 0 });
                    let n = unsafe {
                        sys::epoll::epoll_wait(
                            *epfd,
                            events.raw.as_mut_ptr(),
                            events.capacity as i32,
                            timeout_ms,
                        )
                    };
                    if n < 0 {
                        let e = last_err();
                        if e.kind() == io::ErrorKind::Interrupted {
                            return Ok(0);
                        }
                        return Err(e);
                    }
                    for raw in &events.raw[..n as usize] {
                        let data = raw.data;
                        let bits = raw.events;
                        if data == NOTIFY_KEY {
                            self.drain_notifications();
                            continue;
                        }
                        let hangup = bits & (sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP) != 0;
                        events.list.push(Event {
                            key: data as usize,
                            readable: bits & sys::epoll::EPOLLIN != 0 || hangup,
                            writable: bits & sys::epoll::EPOLLOUT != 0 || hangup,
                        });
                    }
                }
                BackendState::Poll { registrations } => {
                    // Snapshot the registrations into the reused pollfd
                    // array; the lock is released before blocking so other
                    // threads can notify (registration changes mid-wait take
                    // effect on the next wait, as with epoll semantics the
                    // single-owner event loop relies on).
                    events.raw_poll.clear();
                    events.keys.clear();
                    {
                        let regs = registrations.lock().expect("poller registrations");
                        for (&fd, interest) in regs.iter() {
                            let mut bits = 0i16;
                            if interest.readable {
                                bits |= sys::POLLIN;
                            }
                            if interest.writable {
                                bits |= sys::POLLOUT;
                            }
                            events.raw_poll.push(sys::pollfd { fd, events: bits, revents: 0 });
                            events.keys.push(interest.key);
                        }
                    }
                    events.raw_poll.push(sys::pollfd {
                        fd: self.notify_read,
                        events: sys::POLLIN,
                        revents: 0,
                    });
                    let n = unsafe {
                        sys::poll(events.raw_poll.as_mut_ptr(), events.raw_poll.len(), timeout_ms)
                    };
                    if n < 0 {
                        let e = last_err();
                        if e.kind() == io::ErrorKind::Interrupted {
                            return Ok(0);
                        }
                        return Err(e);
                    }
                    let (regs_slice, notify_slot) =
                        events.raw_poll.split_at(events.raw_poll.len() - 1);
                    if notify_slot[0].revents & sys::POLLIN != 0 {
                        self.drain_notifications();
                    }
                    for (slot, &key) in regs_slice.iter().zip(&events.keys) {
                        let re = slot.revents;
                        if re == 0 {
                            continue;
                        }
                        let hangup = re & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
                        events.list.push(Event {
                            key,
                            readable: re & sys::POLLIN != 0 || hangup,
                            writable: re & sys::POLLOUT != 0 || hangup,
                        });
                    }
                }
            }
            Ok(events.list.len())
        }

        /// Wakes a concurrent [`Poller::wait`] from any thread. Coalesces: a
        /// full notify pipe already guarantees a wakeup.
        pub fn notify(&self) -> io::Result<()> {
            loop {
                let n = unsafe { sys::write(self.notify_write, [1u8].as_ptr(), 1) };
                if n >= 0 {
                    return Ok(());
                }
                let e = last_err();
                match e.kind() {
                    io::ErrorKind::Interrupted => continue,
                    // Pipe full: a wakeup is already pending.
                    io::ErrorKind::WouldBlock => return Ok(()),
                    _ => return Err(e),
                }
            }
        }

        fn drain_notifications(&self) {
            let mut scratch = [0u8; 64];
            loop {
                let n = unsafe { sys::read(self.notify_read, scratch.as_mut_ptr(), scratch.len()) };
                if n <= 0 {
                    let e = last_err();
                    if n < 0 && e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return;
                }
                if (n as usize) < scratch.len() {
                    return;
                }
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            #[cfg(target_os = "linux")]
            if let BackendState::Epoll { epfd } = &self.backend {
                unsafe {
                    sys::close(*epfd);
                }
            }
            unsafe {
                sys::close(self.notify_read);
                sys::close(self.notify_write);
            }
        }
    }

    #[cfg(target_os = "linux")]
    fn to_epoll_event(interest: Event) -> sys::epoll::epoll_event {
        let mut bits = 0u32;
        if interest.readable {
            bits |= sys::epoll::EPOLLIN;
        }
        if interest.writable {
            bits |= sys::epoll::EPOLLOUT;
        }
        sys::epoll::epoll_event { events: bits, data: interest.key as u64 }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    fn backends() -> Vec<Backend> {
        #[cfg(target_os = "linux")]
        return vec![Backend::Epoll, Backend::Poll];
        #[cfg(not(target_os = "linux"))]
        return vec![Backend::Poll];
    }

    #[test]
    fn readiness_round_trip_on_every_backend() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            assert_eq!(poller.backend(), backend);
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            poller.add(listener.as_raw_fd(), Event::readable(7)).unwrap();

            // Nothing pending: a short wait times out empty.
            let mut events = Events::with_capacity(8);
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0, "{backend:?}: phantom event");

            // A pending connection makes the listener readable.
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{backend:?}: missed the pending connection");
            let ev = events.iter().next().unwrap();
            assert_eq!(ev.key, 7);
            assert!(ev.readable);

            // Level-triggered: unconsumed readiness fires again.
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{backend:?}: level-triggered redelivery failed");

            let (mut server_side, _) = listener.accept().unwrap();
            poller.delete(listener.as_raw_fd()).unwrap();

            // A connected stream is immediately writable; readable only once
            // the peer sends.
            server_side.set_nonblocking(true).unwrap();
            poller.add(server_side.as_raw_fd(), Event::all(9)).unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1);
            let ev = events.iter().next().unwrap();
            assert_eq!(ev.key, 9);
            assert!(ev.writable && !ev.readable, "{backend:?}: {ev:?}");

            client.write_all(b"ping").unwrap();
            // Narrow the interest to readable so the write side stops firing.
            poller.modify(server_side.as_raw_fd(), Event::readable(9)).unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1);
            assert!(events.iter().next().unwrap().readable, "{backend:?}");
            let mut buf = [0u8; 8];
            assert_eq!(server_side.read(&mut buf).unwrap(), 4);

            // Peer hang-up surfaces as readiness even under read interest.
            drop(client);
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "{backend:?}: hang-up not surfaced");
            assert!(events.iter().next().unwrap().readable);
            poller.delete(server_side.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn notify_wakes_a_blocked_wait_from_another_thread() {
        for backend in backends() {
            let poller = std::sync::Arc::new(Poller::with_backend(backend).unwrap());
            let waker = std::sync::Arc::clone(&poller);
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.notify().unwrap();
            });
            let mut events = Events::with_capacity(4);
            let started = Instant::now();
            let n = poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
            let waited = started.elapsed();
            // The notification itself is internal: no user event surfaces.
            assert_eq!(n, 0, "{backend:?}: notify leaked a user event");
            assert!(
                waited < Duration::from_secs(5),
                "{backend:?}: notify did not wake the wait ({waited:?})"
            );
            handle.join().unwrap();

            // Notifications coalesce and drain: the next wait times out.
            poller.notify().unwrap();
            poller.notify().unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
            assert_eq!(n, 0);
            let started = Instant::now();
            poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
            assert!(
                started.elapsed() >= Duration::from_millis(15),
                "{backend:?}: stale notification short-circuited the wait"
            );
        }
    }

    #[test]
    fn registration_errors_are_typed() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let fd = listener.as_raw_fd();
            poller.add(fd, Event::readable(1)).unwrap();
            assert!(poller.add(fd, Event::readable(1)).is_err(), "{backend:?}: double add");
            poller.delete(fd).unwrap();
            assert!(poller.delete(fd).is_err(), "{backend:?}: double delete");
            assert!(poller.modify(fd, Event::readable(1)).is_err(), "{backend:?}: orphan modify");
        }
    }

    #[cfg(not(target_os = "linux"))]
    #[test]
    fn epoll_is_a_typed_unsupported_error_off_linux() {
        assert_eq!(
            Poller::with_backend(Backend::Epoll).unwrap_err().kind(),
            std::io::ErrorKind::Unsupported
        );
    }
}
