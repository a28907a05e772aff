//! Offline compat shim for the slice of [`mio`](https://docs.rs/mio) the
//! workspace needs: readiness polling over raw Linux `epoll`, with a
//! cross-thread [`Waker`] built on `eventfd`.
//!
//! The shim follows the PR-1 offline discipline — no registry dependencies.
//! The `epoll`/`eventfd` symbols are declared directly against the C library
//! that `std` already links; no `libc` crate is involved.
//!
//! Differences from real mio, deliberate and documented:
//!
//! - **Level-triggered only.** Every registration is level-triggered, so a
//!   socket that still has buffered bytes keeps firing. This is the simplest
//!   correct mode for a readiness loop that may not drain a source completely
//!   in one pass.
//! - **[`Waker`] is level-triggered too** and therefore must be drained: the
//!   event loop calls [`Waker::drain`] when it sees the waker token, otherwise
//!   the poll would spin.
//! - **Linux only.** On other targets [`Poll::new`] returns
//!   [`std::io::ErrorKind::Unsupported`], which the serving front passes on
//!   to its caller; the stub only keeps dependents compiling there. Nothing
//!   panics at link or load time.

use std::io;
use std::time::Duration;

/// Identifies a registered event source in the events returned by
/// [`Poll::poll`]. Stored verbatim in the kernel's per-fd `epoll_data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Readiness interest for a registration: readable, writable, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness (and peer hang-up, which is always armed).
    pub const READABLE: Interest = Interest(0b01);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Combine two interests (`READABLE.add(WRITABLE)` polls for both).
    /// Named after the real mio's `Interest::add`, not `std::ops::Add`.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, Token};
    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::time::Duration;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0x80000;
    const EFD_CLOEXEC: c_int = 0x80000;
    const EFD_NONBLOCK: c_int = 0x800;

    // The kernel packs `epoll_event` on x86-64 (no padding between `events`
    // and `data`); every other architecture uses natural C layout. Getting
    // this wrong corrupts the token on one side or the other, so mirror
    // glibc's `__EPOLL_PACKED` exactly.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    // Declared against the C library std already links; no libc crate.
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    }

    pub fn set_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
        // SAFETY: `fd` is a live listening socket owned by the caller; `listen`
        // on an already-listening socket just updates its accept-queue depth.
        if unsafe { listen(fd, backlog as c_int) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.is_readable() {
            bits |= EPOLLIN;
        }
        if interest.is_writable() {
            bits |= EPOLLOUT;
        }
        bits
    }

    pub struct Poll {
        epfd: RawFd,
    }

    impl Poll {
        pub fn new() -> io::Result<Poll> {
            // SAFETY: plain syscall wrapper; no pointers involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poll { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is either null (DEL) or a valid EpollEvent for the
            // duration of the call; the kernel copies it before returning.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register<S: AsRawFd>(
            &self,
            source: &S,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest_bits(interest),
                data: token.0 as u64,
            };
            self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), Some(&mut event))
        }

        pub fn reregister<S: AsRawFd>(
            &self,
            source: &S,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest_bits(interest),
                data: token.0 as u64,
            };
            self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), Some(&mut event))
        }

        pub fn deregister<S: AsRawFd>(&self, source: &S) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, source.as_raw_fd(), None)
        }

        pub fn poll(
            &self,
            events: &mut super::Events,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.inner.clear();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => {
                    // Round sub-millisecond remainders up so a 100µs timeout
                    // does not become a busy spin at timeout 0.
                    let ms = d
                        .as_millis()
                        .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0));
                    ms.min(c_int::MAX as u128) as c_int
                }
            };
            let capacity = events.inner.capacity().max(1) as c_int;
            // SAFETY: the spare capacity of `events.inner` is a valid,
            // properly aligned buffer for `capacity` EpollEvent values; the
            // kernel writes at most that many and reports the count.
            let count =
                unsafe { epoll_wait(self.epfd, events.inner.as_mut_ptr(), capacity, timeout_ms) };
            if count < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            // SAFETY: the kernel initialised exactly `count` events.
            unsafe { events.inner.set_len(count as usize) };
            Ok(())
        }
    }

    impl Drop for Poll {
        fn drop(&mut self) {
            // SAFETY: closing an fd we own exactly once.
            unsafe { close(self.epfd) };
        }
    }

    pub struct Waker {
        efd: RawFd,
    }

    impl Waker {
        pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
            // SAFETY: plain syscall wrapper.
            let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if efd < 0 {
                return Err(io::Error::last_os_error());
            }
            let waker = Waker { efd };
            let mut event = EpollEvent {
                events: EPOLLIN,
                data: token.0 as u64,
            };
            poll.ctl(EPOLL_CTL_ADD, efd, Some(&mut event))?;
            Ok(waker)
        }

        pub fn wake(&self) -> io::Result<()> {
            let one: u64 = 1;
            // SAFETY: writing 8 bytes from a valid u64; eventfd writes are
            // atomic. A full counter (EAGAIN) still leaves the fd readable,
            // which is all a wake needs.
            let rc = unsafe { write(self.efd, (&one as *const u64).cast(), 8) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::WouldBlock {
                    return Ok(());
                }
                return Err(err);
            }
            Ok(())
        }

        pub fn drain(&self) {
            let mut buf: u64 = 0;
            // SAFETY: reading 8 bytes into a valid u64; EAGAIN (already
            // drained) is the expected benign outcome.
            unsafe { read(self.efd, (&mut buf as *mut u64).cast(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: closing an fd we own exactly once.
            unsafe { close(self.efd) };
        }
    }

    // The waker only carries an owned fd; writes to an eventfd are
    // thread-safe by contract.
    unsafe impl Send for Waker {}
    unsafe impl Sync for Waker {}

    pub fn event_is_readable(bits: u32) -> bool {
        bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0
    }

    pub fn event_is_writable(bits: u32) -> bool {
        bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }

    pub fn event_is_closed(bits: u32) -> bool {
        bits & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Interest, Token};
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll is only available on Linux",
        )
    }

    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub struct Poll {
        _private: (),
    }

    // On non-Linux targets there is no AsRawFd bound to satisfy; accept any
    // source so call sites compile unchanged.
    impl Poll {
        pub fn new() -> io::Result<Poll> {
            Err(unsupported())
        }

        pub fn register<S>(&self, _s: &S, _t: Token, _i: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn reregister<S>(&self, _s: &S, _t: Token, _i: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn deregister<S>(&self, _s: &S) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn poll(&self, _e: &mut super::Events, _t: Option<Duration>) -> io::Result<()> {
            Err(unsupported())
        }
    }

    pub struct Waker {
        _private: (),
    }

    impl Waker {
        pub fn new(_poll: &Poll, _token: Token) -> io::Result<Waker> {
            Err(unsupported())
        }

        pub fn wake(&self) -> io::Result<()> {
            Err(unsupported())
        }

        pub fn drain(&self) {}
    }

    pub fn event_is_readable(_bits: u32) -> bool {
        false
    }

    pub fn event_is_writable(_bits: u32) -> bool {
        false
    }

    pub fn event_is_closed(_bits: u32) -> bool {
        false
    }
}

/// Readiness selector over raw `epoll`. One instance per event-loop thread.
///
/// Registrations are level-triggered: a source keeps firing while it stays
/// ready, so a handler that does not fully drain a socket is still correct.
pub struct Poll {
    inner: sys::Poll,
}

/// Widens a listening socket's accept queue.
///
/// `std::net::TcpListener::bind` hard-codes a backlog of 128. Under a
/// connection storm (hundreds of simultaneous connects) the kernel completes
/// handshakes via syncookies, then drops the connection when the accept queue
/// is full — the peer believes it connected and its first write dies with
/// `ECONNRESET`. Calling `listen(2)` again on the already-listening socket
/// updates the queue depth in place (the kernel clamps it to
/// `net.core.somaxconn`). Best-effort no-op outside Linux.
#[cfg(target_os = "linux")]
pub fn set_backlog<S: std::os::unix::io::AsRawFd>(source: &S, backlog: i32) -> io::Result<()> {
    sys::set_backlog(source.as_raw_fd(), backlog)
}

/// Widens a listening socket's accept queue (no-op on this target).
#[cfg(not(target_os = "linux"))]
pub fn set_backlog<S>(_source: &S, _backlog: i32) -> io::Result<()> {
    Ok(())
}

impl Poll {
    /// Create a new poller. Returns [`std::io::ErrorKind::Unsupported`] on
    /// non-Linux targets, which have no epoll.
    pub fn new() -> io::Result<Poll> {
        Ok(Poll {
            inner: sys::Poll::new()?,
        })
    }

    /// Register `source` for `interest`, tagging its events with `token`.
    #[cfg(target_os = "linux")]
    pub fn register<S: std::os::unix::io::AsRawFd>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.register(source, token, interest)
    }

    /// Register `source` for `interest`, tagging its events with `token`.
    #[cfg(not(target_os = "linux"))]
    pub fn register<S>(&self, source: &S, token: Token, interest: Interest) -> io::Result<()> {
        self.inner.register(source, token, interest)
    }

    /// Change the interest set (and/or token) of an already registered source.
    #[cfg(target_os = "linux")]
    pub fn reregister<S: std::os::unix::io::AsRawFd>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.reregister(source, token, interest)
    }

    /// Change the interest set (and/or token) of an already registered source.
    #[cfg(not(target_os = "linux"))]
    pub fn reregister<S>(&self, source: &S, token: Token, interest: Interest) -> io::Result<()> {
        self.inner.reregister(source, token, interest)
    }

    /// Remove a source from the poller. Closing the fd also removes it, so
    /// this is only needed when the source outlives its registration.
    #[cfg(target_os = "linux")]
    pub fn deregister<S: std::os::unix::io::AsRawFd>(&self, source: &S) -> io::Result<()> {
        self.inner.deregister(source)
    }

    /// Remove a source from the poller.
    #[cfg(not(target_os = "linux"))]
    pub fn deregister<S>(&self, source: &S) -> io::Result<()> {
        self.inner.deregister(source)
    }

    /// Block until at least one registered source is ready, `timeout`
    /// elapses, or a [`Waker`] fires. `None` blocks indefinitely. A signal
    /// interruption returns `Ok` with zero events rather than an error.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.poll(events, timeout)
    }
}

/// Buffer of readiness events filled by [`Poll::poll`].
pub struct Events {
    inner: Vec<sys::EpollEvent>,
}

impl Events {
    /// Allocate space for up to `capacity` events per poll call.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: Vec::with_capacity(capacity.max(1)),
        }
    }

    /// Number of events delivered by the last poll.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the last poll timed out without readiness.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate over the delivered events.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter().map(|raw| Event {
            bits: raw.events,
            token: Token(raw.data as usize),
        })
    }
}

/// A single readiness event: which source (token) and which directions.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    bits: u32,
    token: Token,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Readable, or peer closed / errored (a read will not block: it yields
    /// bytes, EOF, or the error).
    pub fn is_readable(&self) -> bool {
        sys::event_is_readable(self.bits)
    }

    /// Writable, or errored (a write will not block).
    pub fn is_writable(&self) -> bool {
        sys::event_is_writable(self.bits)
    }

    /// Peer hang-up or error — the connection is done for at least one
    /// direction; handlers should read to EOF and wind the connection down.
    pub fn is_closed(&self) -> bool {
        sys::event_is_closed(self.bits)
    }
}

/// Cross-thread wake-up handle for a [`Poll`], built on `eventfd`.
///
/// Level-triggered like everything else in the shim: after a wake fires the
/// loop must call [`Waker::drain`] or the poll will keep returning
/// immediately.
pub struct Waker {
    inner: sys::Waker,
}

impl Waker {
    /// Create a waker registered with `poll` under `token`.
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        Ok(Waker {
            inner: sys::Waker::new(&poll.inner, token)?,
        })
    }

    /// Make the next (or current) `poll` call return with this waker's token.
    /// Safe to call from any thread, any number of times; wakes coalesce.
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }

    /// Reset the waker so the poll stops reporting it. Called by the event
    /// loop when it sees the waker's token.
    pub fn drain(&self) {
        self.inner.drain()
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    const LISTENER: Token = Token(0);
    const CLIENT: Token = Token(1);
    const WAKER: Token = Token(9);

    #[test]
    fn listener_becomes_readable_on_connect() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poll.register(&listener, LISTENER, Interest::READABLE)
            .unwrap();

        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no readiness before a client connects");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let tokens: Vec<Token> = events.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![LISTENER]);
        assert!(events.iter().all(|e| e.is_readable()));
    }

    #[test]
    fn stream_readiness_tracks_reregistered_interest() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // A fresh connected socket is writable but not readable.
        poll.register(&server, CLIENT, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            events.is_empty(),
            "readable-only interest on an idle socket"
        );

        poll.reregister(&server, CLIENT, Interest::READABLE.add(Interest::WRITABLE))
            .unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == CLIENT && e.is_writable()));

        client.write_all(b"ping").unwrap();
        poll.reregister(&server, CLIENT, Interest::READABLE)
            .unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == CLIENT && e.is_readable()));

        let mut buf = [0u8; 8];
        let mut stream_ref = &server;
        let n = stream_ref.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn peer_close_reports_closed_readiness() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poll.register(&server, CLIENT, Interest::READABLE).unwrap();

        drop(client);
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let event = events.iter().find(|e| e.token() == CLIENT).unwrap();
        assert!(event.is_readable(), "EOF must surface as readable");
        assert!(event.is_closed(), "peer hang-up must surface as closed");
    }

    #[test]
    fn waker_wakes_across_threads_and_drains() {
        let poll = Poll::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poll, WAKER).unwrap());

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake().unwrap();
            remote.wake().unwrap(); // wakes coalesce
        });

        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == WAKER && e.is_readable()));
        waker.drain();

        poll.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "drained waker must stop firing");
        handle.join().unwrap();
    }

    #[test]
    fn poll_honours_timeout() {
        let poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let start = std::time::Instant::now();
        poll.poll(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
