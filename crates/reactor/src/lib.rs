//! A minimal readiness reactor for the fgbs daemon.
//!
//! The serve crate forbids `unsafe`; this crate quarantines the few
//! raw syscalls an event loop needs — `epoll_create1` / `epoll_ctl` /
//! `epoll_wait` for readiness, `eventfd` for a cross-thread wake
//! signal, and `setsockopt` for the socket-buffer knobs the stalled-
//! reader tests use. No `libc` crate is vendored, so the symbols are
//! declared by hand against the C runtime std already links.
//!
//! The surface is deliberately tiny and level-triggered:
//!
//! - [`Poller::register`] / [`Poller::modify`] / [`Poller::deregister`]
//!   attach a file descriptor with an [`Interest`] and a `u64` token.
//! - [`Poller::wait`] blocks until readiness, filling [`Event`]s.
//! - [`Waker::wake`] (clonable, thread-safe) interrupts a `wait` from
//!   any thread — the explicit shutdown signal that replaces the old
//!   self-connect poke. A wake surfaces as an event with
//!   [`WAKE_TOKEN`]; the poller drains the eventfd internally.
//!
//! On non-Linux targets [`Poller::new`] returns
//! `ErrorKind::Unsupported`, and the daemon, which has no other loop,
//! returns that error from `Server::start`.

#![warn(missing_docs)]

use std::io;
use std::time::Duration;

/// Readiness directions a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or the peer closed).
    pub readable: bool,
    /// Wake when the fd can accept more outgoing bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-side interest only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-side interest only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction — the registration stays armed only for
    /// hang-up/error notifications (a paused connection).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with ([`WAKE_TOKEN`] for wakes).
    pub token: u64,
    /// The read side is ready (includes peer hang-up and errors, so a
    /// subsequent `read` observes the condition instead of blocking).
    pub readable: bool,
    /// The write side is ready.
    pub writable: bool,
    /// The kernel flagged hang-up or error; the connection is done.
    pub closed: bool,
}

/// The token [`Poller::wait`] reports for [`Waker::wake`] signals.
/// Registrations must not use it.
pub const WAKE_TOKEN: u64 = u64::MAX;

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, WAKE_TOKEN};
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Arc;
    use std::time::Duration;

    // Hand-declared bindings against the C runtime (no vendored libc).
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    const EINTR: i32 = 4;

    /// The kernel's `struct epoll_event`: packed on x86-64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An fd that closes itself on drop.
    #[derive(Debug)]
    struct Fd(RawFd);

    impl Drop for Fd {
        fn drop(&mut self) {
            unsafe {
                close(self.0);
            }
        }
    }

    #[derive(Debug)]
    pub struct Poller {
        ep: Fd,
        wake: Arc<Fd>,
    }

    #[derive(Debug, Clone)]
    pub struct Waker(Arc<Fd>);

    impl Waker {
        pub fn wake(&self) -> io::Result<()> {
            let one = 1u64.to_ne_bytes();
            // A full eventfd counter (EAGAIN) already guarantees the
            // poller will wake; treat it as success.
            let n = unsafe { write(self.0 .0, one.as_ptr(), one.len()) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::WouldBlock {
                    return Ok(());
                }
                return Err(err);
            }
            Ok(())
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let ep = Fd(cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?);
            let wake = Fd(cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?);
            let poller = Poller {
                ep,
                wake: Arc::new(wake),
            };
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: WAKE_TOKEN,
            };
            cvt(unsafe { epoll_ctl(poller.ep.0, EPOLL_CTL_ADD, poller.wake.0, &mut ev) })?;
            Ok(poller)
        }

        pub fn waker(&self) -> Waker {
            Waker(Arc::clone(&self.wake))
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.ep.0, EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.ep.0, EPOLL_CTL_MOD, fd, &mut ev) }).map(drop)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.ep.0, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                // Round up so a 100µs deadline doesn't spin at 0ms.
                Some(d) => (d.as_millis().min(i32::MAX as u128 - 1) as i32)
                    + i32::from(d.subsec_millis() as u128 * 1_000_000 != d.subsec_nanos() as u128),
            };
            let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
            let n = loop {
                let n = unsafe {
                    epoll_wait(self.ep.0, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.raw_os_error() != Some(EINTR) {
                    return Err(err);
                }
            };
            for e in &buf[..n] {
                let (bits, data) = (e.events, e.data);
                if data == WAKE_TOKEN {
                    // Drain the counter so level-triggering quiesces.
                    let mut scratch = [0u8; 8];
                    while unsafe { read(self.wake.0, scratch.as_mut_ptr(), 8) } == 8 {}
                    events.push(Event {
                        token: WAKE_TOKEN,
                        readable: false,
                        writable: false,
                        closed: false,
                    });
                    continue;
                }
                let closed = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                events.push(Event {
                    token: data,
                    // Hang-ups count as readable: the state machine's
                    // next `read` observes EOF/ECONNRESET directly.
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    closed,
                });
            }
            Ok(())
        }
    }

    fn set_buf(fd: RawFd, opt: i32, bytes: usize) -> io::Result<()> {
        let v = (bytes as i32).to_ne_bytes();
        cvt(unsafe { setsockopt(fd, SOL_SOCKET, opt, v.as_ptr(), v.len() as u32) }).map(drop)
    }

    /// Shrink (or grow) a socket's kernel send buffer (`SO_SNDBUF`).
    pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
        set_buf(fd, SO_SNDBUF, bytes)
    }

    /// Shrink (or grow) a socket's kernel receive buffer (`SO_RCVBUF`).
    pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
        set_buf(fd, SO_RCVBUF, bytes)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    /// Raw fd alias for targets without `std::os::fd`.
    pub type RawFd = i32;

    #[derive(Debug)]
    pub struct Poller {}

    #[derive(Debug, Clone)]
    pub struct Waker {}

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "fgbs-reactor only implements epoll (Linux)",
        ))
    }

    impl Waker {
        pub fn wake(&self) -> io::Result<()> {
            unsupported()
        }
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }

        pub fn waker(&self) -> Waker {
            Waker {}
        }

        pub fn register(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }

        pub fn wait(&self, _events: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<()> {
            unsupported()
        }
    }

    /// Unsupported off Linux.
    pub fn set_send_buffer(_fd: RawFd, _bytes: usize) -> io::Result<()> {
        unsupported()
    }

    /// Unsupported off Linux.
    pub fn set_recv_buffer(_fd: RawFd, _bytes: usize) -> io::Result<()> {
        unsupported()
    }
}

#[cfg(target_os = "linux")]
pub use std::os::fd::RawFd;
#[cfg(not(target_os = "linux"))]
pub use sys::RawFd;

pub use sys::{set_recv_buffer, set_send_buffer};

/// A readiness poller: epoll on Linux, unsupported elsewhere.
#[derive(Debug)]
pub struct Poller(sys::Poller);

/// A clonable, thread-safe handle that interrupts [`Poller::wait`].
#[derive(Debug, Clone)]
pub struct Waker(sys::Waker);

impl Waker {
    /// Signal the poller; the next (or current) `wait` reports a
    /// [`WAKE_TOKEN`] event. Safe from any thread, any number of times.
    pub fn wake(&self) -> io::Result<()> {
        self.0.wake()
    }
}

impl Poller {
    /// Create a poller with its wake channel attached.
    pub fn new() -> io::Result<Poller> {
        sys::Poller::new().map(Poller)
    }

    /// A wake handle for this poller.
    pub fn waker(&self) -> Waker {
        Waker(self.0.waker())
    }

    /// Start watching `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`]; tokens should be unique per fd.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.0.register(fd, token, interest)
    }

    /// Change the interest set of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.0.modify(fd, token, interest)
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.0.deregister(fd)
    }

    /// Block until readiness or `timeout` (`None` = forever), filling
    /// `events`. Returns with `events` empty on timeout. EINTR is
    /// retried internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.0.wait(events, timeout)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn waker_interrupts_a_blocking_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake().unwrap();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        t.join().unwrap();
    }

    #[test]
    fn wait_times_out_with_no_events() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readiness_round_trips_through_the_poller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        // A pending connection makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let (mut peer, _) = listener.accept().unwrap();
        peer.set_nonblocking(true).unwrap();
        poller
            .register(peer.as_raw_fd(), 8, Interest::BOTH)
            .unwrap();

        // Bytes from the client make the accepted side readable.
        client.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let got = loop {
            poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
            if let Some(e) = events.iter().find(|e| e.token == 8 && e.readable) {
                break *e;
            }
            assert!(std::time::Instant::now() < deadline, "no readable event");
        };
        assert!(got.writable, "an idle socket is write-ready too");
        let mut buf = [0u8; 8];
        assert_eq!(peer.read(&mut buf).unwrap(), 4);

        // A peer close surfaces as readable (EOF) with the closed hint.
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
            if events.iter().any(|e| e.token == 8 && e.closed) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no closed event");
        }
        poller.deregister(peer.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn interest_modification_gates_writable_events() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (peer, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(peer.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token != 3 || !e.writable || e.closed),
            "read-only interest must not report plain writability"
        );
        poller
            .modify(peer.as_raw_fd(), 3, Interest::WRITABLE)
            .unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
    }

    #[test]
    fn send_buffer_can_be_shrunk_for_stall_tests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (peer, _) = listener.accept().unwrap();
        set_send_buffer(peer.as_raw_fd(), 4096).unwrap();
        set_recv_buffer(peer.as_raw_fd(), 4096).unwrap();
    }
}
