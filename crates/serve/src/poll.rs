//! Readiness polling for the event-loop server front end.
//!
//! The workspace is std-only, so — in the same spirit as [`crate::signal`] —
//! this module talks to the OS through hand-rolled `extern "C"` declarations
//! instead of an event-loop crate. The [`Poller`] is Linux **epoll**
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`), level-triggered. Level
//! triggering keeps the loop's state machine simple — a connection with
//! unread bytes or an unflushed outbox stays ready until drained, so no
//! readiness edge can be lost.
//!
//! A [`Waker`] — a non-blocking pipe whose read end is registered like any
//! connection — lets worker threads interrupt a blocked wait to hand
//! completed responses back to the loop.
//!
//! Off Linux the module still compiles but constructing a [`Poller`]
//! returns `Unsupported`; the serving API surface stays portable the same
//! way [`crate::signal::install`] degrades to a no-op. (The constants
//! below — `O_NONBLOCK`, the `epoll_event` layout — are Linux's; a second
//! backend for another Unix needs its own, not a shared fallback.)

/// Readiness interest for one registered file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the resting state of an idle connection.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Readable and writable — a connection with queued output.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
}

/// One readiness event: the token the fd was registered under plus what it
/// is ready for. `error`/`hangup` conditions are reported as readable so the
/// owner observes them through a read returning 0/err.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Registration token (the server uses connection ids).
    pub token: u64,
    /// Readable, had an error, or hung up.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

pub use imp::{Poller, Waker};

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;

    // libc surface (x86-64 and aarch64 Linux ABIs).
    extern "C" {
        fn close(fd: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;

    /// Put `fd` into non-blocking mode.
    pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
        unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags < 0 {
                return Err(io::Error::last_os_error());
            }
            if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    /// Worker-to-loop doorbell: a non-blocking pipe. The read end is
    /// registered with the poller; [`Waker::wake`] writes one byte, which
    /// makes a blocked wait return. Cheap, async-signal-safe, no locks.
    #[derive(Debug)]
    pub struct Waker {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    impl Waker {
        /// Create the pipe pair, both ends non-blocking.
        pub fn new() -> io::Result<Waker> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            let (r, w) = (fds[0], fds[1]);
            let setup = set_nonblocking(r).and_then(|()| set_nonblocking(w));
            if let Err(e) = setup {
                unsafe {
                    close(r);
                    close(w);
                }
                return Err(e);
            }
            Ok(Waker { read_fd: r, write_fd: w })
        }

        /// The fd to register with the poller (readable when woken).
        pub fn fd(&self) -> RawFd {
            self.read_fd
        }

        /// Ring the doorbell. A full pipe means a wake-up is already
        /// pending, which is exactly as good — the error is ignored.
        pub fn wake(&self) {
            let byte = [1u8];
            unsafe {
                let _ = write(self.write_fd, byte.as_ptr(), 1);
            }
        }

        /// Drain pending wake-up bytes after the loop observed readiness.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }

    /// Readiness poller over registered fds: one epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    mod epoll_sys {
        extern "C" {
            pub fn epoll_create1(flags: i32) -> i32;
            pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            pub fn epoll_wait(
                epfd: i32,
                events: *mut EpollEvent,
                maxevents: i32,
                timeout_ms: i32,
            ) -> i32;
        }

        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;

        /// `struct epoll_event`. Packed on x86-64 (the kernel ABI has no
        /// padding between the 32-bit mask and the 64-bit data word there).
        #[repr(C, packed)]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }
    }

    impl Poller {
        /// Create the epoll instance.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: no pointers cross the call; the result is checked.
            let epfd = unsafe { epoll_sys::epoll_create1(0) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        /// The backend's name, surfaced in server stats.
        pub fn backend_name(&self) -> &'static str {
            "epoll"
        }

        /// Register `fd` under `token` with the given interest.
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(epoll_sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change the interest of an already-registered fd.
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(epoll_sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mask = (if interest.readable { epoll_sys::EPOLLIN } else { 0 })
                | (if interest.writable { epoll_sys::EPOLLOUT } else { 0 });
            let mut ev = epoll_sys::EpollEvent { events: mask, data: token };
            // SAFETY: `ev` is a live `epoll_event` for the duration of the
            // call; the kernel validates both fds.
            if unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Deregister an fd (idempotent — unknown fds are ignored, since
        /// closing an fd already removes it from an epoll set).
        pub fn deregister(&mut self, fd: RawFd) {
            let mut ev = epoll_sys::EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`; an unknown fd is an ignored `ENOENT`.
            unsafe {
                let _ = epoll_sys::epoll_ctl(self.epfd, epoll_sys::EPOLL_CTL_DEL, fd, &mut ev);
            }
        }

        /// Block up to `timeout_ms` (negative = forever) for readiness,
        /// appending events to `out`. Returns the number of events. `EINTR`
        /// is reported as zero events, not an error.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            out.clear();
            let mut buf = [epoll_sys::EpollEvent { events: 0, data: 0 }; 64];
            // SAFETY: the kernel writes at most `buf.len()` events into `buf`.
            let n = unsafe {
                epoll_sys::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for ev in &buf[..n as usize] {
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data,
                    readable: events
                        & (epoll_sys::EPOLLIN | epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP)
                        != 0,
                    writable: events & epoll_sys::EPOLLOUT != 0,
                });
            }
            Ok(out.len())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is owned by this poller and closed only here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::io;

    /// Non-Linux stub; construction fails with `Unsupported`.
    #[derive(Debug)]
    pub struct Waker {}

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "no poller on this platform"))
        }
        pub fn fd(&self) -> i32 {
            -1
        }
        pub fn wake(&self) {}
        pub fn drain(&self) {}
    }

    /// Non-Linux stub; construction fails with `Unsupported`.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "no poller on this platform"))
        }
        pub fn backend_name(&self) -> &'static str {
            "none"
        }
        pub fn register(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "no poller on this platform"))
        }
        pub fn modify(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "no poller on this platform"))
        }
        pub fn deregister(&mut self, _fd: i32) {}
        pub fn wait(&mut self, _out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "no poller on this platform"))
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait sees nothing.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        waker.wake();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        waker.drain();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "drain clears readiness");
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let mut poller = Poller::new().unwrap();
        let fd = server.as_raw_fd();
        poller.register(fd, 42, Interest::READ).unwrap();

        let mut events = Vec::new();
        client.write_all(b"x").unwrap();
        assert!(poller.wait(&mut events, 1000).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        // Level-triggered: still readable until consumed.
        assert!(poller.wait(&mut events, 0).unwrap() >= 1);
        let mut byte = [0u8; 1];
        (&server).read_exact(&mut byte).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        // An idle socket with write interest reports writable.
        poller.modify(fd, 42, Interest::READ_WRITE).unwrap();
        assert!(poller.wait(&mut events, 1000).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 42 && e.writable));

        poller.deregister(fd);
        waker_free_wait_sees_nothing(&mut poller);
    }

    fn waker_free_wait_sees_nothing(poller: &mut Poller) {
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn hangup_reports_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, 1000).unwrap() >= 1);
        assert!(events[0].readable, "hangup must surface as readable (read -> 0)");
    }
}
