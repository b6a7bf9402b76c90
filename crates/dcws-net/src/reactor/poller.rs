//! Poller: one uniform readiness API over epoll (Linux) or poll (POSIX).

use super::sys;
use std::io;
#[cfg(target_os = "linux")]
use std::os::fd::{AsRawFd, OwnedFd};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// One readiness event: `token` is whatever the caller registered.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration token (the reactor packs a slab index +
    /// generation in here; the listener and waker use reserved values).
    pub token: u64,
    /// The descriptor is readable (or has pending accepts / EOF).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// Error or hangup — always delivered, even if neither interest was
    /// registered (both epoll and poll report these unconditionally).
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
struct EpollBackend {
    epfd: OwnedFd,
    scratch: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<EpollBackend> {
        Ok(EpollBackend {
            epfd: sys::epoll_create()?,
            scratch: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(
        &mut self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let ev = sys::EpollEvent {
            events: interest_bits(readable, writable),
            data: token,
        };
        sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, ev)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let ms = timeout.map_or(-1, |t| t.as_millis().min(i32::MAX as u128) as i32);
        let n = match sys::epoll_wait(self.epfd.as_raw_fd(), &mut self.scratch, ms) {
            Ok(n) => n,
            // A signal interrupting the wait is a zero-event wake.
            Err(err) if err.kind() == io::ErrorKind::Interrupted => return Ok(0),
            Err(err) => return Err(err),
        };
        for i in 0..n {
            let ev = self.scratch[i];
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

#[cfg(target_os = "linux")]
fn interest_bits(readable: bool, writable: bool) -> u32 {
    let mut bits = 0;
    if readable {
        bits |= sys::EPOLLIN;
    }
    if writable {
        bits |= sys::EPOLLOUT;
    }
    bits
}

/// The portable backend: registrations live in a vec, each `wait`
/// rebuilds the `pollfd` array. O(n) per wake where epoll is O(ready) —
/// fine for dev builds and small tests, which is all it serves.
struct PollBackend {
    entries: Vec<(RawFd, u64, bool, bool)>,
    scratch: Vec<sys::PollFd>,
}

impl PollBackend {
    fn new() -> PollBackend {
        PollBackend {
            entries: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn find(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == fd)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.scratch.clear();
        for &(fd, _, readable, writable) in &self.entries {
            let mut events = 0;
            if readable {
                events |= sys::POLLIN;
            }
            if writable {
                events |= sys::POLLOUT;
            }
            self.scratch.push(sys::PollFd {
                fd,
                events,
                revents: 0,
            });
        }
        let ms = timeout.map_or(-1, |t| t.as_millis().min(i32::MAX as u128) as i32);
        match sys::poll(&mut self.scratch, ms) {
            Ok(_) => {}
            Err(err) if err.kind() == io::ErrorKind::Interrupted => return Ok(0),
            Err(err) => return Err(err),
        }
        let mut pushed = 0;
        for (i, pfd) in self.scratch.iter().enumerate() {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token: self.entries[i].1,
                readable: r & sys::POLLIN != 0,
                writable: r & sys::POLLOUT != 0,
                hangup: r & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
            });
            pushed += 1;
        }
        Ok(pushed)
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
    Poll(PollBackend),
}

/// Readiness multiplexer: register descriptors with a `u64` token and an
/// (readable, writable) interest, then [`Poller::wait`] for batches of
/// [`Event`]s. Level-triggered on both backends.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// The platform's best backend: epoll on Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller {
                backend: Backend::Epoll(EpollBackend::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::with_poll_backend()
        }
    }

    /// The portable `poll(2)` backend, selectable on any platform — this
    /// is how Linux CI keeps the macOS fallback path compiled *and*
    /// behaviorally tested rather than bit-rotting behind a cfg.
    pub fn with_poll_backend() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::Poll(PollBackend::new()),
        })
    }

    /// Name of the active backend (surfaced in `/dcws/status`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Start watching `fd` under `token`.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable),
            Backend::Poll(b) => {
                if b.find(fd).is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                b.entries.push((fd, token, readable, writable));
                Ok(())
            }
        }
    }

    /// Change the interest set (and token) of a registered `fd`.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.ctl(sys::EPOLL_CTL_MOD, fd, token, readable, writable),
            Backend::Poll(b) => {
                let i = b
                    .find(fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                b.entries[i] = (fd, token, readable, writable);
                Ok(())
            }
        }
    }

    /// Stop watching `fd`. Must be called while the descriptor is still
    /// open (epoll requires a live fd for `EPOLL_CTL_DEL`).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false),
            Backend::Poll(b) => {
                let i = b
                    .find(fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                b.entries.swap_remove(i);
                Ok(())
            }
        }
    }

    /// Append ready events to `out` (which is *not* cleared), waiting up
    /// to `timeout` (`None` = forever). Returns how many were appended;
    /// `0` on timeout or signal interruption.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.wait(out, timeout),
            Backend::Poll(b) => b.wait(out, timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// Both backends deliver readable/writable events for a socket pair.
    #[test]
    fn poller_backends_deliver_events() {
        let make: [fn() -> io::Result<Poller>; 2] = [Poller::new, Poller::with_poll_backend];
        for poller_fn in make {
            let mut poller = poller_fn().unwrap();
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7, true, true).unwrap();
            let mut events = Vec::new();
            // Fresh socket: writable, not readable.
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            assert!(events
                .iter()
                .any(|e| e.token == 7 && e.writable && !e.readable));
            // After peer writes: readable too.
            a.write_all(b"x").unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));
            // Read-only interest after modify.
            poller.modify(b.as_raw_fd(), 7, true, false).unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(events.iter().all(|e| !e.writable));
            // Hangup is delivered even with empty interest.
            poller.modify(b.as_raw_fd(), 7, false, false).unwrap();
            drop(a);
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.hangup),
                "hangup must be delivered without registered interest"
            );
            poller.deregister(b.as_raw_fd()).unwrap();
        }
    }
}
