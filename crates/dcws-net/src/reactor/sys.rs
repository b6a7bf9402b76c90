//! FFI shim: the raw readiness, gather-write, rlimit and socket
//! syscalls, each behind a safe function. Every `extern` declaration
//! and every `unsafe` block of the crate lives in this file.
//!
//! The workspace vendors all dependencies, so there is no `libc` crate to
//! lean on; `std` already links the platform libc, and these foreign
//! declarations are the entire surface the reactor needs.

use std::io;
use std::marker::PhantomData;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::RawFd;

/// Map a `-1`-on-error libc return to `io::Result`.
fn cvt(rc: c_int) -> io::Result<c_int> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// The foreign declarations themselves; everything outside this file
/// goes through the safe wrappers below.
mod ffi {
    use super::*;

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
        pub fn writev(fd: c_int, iov: *const IoVec<'_>, iovcnt: c_int) -> isize;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_int,
            len: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const SockAddrIn, len: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    }
}

/// `struct epoll_event` — packed on x86-64 (the kernel ABI), natural
/// layout elsewhere, mirroring glibc's `__EPOLL_PACKED`.
#[cfg(target_os = "linux")]
#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: c_int = 0o2000000;
#[cfg(target_os = "linux")]
pub const EPOLL_CTL_ADD: c_int = 1;
#[cfg(target_os = "linux")]
pub const EPOLL_CTL_DEL: c_int = 2;
#[cfg(target_os = "linux")]
pub const EPOLL_CTL_MOD: c_int = 3;
#[cfg(target_os = "linux")]
pub const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
pub const EPOLLOUT: u32 = 0x004;
#[cfg(target_os = "linux")]
pub const EPOLLERR: u32 = 0x008;
#[cfg(target_os = "linux")]
pub const EPOLLHUP: u32 = 0x010;

/// A new close-on-exec epoll instance; closed when the handle drops.
#[cfg(target_os = "linux")]
pub fn epoll_create() -> io::Result<std::os::fd::OwnedFd> {
    use std::os::fd::FromRawFd;
    // SAFETY: no pointer arguments.
    let epfd = cvt(unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) })?;
    // SAFETY: `epfd` was just returned by the kernel and nothing else
    // holds it.
    Ok(unsafe { std::os::fd::OwnedFd::from_raw_fd(epfd) })
}

/// `epoll_ctl(epfd, op, fd, &mut ev)`.
#[cfg(target_os = "linux")]
pub fn epoll_ctl(epfd: RawFd, op: c_int, fd: RawFd, mut ev: EpollEvent) -> io::Result<()> {
    // SAFETY: `ev` is a live, exclusively borrowed `epoll_event` for the
    // duration of the call; bad descriptors are reported as errors.
    cvt(unsafe { ffi::epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// `epoll_wait` into `events`; returns how many entries were filled.
#[cfg(target_os = "linux")]
pub fn epoll_wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
    let cap = events.len().min(c_int::MAX as usize) as c_int;
    // SAFETY: the kernel writes at most `cap` entries into the
    // exclusively borrowed slice, which holds at least that many.
    cvt(unsafe { ffi::epoll_wait(epfd, events.as_mut_ptr(), cap, timeout_ms) }).map(|n| n as usize)
}

/// `struct pollfd` — identical layout on every POSIX platform.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

pub const POLLIN: c_short = 0x001;
pub const POLLOUT: c_short = 0x004;
pub const POLLERR: c_short = 0x008;
pub const POLLHUP: c_short = 0x010;
pub const POLLNVAL: c_short = 0x020;

/// `nfds_t` is `unsigned long` on Linux, `unsigned int` on the BSDs
/// (including macOS).
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// `poll(2)` over `fds`; returns how many entries have `revents` set.
pub fn poll(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
    // SAFETY: the kernel reads and writes exactly `fds.len()` entries of
    // the exclusively borrowed slice.
    cvt(unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) }).map(|n| n as usize)
}

/// `struct rlimit`; `rlim_t` is 64-bit on every supported target.
#[repr(C)]
pub struct Rlimit {
    pub rlim_cur: u64,
    pub rlim_max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

/// The process's open-file limits (`RLIMIT_NOFILE`).
pub fn nofile_limit() -> io::Result<Rlimit> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live `struct rlimit` the kernel fills in.
    cvt(unsafe { ffi::getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    Ok(lim)
}

/// Set the process's open-file limits (`RLIMIT_NOFILE`).
pub fn set_nofile_limit(lim: &Rlimit) -> io::Result<()> {
    // SAFETY: `lim` is a live `struct rlimit` the kernel only reads.
    cvt(unsafe { ffi::setrlimit(RLIMIT_NOFILE, lim) }).map(|_| ())
}

/// `struct iovec` — identical layout on every POSIX platform. Built only
/// from a borrowed slice, which the lifetime keeps alive and unmodified
/// for as long as the entry exists; that is what makes [`writev`] safe.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct IoVec<'a> {
    base: *const u8,
    len: usize,
    _bytes: PhantomData<&'a [u8]>,
}

impl<'a> IoVec<'a> {
    /// An entry covering `bytes`.
    pub const fn new(bytes: &'a [u8]) -> IoVec<'a> {
        IoVec {
            base: bytes.as_ptr(),
            len: bytes.len(),
            _bytes: PhantomData,
        }
    }

    /// The bytes this entry covers.
    #[cfg(test)]
    pub fn as_slice(&self) -> &'a [u8] {
        // SAFETY: the entry was built by `new` from a slice that `'a`
        // keeps borrowed.
        unsafe { std::slice::from_raw_parts(self.base, self.len) }
    }
}

/// Gather-write: one syscall drains head + body segments without ever
/// concatenating them in user space. Returns the bytes the kernel took.
pub fn writev(fd: RawFd, iov: &[IoVec<'_>]) -> io::Result<usize> {
    let cnt = iov.len().min(c_int::MAX as usize) as c_int;
    // SAFETY: every entry points into a slice its lifetime keeps
    // borrowed (see `IoVec`), and the kernel only reads them.
    let n = unsafe { ffi::writev(fd, iov.as_ptr(), cnt) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

// Socket-level FFI for SO_REUSEPORT listener sharding. Only Linux
// gets the real thing (every other platform takes the hand-off
// fallback), so the constants below are the Linux ABI values.
#[cfg(target_os = "linux")]
const AF_INET: c_int = 2;
#[cfg(target_os = "linux")]
const SOCK_STREAM: c_int = 1;
#[cfg(target_os = "linux")]
const SOCK_CLOEXEC: c_int = 0o2000000;
#[cfg(target_os = "linux")]
const SOL_SOCKET: c_int = 1;
#[cfg(target_os = "linux")]
const SO_REUSEADDR: c_int = 2;
#[cfg(target_os = "linux")]
const SO_REUSEPORT: c_int = 15;

/// `struct sockaddr_in` (Linux): port and address in network order.
#[cfg(target_os = "linux")]
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: u16,
    addr: u32,
    zero: [u8; 8],
}

/// A listening IPv4 socket bound at `addr` with `SO_REUSEADDR` and
/// `SO_REUSEPORT` set *before* bind, which `std`'s `TcpListener` offers
/// no hook for.
#[cfg(target_os = "linux")]
pub fn reuseport_listener(addr: std::net::SocketAddrV4) -> io::Result<std::net::TcpListener> {
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    // SAFETY: no pointer arguments.
    let fd = cvt(unsafe { ffi::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `fd` was just returned by the kernel and nothing else
    // holds it; the handle closes it on any early error below.
    let sock = unsafe { OwnedFd::from_raw_fd(fd) };
    let fd = sock.as_raw_fd();
    let one: c_int = 1;
    let optlen = std::mem::size_of_val(&one) as u32;
    for opt in [SO_REUSEADDR, SO_REUSEPORT] {
        // SAFETY: `one` outlives the call and `optlen` is its size.
        cvt(unsafe { ffi::setsockopt(fd, SOL_SOCKET, opt, &one, optlen) })?;
    }
    let sa = SockAddrIn {
        family: AF_INET as u16,
        port: addr.port().to_be(),
        addr: u32::from(*addr.ip()).to_be(),
        zero: [0; 8],
    };
    // SAFETY: `sa` is a live `sockaddr_in` and the length is its size.
    cvt(unsafe { ffi::bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) })?;
    // SAFETY: no pointer arguments.
    cvt(unsafe { ffi::listen(fd, 1024) })?;
    Ok(std::net::TcpListener::from(sock))
}
