//! The one system call the fabric needs that std does not wrap:
//! `poll(2)`, declared against the C library std already links.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readable (or, on a listener, a connection is waiting).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error, hang-up, or an invalid descriptor: always reported.
pub(crate) const POLLERR_HUP_NVAL: c_short = 0x008 | 0x010 | 0x020;

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `events` on `source`'s descriptor.
    pub(crate) fn new(source: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported any of `events` (errors and
    /// hang-ups always count, as `poll` always reports them).
    pub(crate) fn ready(&self, events: c_short) -> bool {
        self.revents & (events | POLLERR_HUP_NVAL) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (rounded up to whole milliseconds), and returns how many are ready.
/// An interrupted call reads as a timeout.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
    let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
    // `struct pollfd` records and `nfds` is its length, so the kernel
    // reads and writes only memory this call owns.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    n.max(0) as usize
}
