//! Readiness waits for the daemon's threads.
//!
//! Every daemon thread (IO worker, accept loop, metrics side port) owns a
//! [`Poller`]: a reusable `pollfd` buffer whose first slot is the read end
//! of the thread's wake channel. A thread with nothing to do registers the
//! sockets it serves and blocks in `poll(2)` until the kernel reports one
//! of them ready, its [`Waker`] is poked, or the caller's timeout (the
//! earliest idle deadline) passes. Wakes are level-triggered bytes, so a
//! wake sent before the thread reaches `poll` is never lost.
//!
//! `poll` is declared through `extern "C"` (std already links libc) to
//! keep the crate dependency-free; `epoll` is deliberately not used — a
//! worker serves a handful of connections, and `poll` over them is one
//! syscall with no registration state to keep in sync.

use std::io;
use std::time::Duration;

#[cfg(unix)]
pub(crate) use std::os::unix::io::RawFd;

/// Placeholder fd type where there is no `poll(2)`; never waited on.
#[cfg(not(unix))]
pub(crate) type RawFd = ();

/// Creates one wake channel: the [`Waker`] pokes, the [`Poller`] waits.
#[cfg(unix)]
pub(crate) fn channel() -> io::Result<(Waker, Poller)> {
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let wake_slot = PollFd {
        fd: rx.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    Ok((
        Waker(tx),
        Poller {
            rx,
            fds: vec![wake_slot],
        },
    ))
}

/// The sending half of a wake channel.
#[cfg(unix)]
pub(crate) struct Waker(std::os::unix::net::UnixStream);

#[cfg(unix)]
impl Waker {
    /// Makes the paired [`Poller`]'s current or next wait return. A full
    /// channel (`WouldBlock`) already holds a pending wake, so the error
    /// is dropped.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.0).write(&[1]);
    }
}

/// `struct pollfd` from `<poll.h>`.
#[cfg(unix)]
#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

#[cfg(unix)]
const POLLIN: std::os::raw::c_short = 0x001;
#[cfg(unix)]
const POLLOUT: std::os::raw::c_short = 0x004;

/// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` elsewhere.
#[cfg(all(unix, target_os = "linux"))]
type NFds = std::os::raw::c_ulong;
#[cfg(all(unix, not(target_os = "linux")))]
type NFds = std::os::raw::c_uint;

#[cfg(unix)]
extern "C" {
    // libc::poll, which std already links; declared here to keep the
    // crate dependency-free.
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// One thread's readiness wait: the wake channel's read end in slot 0,
/// then the fds registered since the last [`Poller::clear`].
#[cfg(unix)]
pub(crate) struct Poller {
    rx: std::os::unix::net::UnixStream,
    fds: Vec<PollFd>,
}

#[cfg(unix)]
impl Poller {
    /// Drops every registered fd but the wake channel. The buffer keeps
    /// its capacity, so re-registering the same set allocates nothing.
    pub(crate) fn clear(&mut self) {
        self.fds.truncate(1);
        if let Some(slot) = self.fds.first_mut() {
            slot.revents = 0;
        }
    }

    /// Registers `fd` for readability when `read` is set and for
    /// writability when `write` is set.
    pub(crate) fn add(&mut self, fd: RawFd, read: bool, write: bool) {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
    }

    /// Blocks until a registered fd is ready, the channel is woken, or
    /// `timeout` passes (`None` waits without limit); `Duration::ZERO`
    /// only checks. Returns whether any fd or the channel was ready.
    /// Consumes pending wakes, so the next wait blocks again until a new
    /// one.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> bool {
        let timeout_ms = match timeout {
            // Round up: returning before a deadline would only spin.
            Some(d) => {
                let ms = d.as_nanos().div_ceil(1_000_000);
                std::os::raw::c_int::try_from(ms).unwrap_or(std::os::raw::c_int::MAX)
            }
            None => -1,
        };
        // A length `nfds_t` cannot hold would need more fds than a process
        // may open; poll none rather than overstate the buffer.
        let nfds = NFds::try_from(self.fds.len()).unwrap_or(0);
        // SAFETY: `fds` is a live, exclusively borrowed buffer of
        // `#[repr(C)]` pollfd records and `nfds` never exceeds its
        // length; `poll` only writes the `revents` fields within it. An
        // error (EINTR from the SIGTERM handler, say) reports nothing
        // ready, like a spurious wake: every caller re-checks its state
        // afterwards.
        let ready = unsafe { poll(self.fds.as_mut_ptr(), nfds, timeout_ms) };
        let woken = self.fds.first().is_some_and(|slot| slot.revents != 0);
        if woken {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        ready > 0
    }
}

/// Where there is no `poll(2)`: wakes are no-ops and a wait is the
/// short sleep the daemon always used, after which callers re-check.
#[cfg(not(unix))]
pub(crate) fn channel() -> io::Result<(Waker, Poller)> {
    Ok((Waker, Poller))
}

#[cfg(not(unix))]
pub(crate) struct Waker;

#[cfg(not(unix))]
impl Waker {
    pub(crate) fn wake(&self) {}
}

#[cfg(not(unix))]
pub(crate) struct Poller;

#[cfg(not(unix))]
impl Poller {
    pub(crate) fn clear(&mut self) {}

    pub(crate) fn add(&mut self, _fd: RawFd, _read: bool, _write: bool) {}

    pub(crate) fn wait(&mut self, timeout: Option<Duration>) -> bool {
        let tick = Duration::from_micros(100);
        std::thread::sleep(timeout.map_or(tick, |t| t.min(tick)));
        false
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn a_zero_timeout_wait_reports_and_drains_a_wake() {
        let (waker, mut poller) = channel().expect("wake channel");
        assert!(!poller.wait(Some(Duration::ZERO)), "nothing is ready yet");
        waker.wake();
        waker.wake();
        assert!(poller.wait(Some(Duration::ZERO)), "the wake is reported");
        assert!(
            !poller.wait(Some(Duration::ZERO)),
            "both wake bytes were drained, so a spin cannot hit forever"
        );
    }
}
