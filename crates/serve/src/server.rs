//! The daemon: accept loop, thread-per-core IO workers, graceful drain,
//! and the Prometheus scrape side port.
//!
//! Threading model: the server builds a *dedicated* [`mbp_par::ThreadPool`]
//! (sized from [`mbp_par::max_threads`], so `MBP_THREADS` / `--threads`
//! govern it) and feeds each worker one long-lived IO loop via
//! [`mbp_par::ThreadPool::run`]. The shared compute pool is deliberately
//! *not* used: a parked IO loop would pin its workers and starve fork-join
//! regions elsewhere in the process. Pool workers are marked, so any
//! parallel region reached from a dispatch (e.g. a publish retraining)
//! degrades to sequential instead of oversubscribing.
//!
//! Connections are assigned to IO workers round-robin at accept time and
//! never migrate, which keeps every connection's cycle single-threaded —
//! the property the per-connection RNG determinism rests on.
//!
//! Readiness waits: on unix no daemon thread sleeps on a timer. An IO
//! worker runs passes over its connections while any of them makes
//! progress that may leave more to do. A connection whose read drained
//! the socket and left nothing to serve reports `CycleResult::Waiting`
//! instead, so a depth-1 request costs one pass, not a productive pass
//! plus an empty one. After a pass with no such progress the worker
//! blocks in `poll(2)` on its sockets
//! (readable, plus writable while responses are still unwritten) and its
//! own wake fd, for at most the time until its earliest idle deadline.
//! On a machine with more than one CPU, a worker that has just served a
//! request, and whose previous wait ended within [`SPIN_WINDOW`], first
//! polls the same fds with a zero timeout for up to that window: a
//! depth-1 client's next request then usually finds the worker still
//! running instead of parked.
//! The accept thread waits on the listener and its wake fd, the metrics
//! thread on its listener and its wake fd. Each wake fd is one end of a
//! socket pair ([`crate::wake`]); the accept thread pokes a worker's
//! after pushing a socket into that worker's inbox.
//!
//! Shutdown: SIGTERM (when [`ServerConfig::handle_sigterm`] is set), a
//! client shutdown control frame, or [`ServerHandle::shutdown`] all end in
//! one drain: set the drain flag, then poke every thread's wake fd. The
//! SIGTERM handler itself writes one byte to a process-wide wake fd the
//! accept thread waits on, and the worker that dispatched a shutdown
//! frame wakes the rest. The accept loop closes, every connection stops
//! reading, serves what it already buffered, flushes, closes — then the
//! IO loops exit and [`ServerHandle::wait`] returns the run's stats.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mbp_core::market::concurrent::SharedBroker;

use crate::conn::{Conn, ConnConfig, CycleResult};
use crate::wake::{self, Poller, RawFd, Waker};

/// Tuning for one [`start`]ed daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Bind address for the `GET /metrics` side port; `None` disables it.
    pub metrics_addr: Option<String>,
    /// IO worker threads; `0` means [`mbp_par::max_threads`].
    pub io_threads: usize,
    /// `false` disables batch admission (the loadgen baseline mode).
    pub batch_admission: bool,
    /// Max decoded-but-undispatched requests per connection before an
    /// unsolicited backpressure frame is sent and decoding pauses.
    pub queue_limit: usize,
    /// Close a connection after this long without any progress.
    pub idle_timeout: Duration,
    /// Install a SIGTERM handler that triggers the graceful drain.
    pub handle_sigterm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            io_threads: 0,
            batch_admission: true,
            queue_limit: 1024,
            idle_timeout: Duration::from_secs(30),
            handle_sigterm: false,
        }
    }
}

/// Counters accumulated over one server run.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the run.
    pub connections: u64,
    /// Requests decoded off the wire.
    pub requests: u64,
}

struct Control {
    draining: AtomicBool,
    accepted: AtomicU64,
    live_conns: AtomicU64,
    /// One waker per daemon thread: the IO workers' first, in inbox
    /// order, then the accept thread's and (when enabled) the metrics
    /// thread's.
    wakers: Vec<Waker>,
}

impl Control {
    /// Sets the drain flag and wakes every daemon thread to act on it.
    fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

/// A running server; dropping it (or calling [`ServerHandle::wait`])
/// drains and joins everything.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    control: Arc<Control>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    metrics_thread: Option<std::thread::JoinHandle<()>>,
    pool: Option<mbp_par::ThreadPool>,
}

impl ServerHandle {
    /// The bound serving address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics address, when the side port is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Starts the drain: stop accepting, serve buffered requests, flush,
    /// close. Returns immediately; pair with [`ServerHandle::wait`].
    pub fn shutdown(&self) {
        self.control.drain();
    }

    /// Blocks until the drain completes and every thread has exited,
    /// returning the run's stats.
    pub fn wait(mut self) -> ServerStats {
        self.join_all();
        ServerStats {
            connections: self.control.accepted.load(Ordering::Relaxed),
            // Counters are recorded only while `mbp_obs` is enabled; the
            // CLI and loadgen both enable it before starting the server.
            requests: mbp_obs::snapshot()
                .counters
                .iter()
                .find(|(name, _)| name == "mbp.serve.requests")
                .map_or(0, |(_, value)| *value),
        }
    }

    /// `true` once the drain flag is set (by SIGTERM, a control frame, or
    /// [`ServerHandle::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.control.draining.load(Ordering::Relaxed)
    }

    fn join_all(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Dropping the pool joins the IO loops (they exit once draining
        // completes and their connection lists empty).
        self.pool.take();
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.control.drain();
        self.join_all();
    }
}

/// SIGTERM flag shared by every server in the process (signal handlers
/// are process-global anyway).
static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

/// Installs the SIGTERM handler and returns the read end of the
/// process-wide SIGTERM wake fd, which the handler writes one byte to.
/// The fd stays readable from then on, so every SIGTERM-handling server's
/// accept thread wakes, sees [`SIGTERM_SEEN`] and drains.
#[cfg(unix)]
fn install_sigterm_handler() -> std::io::Result<RawFd> {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicI32;
    use std::sync::OnceLock;
    const SIGTERM: c_int = 15;
    /// Write end of the wake pair, for the handler; `-1` until created.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
    /// The pair lives for the rest of the process, so `WAKE_FD` never
    /// names a closed (or reused) descriptor.
    static PAIR: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();
    extern "C" fn on_sigterm(_sig: c_int) {
        SIGTERM_SEEN.store(true, Ordering::Relaxed);
        let fd = WAKE_FD.load(Ordering::Relaxed);
        if fd >= 0 {
            let byte = 1u8;
            // SAFETY: `write(2)` is async-signal-safe. `fd` is the write
            // end of `PAIR`, which is never closed; it is non-blocking, so
            // a full socket buffer (which already holds a wake) fails
            // fast instead of stalling the handler — the only case in
            // which the call sets `errno`. `byte` outlives the call.
            unsafe {
                write(fd, (&byte as *const u8).cast::<c_void>(), 1);
            }
        }
    }
    extern "C" {
        // libc::signal and libc::write, which std already links; declared
        // here to keep the crate dependency-free.
        fn signal(signum: c_int, handler: *const c_void) -> *const c_void;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
    let pair = match PAIR.get() {
        Some(pair) => pair,
        None => {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            PAIR.get_or_init(|| (tx, rx))
        }
    };
    WAKE_FD.store(pair.0.as_raw_fd(), Ordering::Relaxed);
    // SAFETY: `on_sigterm` is async-signal-safe (relaxed atomic loads and
    // stores plus one `write(2)`; no allocation, no locks), and `signal`
    // only swaps the process's SIGTERM disposition to it.
    unsafe {
        signal(SIGTERM, on_sigterm as *const c_void);
    }
    Ok(pair.1.as_raw_fd())
}

#[cfg(not(unix))]
fn install_sigterm_handler() -> std::io::Result<RawFd> {
    Ok(())
}

/// Starts the daemon over `broker` and returns its handle.
pub fn start(broker: SharedBroker, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let sigterm_fd = if cfg.handle_sigterm {
        Some(install_sigterm_handler()?)
    } else {
        None
    };
    let metrics_listener = match &cfg.metrics_addr {
        Some(maddr) => {
            let mlistener = TcpListener::bind(maddr)?;
            mlistener.set_nonblocking(true)?;
            Some(mlistener)
        }
        None => None,
    };

    let conn_cfg = ConnConfig {
        queue_limit: cfg.queue_limit.max(1),
        read_buf_limit: 256 * 1024,
        per_request: !cfg.batch_admission,
    };
    let io_threads = if cfg.io_threads == 0 {
        mbp_par::max_threads()
    } else {
        cfg.io_threads
    }
    .max(1);

    // One wake channel per daemon thread, in `Control::wakers` order.
    let mut wakers = Vec::new();
    let mut worker_pollers = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let (waker, poller) = wake::channel()?;
        wakers.push(waker);
        worker_pollers.push(poller);
    }
    let (accept_waker, accept_poller) = wake::channel()?;
    wakers.push(accept_waker);
    let metrics = match metrics_listener {
        Some(mlistener) => {
            let (waker, poller) = wake::channel()?;
            wakers.push(waker);
            Some((mlistener, poller))
        }
        None => None,
    };
    let control = Arc::new(Control {
        draining: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        live_conns: AtomicU64::new(0),
        wakers,
    });

    // One inbox of freshly accepted sockets per IO worker.
    let inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..io_threads)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();

    let pool = mbp_par::ThreadPool::new(io_threads);
    for (inbox, poller) in inboxes.iter().zip(worker_pollers) {
        let inbox = Arc::clone(inbox);
        let broker = broker.clone();
        let control = Arc::clone(&control);
        let conn_cfg = conn_cfg.clone();
        let idle_timeout = cfg.idle_timeout;
        pool.run(move || io_loop(&inbox, &broker, &control, &conn_cfg, idle_timeout, poller));
    }

    // From here on an early return drops the handle, which drains and
    // joins whatever already started.
    let mut handle = ServerHandle {
        addr,
        metrics_addr: None,
        control: Arc::clone(&control),
        accept_thread: None,
        metrics_thread: None,
        pool: Some(pool),
    };
    let accept_control = Arc::clone(&control);
    handle.accept_thread = Some(
        std::thread::Builder::new()
            .name("mbp-serve-accept".to_string())
            .spawn(move || {
                accept_loop(
                    listener,
                    &inboxes,
                    &accept_control,
                    accept_poller,
                    sigterm_fd,
                )
            })?,
    );
    if let Some((mlistener, mpoller)) = metrics {
        handle.metrics_addr = Some(mlistener.local_addr()?);
        handle.metrics_thread = Some(
            std::thread::Builder::new()
                .name("mbp-serve-metrics".to_string())
                .spawn(move || metrics_loop(mlistener, &control, mpoller))?,
        );
    }
    Ok(handle)
}

#[cfg(unix)]
fn listener_fd(listener: &TcpListener) -> RawFd {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

#[cfg(not(unix))]
fn listener_fd(_listener: &TcpListener) -> RawFd {}

/// Backoff after an accept error other than `WouldBlock` (e.g. out of
/// fds): the listener stays readable, so waiting on it would spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(1);

fn accept_loop(
    listener: TcpListener,
    inboxes: &[Arc<Mutex<Vec<TcpStream>>>],
    control: &Control,
    mut poller: Poller,
    sigterm_fd: Option<RawFd>,
) {
    let mut next = 0usize;
    loop {
        if sigterm_fd.is_some() && SIGTERM_SEEN.load(Ordering::Relaxed) {
            control.drain();
        }
        if control.draining.load(Ordering::Relaxed) {
            return; // closing the listener refuses new connections
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                control.accepted.fetch_add(1, Ordering::Relaxed);
                control.live_conns.fetch_add(1, Ordering::Relaxed);
                mbp_obs::inc("mbp.serve.accepted");
                mbp_obs::gauge_add("mbp.serve.connections", 1.0);
                let worker = next % inboxes.len();
                if let Some(inbox) = inboxes.get(worker) {
                    if let Ok(mut q) = inbox.lock() {
                        q.push(stream);
                    }
                }
                if let Some(waker) = control.wakers.get(worker) {
                    waker.wake();
                }
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                poller.clear();
                poller.add(listener_fd(&listener), true, false);
                if let Some(fd) = sigterm_fd {
                    poller.add(fd, true, false);
                }
                poller.wait(None);
            }
            Err(_) => {
                poller.clear();
                poller.wait(Some(ACCEPT_ERROR_BACKOFF));
            }
        }
    }
}

struct Tracked {
    conn: Conn,
    last_progress: Instant,
}

/// How long an IO worker that just served a request keeps checking its
/// sockets without blocking before it parks in `poll(2)`. A depth-1
/// client's next request usually lands inside it, and the worker then
/// takes it without waiting for the scheduler to wake it.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// The spin window on a machine with `parallelism` CPUs: none on one CPU,
/// where a spinning worker would only delay the peer it waits for.
fn spin_window(parallelism: usize) -> Duration {
    if parallelism > 1 {
        SPIN_WINDOW
    } else {
        Duration::ZERO
    }
}

/// Waits for the worker's next event. With `spin` set, it first checks
/// the registered fds without blocking until one is ready or `spin`
/// passes; then, if none was, it blocks in `poll(2)` until `deadline`.
/// Returns whether the whole wait ended within [`SPIN_WINDOW`]: a spin
/// hit, or a blocking wait with no spin before it that returned that
/// soon. A missed spin is never short, so a client slower than the
/// window costs one missed spin before the worker stops spinning.
fn wait_for_event(poller: &mut Poller, spin: Option<Duration>, deadline: Option<Instant>) -> bool {
    let start = Instant::now();
    if let Some(window) = spin {
        let until = start.checked_add(window);
        let hit = loop {
            if poller.wait(Some(Duration::ZERO)) {
                break true;
            }
            if until.is_none_or(|u| Instant::now() >= u) {
                break false;
            }
        };
        mbp_obs::observe("mbp.serve.spin.seconds", start.elapsed().as_secs_f64());
        if hit {
            mbp_obs::inc("mbp.serve.spin_hits");
            return true;
        }
        mbp_obs::inc("mbp.serve.spin_misses");
    }
    poller.wait(deadline.map(|d| d.saturating_duration_since(Instant::now())));
    start.elapsed() < SPIN_WINDOW
}

fn io_loop(
    inbox: &Mutex<Vec<TcpStream>>,
    broker: &SharedBroker,
    control: &Control,
    cfg: &ConnConfig,
    idle_timeout: Duration,
    mut poller: Poller,
) {
    let mut conns: Vec<Tracked> = Vec::new();
    let window =
        spin_window(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    // Zero-valued, so `/metrics` lists the spin counters from the start.
    mbp_obs::counter_add("mbp.serve.spin_hits", 0);
    mbp_obs::counter_add("mbp.serve.spin_misses", 0);
    // Whether the previous wait ended within the spin window.
    let mut last_wait_short = false;
    loop {
        // Adopt newly accepted sockets.
        if let Ok(mut q) = inbox.lock() {
            for stream in q.drain(..) {
                conns.push(Tracked {
                    conn: Conn::new(stream),
                    last_progress: Instant::now(),
                });
            }
        }
        let draining = control.draining.load(Ordering::Relaxed);
        if draining && conns.is_empty() {
            return;
        }
        // Progress includes closing a connection: the next pass must
        // re-check whether a draining worker has any left.
        let mut any_progress = false;
        // Some connection was served and then drained its socket.
        let mut served = false;
        let now = Instant::now();
        conns.retain_mut(|t| {
            let result = t.conn.cycle(broker, cfg, &control.draining);
            match result {
                CycleResult::Progress => {
                    t.last_progress = now;
                    any_progress = true;
                    true
                }
                CycleResult::Waiting => {
                    t.last_progress = now;
                    served = true;
                    true
                }
                CycleResult::Idle => {
                    if now.duration_since(t.last_progress) > idle_timeout {
                        mbp_obs::inc("mbp.serve.idle_closed");
                        close_conn(control);
                        any_progress = true;
                        false
                    } else {
                        true
                    }
                }
                CycleResult::Closed => {
                    close_conn(control);
                    any_progress = true;
                    false
                }
            }
        });
        if !draining && control.draining.load(Ordering::Relaxed) {
            // A shutdown frame on one of this worker's connections set
            // the flag; wake every other thread to drain too.
            control.drain();
        }
        if !any_progress {
            // Nothing moved, or every connection that moved is now
            // waiting on its socket: wait for a socket, a wake, or the
            // earliest idle deadline. A draining connection no longer
            // reads. Right after serving a request, spin first when the
            // previous wait was short too: the next request is likely
            // already on its way.
            poller.clear();
            let mut deadline: Option<Instant> = None;
            for t in &conns {
                poller.add(t.conn.raw_fd(), !draining, t.conn.has_unwritten());
                if let Some(due) = t.last_progress.checked_add(idle_timeout) {
                    deadline = Some(deadline.map_or(due, |d| d.min(due)));
                }
            }
            let spin = (served && last_wait_short && !window.is_zero()).then_some(window);
            last_wait_short = wait_for_event(&mut poller, spin, deadline);
        }
    }
}

fn close_conn(control: &Control) {
    control.live_conns.fetch_sub(1, Ordering::Relaxed);
    mbp_obs::gauge_add("mbp.serve.connections", -1.0);
}

/// Minimal HTTP responder for `GET /metrics`: one request per connection,
/// Prometheus text exposition of the live `mbp-obs` snapshot.
fn metrics_loop(listener: TcpListener, control: &Control, mut poller: Poller) {
    loop {
        if control.draining.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = stream.set_nonblocking(false);
                let mut buf = [0u8; 2048];
                let mut head = Vec::new();
                while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => head.extend_from_slice(buf.get(..n).unwrap_or(&[])),
                        Err(_) => break,
                    }
                }
                let request_line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
                let body = if request_line.starts_with(b"GET /metrics") {
                    mbp_obs::to_prometheus(&mbp_obs::snapshot())
                } else {
                    String::new()
                };
                let response = if body.is_empty() {
                    "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_string()
                } else {
                    format!(
                        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    )
                };
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                poller.clear();
                poller.add(listener_fd(&listener), true, false);
                poller.wait(None);
            }
            Err(_) => {
                poller.clear();
                poller.wait(Some(ACCEPT_ERROR_BACKOFF));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_window_is_zero_on_one_cpu() {
        assert_eq!(spin_window(1), Duration::ZERO);
        assert_eq!(spin_window(2), SPIN_WINDOW);
        assert_eq!(spin_window(64), SPIN_WINDOW);
    }

    #[cfg(unix)]
    #[test]
    fn a_missed_spin_falls_through_to_the_blocking_wait() {
        let (waker, mut poller) = wake::channel().expect("wake channel");
        let deadline = Instant::now().checked_add(Duration::from_millis(1));
        // Nothing is ready: the spin misses, then the blocking wait runs
        // to the 1 ms deadline, which is longer than the window.
        assert!(!wait_for_event(&mut poller, Some(SPIN_WINDOW), deadline));
        // A pending wake makes the spin hit at once.
        waker.wake();
        assert!(wait_for_event(&mut poller, Some(SPIN_WINDOW), None));
    }
}
