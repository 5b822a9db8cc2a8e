//! The system under test: the release `mbp-market serve` binary, built
//! from the checkout and run as a child process on a loopback ephemeral
//! port, plus its `GET /metrics` side port.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mbp_serve::wire::Response;
use mbp_serve::Client;

/// Seed of the connection that times set-up; workload connections use
/// their own seeds from `inputs::hello_seed`.
const PROBE_SEED: u64 = 0x0005_E70B;

/// The cargo target directory: `$CARGO_TARGET_DIR` (relative to the
/// checkout root) or `target`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Builds the release daemon from the checkout at `root` and returns its
/// path. A no-op when it is already up to date.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(format!("{} holds no mbp checkout", root.display()));
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mbp-cli",
        ])
        .args(["--bin", "mbp-market"])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target_dir(root))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mbp-market failed: {status}"));
    }
    Ok(target_dir(root).join("release").join("mbp-market"))
}

/// How to launch one daemon.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The `mbp-market` executable.
    pub exe: PathBuf,
    /// The Simulated1 CSV it trains on.
    pub csv: PathBuf,
    /// Its `--seed` (train/test split).
    pub split_seed: u64,
    /// Its `--threads`.
    pub threads: usize,
    /// `--wal DIR`, on a fresh directory, when durability is on.
    pub wal: Option<PathBuf>,
    /// Serve `GET /metrics` (traced runs only).
    pub metrics: bool,
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Serving address.
    pub addr: SocketAddr,
    /// `/metrics` address, when enabled.
    pub metrics_addr: Option<SocketAddr>,
    /// Spawn → first `HelloOk`, in seconds.
    pub setup_s: f64,
}

/// A free loopback port for the metrics side port (which, unlike the
/// serving port, treats port 0 as "disabled").
fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probing a free port: {e}"))?;
    l.local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("probing a free port: {e}"))
}

impl Daemon {
    /// Spawns the daemon and times set-up: from the spawn to the first
    /// `HelloOk` on a fresh connection (CSV load, ridge training, publish,
    /// bind and, with `--wal`, WAL open all happen in between).
    pub fn start(l: &Launch) -> Result<Daemon, String> {
        let mut cmd = Command::new(&l.exe);
        cmd.arg("serve")
            .arg("--csv")
            .arg(&l.csv)
            .args(["--seed", &l.split_seed.to_string()])
            .args(["--host", "127.0.0.1", "--port", "0"])
            .args(["--threads", &l.threads.to_string()]);
        if let Some(dir) = &l.wal {
            cmd.arg("--wal").arg(dir);
        }
        if l.metrics {
            cmd.args(["--metrics-port", &free_port()?.to_string()]);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", l.exe.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".into());
        };
        let mut stdout = BufReader::new(out);
        match Self::handshake(&mut stdout, l.metrics, t0) {
            Ok((addr, metrics_addr, setup_s)) => Ok(Daemon {
                child,
                stdout,
                addr,
                metrics_addr,
                setup_s,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn handshake(
        stdout: &mut BufReader<ChildStdout>,
        metrics: bool,
        t0: Instant,
    ) -> Result<(SocketAddr, Option<SocketAddr>, f64), String> {
        let mut addr = None;
        let mut metrics_addr = None;
        let mut line = String::new();
        while addr.is_none() || (metrics && metrics_addr.is_none()) {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon stdout: {e}"))?;
            if n == 0 {
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let raw = rest.split_whitespace().next().unwrap_or("");
                addr = Some(raw.parse().map_err(|e| format!("bad address {raw}: {e}"))?);
            } else if let Some(rest) = line.split("metrics on http://").nth(1) {
                let raw = rest.trim().trim_end_matches("/metrics");
                metrics_addr = Some(raw.parse().map_err(|e| format!("bad address {raw}: {e}"))?);
            }
        }
        let addr = addr.ok_or("no serving address")?;
        let mut probe = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        match probe.hello(PROBE_SEED) {
            Ok(Response::HelloOk) => {}
            other => return Err(format!("set-up hello answered {other:?}")),
        }
        Ok((addr, metrics_addr, t0.elapsed().as_secs_f64()))
    }

    /// Asks for a graceful drain over the wire, waits for the process to
    /// exit and returns its report (everything it printed after
    /// listening). Kills it and fails if the drain takes over 60 s.
    pub fn shutdown(mut self) -> Result<String, String> {
        let ack = Client::connect(self.addr)
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("shutdown frame: {e}"));
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain within 60 s".into());
                }
            }
        };
        let mut report = String::new();
        let _ = self.stdout.read_to_string(&mut report);
        match ack {
            Ok(Response::ShutdownAck) => {}
            Ok(other) => return Err(format!("shutdown answered {other:?}")),
            Err(e) => return Err(e),
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(report)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on error paths (shutdown consumes the handle after
        // reaping the child): never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `/metrics` scrape: every sample line, keyed by its full name
/// (labels included).
pub type Scrape = BTreeMap<String, f64>;

/// Scrapes the Prometheus side port.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("metrics request: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("metrics response: {e}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("metrics response has no body")?;
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// `after[name] − before[name]`, treating a missing series as zero.
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(canon) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            canon.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
