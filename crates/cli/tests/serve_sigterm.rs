//! SIGTERM drains a running `mbp-market serve` daemon.
//!
//! The daemon's threads block in `poll(2)` while idle, so the SIGTERM
//! handler must wake them (it writes to a process-wide wake fd) — a flag
//! alone would leave them asleep until their idle deadlines. This test
//! boots the real binary, completes one handshake, sends SIGTERM and
//! requires the graceful-drain report within 10 s.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mbp_serve::wire::Response;
use mbp_serve::Client;

const EXIT_DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn sigterm_drains_the_daemon() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mbp-market"))
        .args(["serve", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn mbp-market serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line
        .strip_prefix("mbp-serve listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();

    let mut client = Client::connect(addr.as_str()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    assert_eq!(client.hello(5).expect("hello"), Response::HelloOk);

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed: {killed}");

    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if started.elapsed() > EXIT_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon still running {EXIT_DEADLINE:?} after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read report");
    assert!(status.success(), "daemon exited with {status}: {rest}");
    assert!(
        rest.contains("drained after graceful shutdown"),
        "missing drain report: {rest}"
    );
}
