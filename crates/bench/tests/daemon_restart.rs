//! Cross-process restart of the `serve` daemon over one `--cache-dir`:
//! the first process compiles both kernels and spills them, the second —
//! a fresh process image over the same directory — must serve both from
//! disk with zero recompiles, and each must drain and exit 0 on SIGTERM.
//!
//! Cargo builds the binary this test spawns (`CARGO_BIN_EXE_serve`), so
//! the daemon under test is always the one from this checkout. A daemon
//! that never comes up blocks on its first stdout line; like the other
//! serve batteries this runs under ci.sh's `timeout`.
#![cfg(unix)]

use concord_serve::{Launch, SessionHandle, SessionOptions};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

const DOUBLE: &str = r#"
    class Double {
    public:
        int* out; int n;
        void operator()(int i) { out[i] = i * 2 + 1; }
    };
"#;

const SUM: &str = r#"
    class Sum {
    public:
        float* data; float acc;
        void operator()(int i) { acc += data[i]; }
        void join(Sum* other) { acc += other->acc; }
    };
"#;

const N: u32 = 8;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// Kills the daemon if an assertion unwinds before its orderly exit.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One daemon lifetime over `cache_dir`: start it, launch `Double` and
/// `Sum` once each from their own sessions, SIGTERM it, and return the
/// drain summary it printed.
fn daemon_round(cache_dir: &Path) -> String {
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--cache-dir"])
        .arg(cache_dir)
        .stdout(Stdio::piped())
        // Its "shutting down" notice would land at an arbitrary point of
        // the harness output that ci.sh diffs across fan-outs.
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut daemon = Daemon(child);
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr: SocketAddr = banner
        .strip_prefix("concord-serve listening on ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no `listening on` line, got {banner:?}"));

    let mut s = SessionHandle::connect(addr, DOUBLE, &SessionOptions::default()).expect("open");
    let out = s.malloc(u64::from(N) * 4).expect("malloc");
    let body = s.malloc(16).expect("malloc");
    s.write_ptr(body, out).expect("write");
    s.write_i32(body + 8, N as i32).expect("write");
    s.parallel_for(&Launch::new("Double", body, N)).expect("launch Double");
    assert_eq!(s.read_i32(out + u64::from(N - 1) * 4).expect("read"), (N as i32 - 1) * 2 + 1);
    s.close().expect("close");

    let mut s = SessionHandle::connect(addr, SUM, &SessionOptions::default()).expect("open");
    let data = s.malloc(u64::from(N) * 4).expect("malloc");
    for i in 0..N {
        s.write_f32(data + u64::from(i) * 4, i as f32).expect("write");
    }
    let body = s.malloc(16).expect("malloc");
    s.write_ptr(body, data).expect("write");
    s.write_f32(body + 8, 0.0).expect("write");
    s.parallel_reduce(&Launch::new("Sum", body, N)).expect("launch Sum");
    let acc: [u8; 4] = s.read(body + 8, 4).expect("read").try_into().expect("four bytes");
    assert_eq!(f32::from_le_bytes(acc), (N * (N - 1) / 2) as f32);
    s.close().expect("close");

    // SAFETY: `kill(2)` takes no pointers; the pid is our own live child.
    assert_eq!(unsafe { kill(daemon.0.id() as i32, SIGTERM) }, 0, "signal the daemon");
    let mut summary = String::new();
    stdout.read_to_string(&mut summary).expect("read drain summary");
    let status = daemon.0.wait().expect("wait for daemon");
    assert!(status.success(), "daemon must exit 0 after SIGTERM, got {status}; said {summary:?}");
    summary
}

#[test]
fn restarted_daemon_serves_both_kernels_from_disk() {
    let dir = std::env::temp_dir().join(format!("concord-daemon-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Both sessions closed, and every one of their 8 + 16 requests drained.
    let drained = "served 2 connections, 0 sessions; 24 admitted, 24 completed, 0 rejected,";

    let first = daemon_round(&dir);
    assert!(first.starts_with(drained), "{first}");
    assert!(first.contains("disk: 0 hits, 2 compiles, 2 spills"), "{first}");

    let second = daemon_round(&dir);
    assert!(second.starts_with(drained), "{second}");
    assert!(second.contains("disk: 2 hits, 0 compiles"), "{second}");

    let _ = std::fs::remove_dir_all(&dir);
}
