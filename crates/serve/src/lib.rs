//! `concord-serve`: a multi-session offload service over the Concord
//! runtime.
//!
//! The paper's runtime (§3) serves one process; this crate turns it into
//! a small daemon so many clients can share one simulated integrated-GPU
//! system — and, more importantly, share its **JIT-artifact cache**: the
//! first session to submit a kernel source pays frontend + GPU lowering +
//! JIT (§3.4); every later session over the same (source, `GpuConfig`)
//! reuses the artifacts and reports `jit_seconds == 0`.
//!
//! The moving parts:
//!
//! * [`protocol`] — length-prefixed JSON frames sent as single writes,
//!   raw payload tails for region bytes (hex as the compatibility form),
//!   error vocabulary.
//! * [`poll`] — hand-rolled readiness polling (Linux epoll) plus a
//!   pipe-based cross-thread waker.
//! * [`Server`] — TCP daemon: one event-loop thread owning every socket,
//!   bounded admission queue with `overloaded` backpressure, per-tenant
//!   quotas (`quota_exceeded`), per-request deadlines, worker pool, an
//!   optional persistent on-disk artifact cache, `Track::Server` trace
//!   events, graceful drain on shutdown.
//! * [`Client`] / [`SessionHandle`] — blocking client library used by the
//!   bench binaries and tests.
//! * [`signal`] — SIGINT/SIGTERM latching for the daemon binary.
//!
//! Everything is hand-rolled on `std` (sockets, threads, JSON) — the
//! workspace builds offline.
//!
//! # Quickstart
//!
//! ```
//! use concord_serve::{Launch, ServeConfig, Server, SessionHandle, SessionOptions};
//!
//! let server = Server::bind(&ServeConfig::default()).unwrap();
//! let src = "class Double { public: int* out; int n;
//!             void operator()(int i) { out[i] = i * 2; } };";
//! let mut s = SessionHandle::connect(server.addr(), src, &SessionOptions::default()).unwrap();
//! let out = s.malloc(4 * 8).unwrap();
//! let body = s.malloc(16).unwrap();
//! s.write_ptr(body, out).unwrap();
//! s.write_i32(body + 8, 8).unwrap();
//! let report = s.parallel_for(&Launch::new("Double", body, 8).target("cpu")).unwrap();
//! assert!(report.exec_seconds > 0.0);
//! assert_eq!(s.read_i32(out + 3 * 4).unwrap(), 6);
//! server.join();
//! ```

pub mod client;
pub mod json;
pub mod poll;
pub mod protocol;
pub mod server;
pub mod signal;

pub use client::{
    BatchEntry, BatchOutcome, Client, ClientError, Launch, OpenedSession, SessionHandle,
    SessionOptions, WorklistOutcome,
};
pub use server::{ServeConfig, Server, ServerStats};

// The service moves these across threads by construction: sessions hop
// between pool workers, handles into client worker threads. Regressions
// (an `Rc`, a raw pointer) should fail compilation here, not in a
// downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Server>();
    assert_send::<ServerStats>();
    assert_send::<Client>();
    assert_send::<SessionHandle>();
    assert_send::<ClientError>();
};
