//! The offload daemon: a readiness-driven event loop front end, bounded
//! admission onto a [`TaskPool`], per-tenant quotas, and graceful drain.
//!
//! # Threading model
//!
//! One loop thread owns the listener, every connection socket, and the
//! [`crate::poll::Poller`] (epoll on Linux, nothing elsewhere; see the
//! module docs there). All sockets are non-blocking: the loop accepts,
//! reads, runs each connection's frame state machine, and answers inline
//! (`ping`, `stats`, `shutdown`, malformed input, admission refusals) or
//! admits the request to the shared worker pool. Workers execute requests
//! — compiling sessions through the process-wide [`ArtifactCache`],
//! running region ops and launches under the session's mutex — then hand
//! the rendered response frame back to the loop through a completion
//! queue and a [`crate::poll::Waker`]; the loop stages it in the
//! connection's outbox and writes when the socket is writable. Responses
//! to pipelined requests may therefore arrive out of submission order;
//! the echoed `id` is the correlation key.
//!
//! A connection that trickles bytes (slow loris) or goes half-open costs
//! the loop nothing but its buffer: nothing blocks on a read or a write,
//! so live traffic on other connections keeps flowing.
//!
//! # Data path
//!
//! Every accepted socket runs with `TCP_NODELAY` and every response is one
//! outbox buffer, so a reply is never a split frame waiting on a delayed
//! ACK. Bytes are copied once per hop: the loop reads into the connection
//! buffer's spare capacity and parses requests from it in place; a raw
//! payload tail (see [`crate::protocol`]) is split off into the `Vec` the
//! worker gets with the request, which `write` stores from directly; a
//! raw `read` is framed under the session lock, region to outbox buffer,
//! and that buffer is what the socket is given.
//!
//! # Backpressure, quotas, and deadlines
//!
//! Admission is non-blocking: when the queue is at capacity the loop
//! answers `{"type":"overloaded"}` immediately instead of stalling the
//! connection. A per-tenant quota ([`ServeConfig::tenant_max_inflight`])
//! bounds how much of the queue one session token can take; over-quota
//! requests get `quota_exceeded` while other tenants keep being admitted. A request may carry `deadline_ms`,
//! measured from admission; a worker that dequeues it too late answers
//! `deadline_exceeded` without executing it.
//!
//! # Artifact persistence
//!
//! With [`ServeConfig::cache_dir`] set, the JIT artifact cache spills
//! compiled (source, `GpuConfig`) entries to disk and a restarted server
//! reloads them — sessions opened after a restart report `jit_seconds ==
//! 0` without recompiling. See [`ArtifactCache::with_disk`].
//!
//! # Shutdown
//!
//! A `shutdown` frame, [`Server::request_shutdown`], or (in the daemon
//! binary) SIGINT/SIGTERM stops admission, then drains: every job already
//! queued runs to completion and its response is flushed before
//! connections are closed and [`Server::join`] returns.

use crate::json::{parse, Json};
use crate::poll::{Event, Interest, Poller, Waker};
use crate::protocol::{
    codes, error_response, error_response_detailed, frame_bytes, frame_with_tail, from_hex,
    tail_len, to_hex, with_id, FrameError, MAX_FRAME, TAIL_FIELD,
};
use concord_energy::SystemConfig;
use concord_pool::{SubmitError, TaskPool};
use concord_runtime::{
    AnalysisGate, AnalysisMode, ArtifactCache, Concord, OffloadReport, Options, RuntimeError,
    Target,
};
use concord_svm::CpuAddr;
use concord_trace::{ArgValue, TraceConfig, Tracer, Track};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Hard cap on per-session region capacity a remote client may request.
/// The region is host memory; an unchecked `region_bytes` would be an
/// allocation-of-death.
const MAX_REGION_BYTES: u64 = 1 << 30;

/// Hard cap on one `read` request (the hex response must fit a frame; a
/// raw-tail response is held to the same limit).
const MAX_READ_BYTES: u64 = (MAX_FRAME as u64) / 4;

/// Cap on the diagnostic `sleep` request.
const MAX_SLEEP_MS: u64 = 5_000;

/// Cap on one `parallel_batch` request's launch count.
const MAX_BATCH: usize = 1_024;

/// Largest accepted `parallel_worklist` seed. Seeds are one frame-encoded
/// integer per item; real frontier seeds are a source node or the node
/// range, both far below this.
const MAX_SEED_ITEMS: usize = 65_536;

/// Per-readiness-event read budget. One firehose connection yields the
/// loop after this many bytes; level-triggered polling re-reports the fd
/// so the rest is picked up next iteration, after other connections.
const READ_BUDGET: usize = 256 * 1024;

/// How long the drain endgame keeps flushing outboxes to slow readers
/// before force-closing their sockets.
const DRAIN_FLUSH_MS: u64 = 5_000;

/// Poller token of the listener.
const LISTENER_TOKEN: u64 = 0;
/// Poller token of the waker pipe's read end.
const WAKER_TOKEN: u64 = 1;
/// First connection token (connection ids double as poller tokens).
const FIRST_CONN_TOKEN: u64 = 2;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Admission-queue capacity; beyond it requests get `overloaded`.
    pub queue_depth: usize,
    /// Spill directory for the JIT artifact cache. When set, compiled
    /// entries persist across server restarts (checksummed, corrupt files
    /// evicted and recompiled). `None` keeps the cache memory-only.
    pub cache_dir: Option<String>,
    /// Per-tenant cap on requests admitted but not yet completed
    /// (0 = unlimited). Over the cap a tenant's requests get
    /// `quota_exceeded` while other tenants keep being admitted. A share
    /// of the queue is `queue_depth * percent / 100`.
    pub tenant_max_inflight: usize,
    /// Server-track tracing (`Track::Server` events, logical clock).
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: concord_pool::host_threads().max(1),
            queue_depth: 64,
            cache_dir: None,
            tenant_max_inflight: 0,
            trace: TraceConfig::default(),
        }
    }
}

/// A point-in-time snapshot of server counters, served inline by the
/// `stats` request and by [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions currently open.
    pub sessions: usize,
    /// Distinct (source, `GpuConfig`) artifact-cache entries in memory.
    pub cache_entries: usize,
    /// Session builds served from the in-memory artifact cache.
    pub cache_hits: u64,
    /// Session builds the in-memory cache did not hold.
    pub cache_misses: u64,
    /// Cache misses satisfied by a valid on-disk entry (no recompile).
    pub disk_hits: u64,
    /// Cache misses that ran the compiler.
    pub compiles: u64,
    /// On-disk cache entries evicted as corrupt (bad magic, version,
    /// checksum, or truncation) and recompiled.
    pub corrupt_evicted: u64,
    /// Artifact entries spilled to the cache directory.
    pub disk_writes: u64,
    /// Requests waiting in the admission queue right now.
    pub queued: usize,
    /// Requests admitted to the queue so far.
    pub admitted: u64,
    /// Admitted requests fully executed (including ones answered with a
    /// structured error).
    pub completed: u64,
    /// Requests refused with `overloaded`.
    pub rejected: u64,
    /// Requests refused with `quota_exceeded` (per-tenant admission).
    pub quota_rejected: u64,
    /// Admitted requests dropped at dequeue for missing their deadline.
    pub deadline_missed: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Connections open right now.
    pub connections_open: u64,
    /// Launches executing on workers right now (across all sessions).
    pub inflight: u64,
    /// Overlap events: launches that began while another launch was
    /// already in flight process-wide, plus in-session overlap waves the
    /// launch graph formed inside `parallel_batch` requests.
    pub overlapped: u64,
    /// Times the launch graph had to serialize a `parallel_batch` launch
    /// behind a conflicting earlier launch.
    pub conflict_stalls: u64,
    /// Native-backend launches that ran their chunks in serial order
    /// because the kernel carries a cross-item read hazard (CA108).
    pub hazard_serialized: u64,
}

struct Session {
    cc: Concord,
    /// Launch target used when a `parallel_for`/`parallel_reduce` request
    /// omits its own `target` field (set by the `target` session option;
    /// `auto` when the option is absent).
    default_target: Target,
}

/// Who owns a session: the connection it was opened on (sessions are
/// connection-scoped and reaped when it closes) and the tenant whose
/// quota its requests count against. A side map so the loop can reap by
/// connection without touching any session mutex a worker may hold.
struct SessionOwner {
    conn: u64,
    tenant: String,
}

/// Per-tenant admission counters (the `tenants` object of a `stats`
/// response reports these).
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounters {
    admitted: u64,
    completed: u64,
    rejected: u64,
    /// Admitted but not yet completed — the quantity quotas bound.
    pending: u64,
}

/// A request's deadline, measured from admission. Checked twice: once at
/// dequeue (a request that aged out in the queue never executes) and again
/// immediately before a launch runs — the session mutex is a second queue,
/// and a launch that waited out its deadline behind another session op
/// must be refused, not run late.
#[derive(Clone, Copy)]
struct Deadline {
    ms: Option<u64>,
    admitted_at: Instant,
}

impl Deadline {
    /// Milliseconds since admission (queue wait + session-lock wait).
    fn queued_ms(&self) -> u64 {
        u64::try_from(self.admitted_at.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn exceeded(&self) -> bool {
        self.ms.is_some_and(|ms| self.admitted_at.elapsed() >= Duration::from_millis(ms))
    }
}

/// The `deadline_exceeded` error, carrying machine-readable time-in-queue
/// detail (`queued_ms`: admission to refusal) under `diagnostics`.
fn deadline_response(where_: &str, admitted_at: Instant, id: Option<&Json>) -> Json {
    let queued_ms = u64::try_from(admitted_at.elapsed().as_millis()).unwrap_or(u64::MAX);
    error_response_detailed(
        codes::DEADLINE_EXCEEDED,
        &format!("request exceeded its deadline {where_} ({queued_ms} ms since admission)"),
        Json::obj(vec![("queued_ms", queued_ms.into())]),
        id,
    )
}

/// One request's structured failure: a stable protocol code, a human
/// message, and (for static-analysis denials) the machine-readable
/// findings to attach as a `diagnostics` field on the error response.
struct SrvError {
    code: &'static str,
    message: String,
    diagnostics: Option<Json>,
}

impl From<(&'static str, String)> for SrvError {
    fn from((code, message): (&'static str, String)) -> Self {
        SrvError { code, message, diagnostics: None }
    }
}

impl SrvError {
    fn into_response(self, id: Option<&Json>) -> Json {
        match self.diagnostics {
            Some(d) => error_response_detailed(self.code, &self.message, d, id),
            None => error_response(self.code, &self.message, id),
        }
    }
}

struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Set by `join_inner` after the pool finished draining: the loop may
    /// flush remaining outboxes and exit.
    drain_done: AtomicBool,
    pool: Mutex<Option<TaskPool>>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    /// Session ownership side map (see [`SessionOwner`]). Lock order:
    /// `live_conns` → `sessions` → `session_owners`.
    session_owners: Mutex<HashMap<u64, SessionOwner>>,
    /// Connections currently registered with the loop. Guards the window
    /// where a session finishes compiling after its connection died.
    live_conns: Mutex<HashSet<u64>>,
    tenants: Mutex<BTreeMap<String, TenantCounters>>,
    /// Per-tenant pending-request cap ([`ServeConfig::tenant_max_inflight`]),
    /// `None` when quotas are off.
    tenant_cap: Option<u64>,
    /// Worker-to-loop handoff: rendered response frames by connection id.
    completions: Mutex<Vec<(u64, Vec<u8>)>>,
    waker: Waker,
    poller_backend: &'static str,
    next_session: AtomicU64,
    cache: ArtifactCache,
    tracer: Tracer,
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    quota_rejected: AtomicU64,
    deadline_missed: AtomicU64,
    connections: AtomicU64,
    connections_open: AtomicU64,
    inflight: AtomicU64,
    overlapped: AtomicU64,
    conflict_stalls: AtomicU64,
    hazard_serialized: AtomicU64,
}

impl Shared {
    fn new(
        addr: SocketAddr,
        config: &ServeConfig,
        waker: Waker,
        poller_backend: &'static str,
        cache: ArtifactCache,
    ) -> Shared {
        Shared {
            addr,
            shutdown: AtomicBool::new(false),
            drain_done: AtomicBool::new(false),
            pool: Mutex::new(Some(TaskPool::new(config.workers, config.queue_depth))),
            sessions: Mutex::new(HashMap::new()),
            session_owners: Mutex::new(HashMap::new()),
            live_conns: Mutex::new(HashSet::new()),
            tenants: Mutex::new(BTreeMap::new()),
            tenant_cap: (config.tenant_max_inflight > 0)
                .then_some(config.tenant_max_inflight as u64),
            completions: Mutex::new(Vec::new()),
            poller_backend,
            waker,
            next_session: AtomicU64::new(1),
            cache,
            tracer: Tracer::new(config.trace),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            overlapped: AtomicU64::new(0),
            conflict_stalls: AtomicU64::new(0),
            hazard_serialized: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            sessions: self.sessions.lock().unwrap().len(),
            cache_entries: self.cache.entries(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            disk_hits: self.cache.disk_hits(),
            compiles: self.cache.compiles(),
            corrupt_evicted: self.cache.corrupt_evicted(),
            disk_writes: self.cache.disk_writes(),
            queued: self.pool.lock().unwrap().as_ref().map_or(0, TaskPool::queued),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            overlapped: self.overlapped.load(Ordering::Relaxed),
            conflict_stalls: self.conflict_stalls.load(Ordering::Relaxed),
            hazard_serialized: self.hazard_serialized.load(Ordering::Relaxed),
        }
    }

    /// Stop admission and ring the loop's doorbell so it notices.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.tracer.instant(Track::Server, "shutdown_requested", Vec::new());
            self.waker.wake();
        }
    }

    /// Hand a rendered response frame to the loop for delivery. Runs in
    /// [`Completion`]'s `Drop`, so it must not panic: a poisoned lock
    /// guards a list that every push leaves whole.
    fn push_completion(&self, conn: u64, bytes: Vec<u8>) {
        self.completions.lock().unwrap_or_else(PoisonError::into_inner).push((conn, bytes));
        self.waker.wake();
    }

    /// Count one admission against `tenant`, or refuse with its current
    /// `(pending, cap)` when over quota.
    fn tenant_try_admit(&self, tenant: &str) -> Result<(), (u64, u64)> {
        let mut tenants = self.tenants.lock().unwrap();
        let c = tenants.entry(tenant.to_string()).or_default();
        if let Some(cap) = self.tenant_cap {
            if c.pending >= cap {
                c.rejected += 1;
                return Err((c.pending, cap));
            }
        }
        c.pending += 1;
        c.admitted += 1;
        Ok(())
    }

    /// Undo a `tenant_try_admit` whose pool submit failed.
    fn tenant_rollback(&self, tenant: &str, rejected: bool) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(c) = tenants.get_mut(tenant) {
            c.pending = c.pending.saturating_sub(1);
            c.admitted = c.admitted.saturating_sub(1);
            if rejected {
                c.rejected += 1;
            }
        }
    }

    /// Count one completion against `tenant`. Runs in [`Completion`]'s
    /// `Drop`, so it must not panic: every update of the counters leaves
    /// them whole, so a poisoned lock's data is still good.
    fn tenant_complete(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = tenants.get_mut(tenant) {
            c.pending = c.pending.saturating_sub(1);
            c.completed += 1;
        }
    }

    /// The per-tenant counters as a JSON object (sorted by tenant name, so
    /// `stats` frames are deterministic).
    fn tenants_json(&self) -> Json {
        let tenants = self.tenants.lock().unwrap();
        let fields = tenants
            .iter()
            .map(|(name, c)| {
                let obj = Json::obj(vec![
                    ("admitted", c.admitted.into()),
                    ("completed", c.completed.into()),
                    ("rejected", c.rejected.into()),
                    ("pending", c.pending.into()),
                ]);
                (name.clone(), obj)
            })
            .collect();
        Json::Obj(fields)
    }
}

/// A running offload server. Dropping the handle shuts it down and drains.
pub struct Server {
    shared: Arc<Shared>,
    event_loop: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving on the event-loop thread.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration errors, poller construction failures
    /// (`Unsupported` on platforms without one), and cache-directory
    /// creation errors when [`ServeConfig::cache_dir`] is set.
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        let waker = Waker::new()?;
        let cache = match &config.cache_dir {
            Some(dir) => ArtifactCache::with_disk(dir)?,
            None => ArtifactCache::new(),
        };
        let shared = Arc::new(Shared::new(addr, config, waker, poller.backend_name(), cache));
        poller.register(fd_of(&listener), LISTENER_TOKEN, Interest::READ)?;
        poller.register(shared.waker.fd(), WAKER_TOKEN, Interest::READ)?;
        let event_loop = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("concord-serve-loop".to_string())
                .spawn(move || EventLoop::new(listener, poller, shared).run())?
        };
        Ok(Server { shared, event_loop: Some(event_loop) })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The server-track tracer (enable via [`ServeConfig::trace`]).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Stop admitting work and begin the drain. Returns immediately;
    /// [`Server::join`] waits for the drain to finish.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether a shutdown has been requested (frame, signal, or handle).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Wait until the server has drained: all queued requests executed,
    /// responses flushed, connections closed. Returns the final
    /// statistics, which — unlike a [`Server::stats`] call racing the
    /// drain — account for every admitted request.
    pub fn join(mut self) -> ServerStats {
        self.join_inner();
        self.shared.stats()
    }

    fn join_inner(&mut self) {
        self.shared.begin_shutdown();
        // Drain the pool from this thread: jobs keep handing completed
        // responses to the loop, which keeps flushing them concurrently.
        let pool = self.shared.pool.lock().unwrap().take();
        if let Some(pool) = pool {
            self.shared.tracer.instant(Track::Server, "drain_begin", Vec::new());
            pool.close_and_drain();
            self.shared.tracer.instant(Track::Server, "drain_end", Vec::new());
        }
        self.shared.drain_done.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// The poller fd of a socket (`-1` on platforms without one, where the
/// poller itself already failed to construct).
#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    -1
}

/// One connection's loop-side state: the non-blocking socket, the inbound
/// byte buffer its frame state machine consumes, and the outbox of
/// rendered response frames awaiting socket writability.
struct Conn {
    stream: TcpStream,
    token: u64,
    inbuf: Vec<u8>,
    /// A parsed request whose announced raw tail has not fully arrived:
    /// the request and the tail's length. Its header is already consumed
    /// from `inbuf`, so a peer trickling a tail costs no re-parse.
    awaiting_tail: Option<(Json, usize)>,
    outbox: VecDeque<Vec<u8>>,
    /// Bytes of `outbox.front()` already written.
    out_pos: usize,
    /// Requests admitted to the pool whose responses have not yet been
    /// handed back — a half-open connection stays alive until they flush.
    outstanding: usize,
    /// The peer closed its write side (clean EOF after read drained).
    read_closed: bool,
    /// A framing error poisoned the byte stream: flush the structured
    /// error, then close. No further input is parsed.
    close_after_flush: bool,
    /// The socket errored on write; nothing more can be delivered.
    broken: bool,
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        Conn {
            stream,
            token,
            inbuf: Vec::new(),
            awaiting_tail: None,
            outbox: VecDeque::new(),
            out_pos: 0,
            outstanding: 0,
            read_closed: false,
            close_after_flush: false,
            broken: false,
            interest: Interest::READ,
        }
    }

    /// Stage one response frame for delivery.
    fn enqueue(&mut self, resp: &Json) {
        self.outbox.push_back(frame_bytes(resp));
    }

    /// Everything enqueued has been written to the socket.
    fn flushed(&self) -> bool {
        self.outbox.is_empty()
    }

    /// The loop has no further use for this connection.
    fn done(&self) -> bool {
        self.broken
            || (self.close_after_flush && self.flushed())
            || (self.read_closed && self.outstanding == 0 && self.flushed())
    }
}

/// The loop thread's state. Everything here is single-threaded; workers
/// reach it only through `Shared.completions` and the waker.
struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl EventLoop {
    fn new(listener: TcpListener, poller: Poller, shared: Arc<Shared>) -> EventLoop {
        EventLoop {
            shared,
            poller,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut flush_deadline: Option<Instant> = None;
        loop {
            let draining = self.shared.drain_done.load(Ordering::SeqCst);
            let timeout_ms = if draining { 50 } else { -1 };
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                // A broken poller cannot be recovered; closing everything
                // beats spinning.
                break;
            }
            let mut accept_ready = false;
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => accept_ready = true,
                    WAKER_TOKEN => self.shared.waker.drain(),
                    token => self.on_conn_event(token, ev, draining),
                }
            }
            if accept_ready {
                self.accept_ready();
            }
            self.deliver_completions();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.close_listener();
            }
            self.sweep_done();
            if self.shared.drain_done.load(Ordering::SeqCst) {
                let deadline = *flush_deadline
                    .get_or_insert_with(|| Instant::now() + Duration::from_millis(DRAIN_FLUSH_MS));
                let all_flushed = self.conns.values().all(Conn::flushed);
                if all_flushed || Instant::now() >= deadline {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.close_conn(token);
                    }
                    break;
                }
            }
        }
    }

    /// Accept until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            // Replies are small segments the peer is waiting on; Nagle would
            // hold each back for a delayed ACK.
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let token = self.next_token;
            if self.poller.register(fd_of(&stream), token, Interest::READ).is_err() {
                continue;
            }
            self.next_token += 1;
            self.shared.connections.fetch_add(1, Ordering::Relaxed);
            self.shared.connections_open.fetch_add(1, Ordering::Relaxed);
            self.shared.live_conns.lock().unwrap().insert(token);
            self.shared.tracer.instant(
                Track::Server,
                "conn_open",
                vec![("conn", ArgValue::UInt(token))],
            );
            self.conns.insert(token, Conn::new(stream, token));
        }
    }

    /// One readiness event for one connection.
    fn on_conn_event(&mut self, token: u64, ev: Event, draining: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if ev.writable {
            flush_outbox(conn);
        }
        if ev.readable && !draining && !conn.read_closed && !conn.close_after_flush {
            read_ready(conn, &self.shared);
            flush_outbox(conn);
        }
        self.update_interest(token, draining);
    }

    /// Move worker-completed responses into their connections' outboxes.
    fn deliver_completions(&mut self) {
        let done = std::mem::take(&mut *self.shared.completions.lock().unwrap());
        for (token, bytes) in done {
            // A response for a connection that already closed is dropped,
            // exactly as a failed write to its dead socket would be.
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            conn.outstanding = conn.outstanding.saturating_sub(1);
            conn.outbox.push_back(bytes);
            flush_outbox(conn);
            self.update_interest(token, false);
        }
    }

    /// Re-derive a connection's poller interest from its state.
    fn update_interest(&mut self, token: u64, draining: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let desired = Interest {
            readable: !conn.read_closed && !conn.close_after_flush && !draining,
            writable: !conn.outbox.is_empty(),
        };
        if desired != conn.interest
            && self.poller.modify(fd_of(&conn.stream), token, desired).is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Stop accepting: deregister and drop the listener (idempotent).
    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(fd_of(&listener));
        }
    }

    /// Close and reap every connection whose work is finished.
    fn sweep_done(&mut self) {
        let done: Vec<u64> = self.conns.iter().filter(|(_, c)| c.done()).map(|(t, _)| *t).collect();
        for token in done {
            self.close_conn(token);
        }
    }

    /// Tear one connection down: deregister, close, and reap its
    /// connection-scoped sessions (by the ownership side map — never by
    /// locking session mutexes, which a worker may hold for a long launch).
    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        self.poller.deregister(fd_of(&conn.stream));
        let _ = conn.stream.shutdown(Shutdown::Both);
        // Lock order: live_conns → sessions → session_owners (matches
        // open_session's insert path, closing the compile/disconnect race).
        {
            let mut live = self.shared.live_conns.lock().unwrap();
            live.remove(&token);
            let mut owners = self.shared.session_owners.lock().unwrap();
            let reaped: Vec<u64> =
                owners.iter().filter(|(_, o)| o.conn == token).map(|(sid, _)| *sid).collect();
            if !reaped.is_empty() {
                let mut sessions = self.shared.sessions.lock().unwrap();
                for sid in reaped {
                    sessions.remove(&sid);
                    owners.remove(&sid);
                }
            }
        }
        self.shared.connections_open.fetch_sub(1, Ordering::Relaxed);
        self.shared.tracer.instant(
            Track::Server,
            "conn_close",
            vec![("conn", ArgValue::UInt(token))],
        );
    }
}

/// Write as much of the outbox as the socket accepts.
fn flush_outbox(conn: &mut Conn) {
    while let Some(front) = conn.outbox.front() {
        match conn.stream.write(&front[conn.out_pos..]) {
            Ok(0) => {
                conn.broken = true;
                return;
            }
            Ok(n) => {
                conn.out_pos += n;
                if conn.out_pos == front.len() {
                    conn.outbox.pop_front();
                    conn.out_pos = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // A vanished peer is not a server error; the connection is
                // swept and its sessions reaped.
                conn.broken = true;
                return;
            }
        }
    }
}

/// Pull newly readable bytes into the buffer (bounded per event) and run
/// the frame state machine over whatever is now complete.
fn read_ready(conn: &mut Conn, shared: &Arc<Shared>) {
    // `read_to_end` reads straight into the buffer's spare capacity — no
    // staging chunk, no second copy — and on a non-blocking socket stops
    // with `WouldBlock` once the socket is drained, keeping what it read.
    let budget = READ_BUDGET as u64;
    match (&conn.stream).take(budget).read_to_end(&mut conn.inbuf) {
        // Short of the budget, `Ok` means end of stream; at the budget the
        // poller re-reports the fd after the other connections' turn.
        Ok(n) => conn.read_closed = (n as u64) < budget,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
        Err(_) => conn.read_closed = true,
    }
    process_frames(conn, shared);
}

/// The per-connection frame state machine: consume every complete frame
/// (and raw tail) in the buffer, refusing protocol violations exactly as
/// the blocking [`crate::protocol::read_frame`] would — a structured
/// error, then close.
fn process_frames(conn: &mut Conn, shared: &Arc<Shared>) {
    let mut consumed = 0;
    while !conn.close_after_flush {
        let avail = conn.inbuf.len() - consumed;
        if let Some((_, n)) = conn.awaiting_tail {
            if avail < n {
                break;
            }
            // The one copy of the tail on this hop: out of the connection
            // buffer into the Vec the worker gets with the request.
            let tail = conn.inbuf[consumed..consumed + n].to_vec();
            consumed += n;
            let (req, _) = conn.awaiting_tail.take().expect("checked above");
            handle_request(req, Some(tail), conn, shared);
            continue;
        }
        if avail < 4 {
            break;
        }
        let header: [u8; 4] = conn.inbuf[consumed..consumed + 4].try_into().unwrap();
        let len = u32::from_be_bytes(header);
        if len > MAX_FRAME {
            // Refused straight off the length prefix — the payload is
            // never buffered, let alone allocated.
            frame_violation(conn, &FrameError::Oversized(len));
            break;
        }
        let len = len as usize;
        if avail < 4 + len {
            break;
        }
        // Parsed from the borrowed buffer; the payload is never copied.
        let parsed = match std::str::from_utf8(&conn.inbuf[consumed + 4..consumed + 4 + len]) {
            Ok(payload) => parse(payload),
            Err(_) => {
                frame_violation(conn, &FrameError::BadUtf8);
                break;
            }
        };
        consumed += 4 + len;
        let req = match parsed {
            Ok(req) => req,
            Err(e) => {
                // Framing is intact; the connection stays usable.
                conn.enqueue(&error_response(codes::BAD_JSON, &e, None));
                continue;
            }
        };
        match tail_len(&req) {
            Ok(None) => handle_request(req, None, conn, shared),
            // Nothing is reserved on the peer's say-so: the buffer grows
            // as tail bytes actually arrive.
            Ok(Some(n)) => conn.awaiting_tail = Some((req, n)),
            // Over the cap, or not a length at all: refused off the header
            // with nothing of the tail buffered, and the stream position
            // is lost with it.
            Err(e) => frame_violation(conn, &e),
        }
    }
    if consumed > 0 {
        conn.inbuf.drain(..consumed);
    }
    let mid_frame = !conn.inbuf.is_empty() || conn.awaiting_tail.is_some();
    if conn.read_closed && mid_frame && !conn.close_after_flush {
        // The peer vanished mid-frame (inside the prefix, the payload or
        // an announced tail).
        frame_violation(conn, &FrameError::Truncated);
        conn.inbuf.clear();
        conn.awaiting_tail = None;
    }
}

/// A framing error poisons the byte stream: answer with the structured
/// error, then flush-and-close. (Mirrors the codes and messages of
/// [`FrameError`] so blocking and event-loop front ends refuse alike.)
fn frame_violation(conn: &mut Conn, e: &FrameError) {
    conn.enqueue(&error_response(e.code(), &e.to_string(), None));
    conn.close_after_flush = true;
}

/// Handle one well-framed, parsed request and the raw tail it announced
/// (already consumed from the stream, whatever happens to the request).
fn handle_request(req: Json, tail: Option<Vec<u8>>, conn: &mut Conn, shared: &Arc<Shared>) {
    let id = req.get("id").cloned();
    let Some(ty) = req.get("type").and_then(Json::as_str).map(str::to_string) else {
        conn.enqueue(&error_response(
            codes::BAD_REQUEST,
            "missing string field `type`",
            id.as_ref(),
        ));
        return;
    };
    if tail.is_some() && ty != "write" {
        conn.enqueue(&error_response(
            codes::BAD_REQUEST,
            &format!("`{ty}` takes no `{TAIL_FIELD}` tail"),
            id.as_ref(),
        ));
        return;
    }
    match ty.as_str() {
        // Control-plane requests answer inline, bypassing the queue: they
        // must work even when the queue is saturated.
        "ping" => {
            conn.enqueue(&with_id(Json::obj(vec![("type", Json::str("pong"))]), id.as_ref()));
        }
        "stats" => {
            let mut resp = stats_json(&shared.stats());
            if let Json::Obj(fields) = &mut resp {
                fields.push(("tenants".to_string(), shared.tenants_json()));
                fields.push(("poller".to_string(), Json::str(shared.poller_backend)));
            }
            conn.enqueue(&with_id(resp, id.as_ref()));
        }
        "shutdown" => {
            conn.enqueue(&with_id(
                Json::obj(vec![("type", Json::str("shutting_down"))]),
                id.as_ref(),
            ));
            shared.begin_shutdown();
        }
        "open_session" | "malloc" | "free" | "write" | "read" | "write_ptr" | "close"
        | "parallel_for" | "parallel_reduce" | "parallel_worklist" | "parallel_batch" | "sleep" => {
            admit(Request { body: req, tail, ty }, conn, shared);
        }
        other => {
            conn.enqueue(&error_response(
                codes::UNKNOWN_TYPE,
                &format!("unknown request type `{other}`"),
                id.as_ref(),
            ));
        }
    }
}

/// One data-plane request as the loop hands it to a worker.
struct Request {
    body: Json,
    /// The raw payload tail that followed the frame, if it announced one.
    tail: Option<Vec<u8>>,
    ty: String,
}

/// What a worker produced for a request that did not fail.
enum Reply {
    /// A response object; the caller echoes the id and frames it.
    Json(Json),
    /// Finished wire bytes: a raw `read` frames its own reply, under the
    /// session lock, so the region bytes are copied exactly once.
    Framed(Vec<u8>),
}

/// The tenant a request counts against: its own `tenant` field, else the
/// owning session's tenant, else the shared default bucket.
fn resolve_tenant(req: &Json, ty: &str, shared: &Shared) -> String {
    if let Some(t) = req.get("tenant").and_then(Json::as_str) {
        return t.to_string();
    }
    if ty != "open_session" {
        if let Some(sid) = req.get("session").and_then(Json::as_u64) {
            if let Some(owner) = shared.session_owners.lock().unwrap().get(&sid) {
                return owner.tenant.clone();
            }
        }
    }
    "default".to_string()
}

/// Admit one data-plane request to the worker pool (or refuse it).
fn admit(request: Request, conn: &mut Conn, shared: &Arc<Shared>) {
    let req = &request.body;
    let id = req.get("id");
    if shared.shutdown.load(Ordering::SeqCst) {
        conn.enqueue(&error_response(codes::SHUTTING_DOWN, "server is draining", id));
        return;
    }
    let deadline_ms = match req.get("deadline_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => {
                conn.enqueue(&error_response(
                    codes::BAD_REQUEST,
                    "`deadline_ms` must be a non-negative integer",
                    id,
                ));
                return;
            }
        },
    };
    let tenant = resolve_tenant(req, &request.ty, shared);
    if let Err((pending, limit)) = shared.tenant_try_admit(&tenant) {
        shared.quota_rejected.fetch_add(1, Ordering::Relaxed);
        shared.tracer.instant(
            Track::Server,
            "quota_exceeded",
            vec![("tenant", ArgValue::Str(tenant.clone()))],
        );
        conn.enqueue(&error_response_detailed(
            codes::QUOTA_EXCEEDED,
            &format!(
                "tenant `{tenant}` is over its admission quota ({pending} pending, limit {limit})"
            ),
            Json::obj(vec![
                ("tenant", Json::str(&tenant)),
                ("pending", pending.into()),
                ("limit", limit.into()),
            ]),
            id,
        ));
        return;
    }
    let deadline = Deadline { ms: deadline_ms, admitted_at: Instant::now() };
    let reject_id = id.cloned();
    let token = conn.token;
    let job = {
        let shared = Arc::clone(shared);
        let tenant = tenant.clone();
        move || run_admitted(&request, token, &tenant, &shared, deadline, execute)
    };
    let submitted = shared
        .pool
        .lock()
        .unwrap()
        .as_ref()
        .map_or(Err(SubmitError::Closed), |p| p.try_submit(job));
    match submitted {
        Ok(()) => {
            conn.outstanding += 1;
            shared.admitted.fetch_add(1, Ordering::Relaxed);
            shared.tracer.instant(Track::Server, "admit", Vec::new());
            let depth = shared.pool.lock().unwrap().as_ref().map_or(0, TaskPool::queued);
            shared.tracer.counter(Track::Server, "queue_depth", depth as f64);
        }
        Err(SubmitError::Full) => {
            shared.tenant_rollback(&tenant, true);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.tracer.instant(Track::Server, "overloaded", Vec::new());
            let mut fields = vec![("type".to_string(), Json::str("overloaded"))];
            if let Some(id) = &reject_id {
                fields.push(("id".to_string(), id.clone()));
            }
            conn.enqueue(&Json::Obj(fields));
        }
        Err(SubmitError::Closed) => {
            shared.tenant_rollback(&tenant, false);
            conn.enqueue(&error_response(
                codes::SHUTTING_DOWN,
                "server is draining",
                reject_id.as_ref(),
            ));
        }
    }
}

/// An admitted request's obligations, taken on when its pool job starts:
/// one reply, the tenant's pending slot, one completion. Dropping it —
/// after [`Completion::reply`], or while a panic unwinds out of the
/// handler — releases the slot and counts the completion, and without a
/// reply first sends an `internal_error` one, so the client is answered
/// and its connection's outstanding count drops.
struct Completion<'a> {
    shared: &'a Shared,
    conn: u64,
    tenant: &'a str,
    id: Option<&'a Json>,
    replied: bool,
}

impl Completion<'_> {
    fn reply(mut self, frame: Vec<u8>) {
        self.shared.push_completion(self.conn, frame);
        self.replied = true;
    }
}

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        if !self.replied {
            let message = "the server failed while handling the request";
            let resp = error_response(codes::INTERNAL_ERROR, message, self.id);
            self.shared.push_completion(self.conn, frame_bytes(&resp));
        }
        self.shared.tenant_complete(self.tenant);
        self.shared.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The pool job of one admitted request: refuse it if it waited out its
/// deadline in the admission queue, otherwise run `handler` on it
/// ([`execute`]), and reply.
fn run_admitted(
    request: &Request,
    conn: u64,
    tenant: &str,
    shared: &Arc<Shared>,
    deadline: Deadline,
    handler: impl FnOnce(&Request, u64, &str, &Arc<Shared>, Deadline) -> Result<Reply, SrvError>,
) {
    let id = request.body.get("id");
    let done = Completion { shared, conn, tenant, id, replied: false };
    let frame = if deadline.exceeded() {
        shared.deadline_missed.fetch_add(1, Ordering::Relaxed);
        shared.tracer.instant(
            Track::Server,
            "deadline_exceeded",
            vec![("request", ArgValue::Str(request.ty.clone()))],
        );
        frame_bytes(&deadline_response("in the admission queue", deadline.admitted_at, id))
    } else {
        match handler(request, conn, tenant, shared, deadline) {
            Ok(Reply::Json(resp)) => frame_bytes(&with_id(resp, id)),
            Ok(Reply::Framed(frame)) => frame,
            Err(e) => frame_bytes(&e.into_response(id)),
        }
    };
    done.reply(frame);
}

/// Lock open session `sid`. A lock that a panicking request poisoned
/// closes the session instead: its `Concord` may have stopped half-way
/// through an operation, so this request and every later one on the
/// session get `no_such_session`.
fn lock_session<'s>(
    shared: &Shared,
    sid: u64,
    session: &'s Mutex<Session>,
) -> Result<MutexGuard<'s, Session>, SrvError> {
    match session.lock() {
        Ok(guard) => Ok(guard),
        Err(poisoned) => {
            drop(poisoned);
            close_session(shared, sid);
            Err((codes::NO_SUCH_SESSION, format!("no session {sid}")).into())
        }
    }
}

/// Remove session `sid` from the server; `false` when it was not open.
fn close_session(shared: &Shared, sid: u64) -> bool {
    let removed = shared.sessions.lock().unwrap().remove(&sid);
    shared.session_owners.lock().unwrap().remove(&sid);
    if removed.is_some() {
        shared.tracer.instant(
            Track::Server,
            "session_close",
            vec![("session", ArgValue::UInt(sid))],
        );
    }
    removed.is_some()
}

/// Execute one admitted request on a worker thread.
fn execute(
    request: &Request,
    conn_id: u64,
    tenant: &str,
    shared: &Arc<Shared>,
    deadline: Deadline,
) -> Result<Reply, SrvError> {
    let req = &request.body;
    let session_of = |sid: u64| {
        shared
            .sessions
            .lock()
            .unwrap()
            .get(&sid)
            .cloned()
            .ok_or((codes::NO_SUCH_SESSION, format!("no session {sid}")))
    };
    let resp = match request.ty.as_str() {
        "sleep" => {
            let ms = field_u64(req, "ms")?.min(MAX_SLEEP_MS);
            // With a `session` field, the sleep holds that session's mutex
            // for its whole duration — a diagnostic gate that lets tests
            // (and operators) measure session-lock contention effects such
            // as the pre-launch deadline re-check.
            let locked = match req.get("session").and_then(Json::as_u64) {
                None => None,
                Some(sid) => Some((sid, session_of(sid)?)),
            };
            let _guard = match &locked {
                None => None,
                Some((sid, session)) => Some(lock_session(shared, *sid, session)?),
            };
            thread::sleep(Duration::from_millis(ms));
            Json::obj(vec![("type", Json::str("ok"))])
        }
        "open_session" => open_session(req, conn_id, tenant, shared)?,
        "close" => {
            let sid = field_u64(req, "session")?;
            if !close_session(shared, sid) {
                return Err((codes::NO_SUCH_SESSION, format!("no session {sid}")).into());
            }
            Json::obj(vec![("type", Json::str("closed"))])
        }
        "read" => {
            let sid = field_u64(req, "session")?;
            let session = session_of(sid)?;
            let session = lock_session(shared, sid, &session)?;
            return read_region(req, &session.cc, req.get("id"));
        }
        _ => {
            let sid = field_u64(req, "session")?;
            let session = session_of(sid)?;
            let mut session = lock_session(shared, sid, &session)?;
            session_op(request, &mut session, shared, deadline)?
        }
    };
    Ok(Reply::Json(resp))
}

/// The one `read` handler. The region bytes leave either as the hex field
/// of a `data` response or, when the request says `"raw": true`, as the
/// raw tail of one — framed here, while the session is locked, so the
/// borrowed region slice is copied once, into the bytes the socket gets.
fn read_region(req: &Json, cc: &Concord, id: Option<&Json>) -> Result<Reply, SrvError> {
    let addr = field_u64(req, "addr")?;
    let len = field_u64(req, "len")?;
    if len > MAX_READ_BYTES {
        return Err((
            codes::BAD_REQUEST,
            format!("`len` exceeds the {MAX_READ_BYTES}-byte read limit"),
        )
            .into());
    }
    let raw = match req.get("raw") {
        None => false,
        Some(v) => {
            v.as_bool().ok_or((codes::BAD_REQUEST, "`raw` must be a boolean".to_string()))?
        }
    };
    let bytes = cc
        .region()
        .read_bytes(addr, concord_ir::types::AddrSpace::Cpu, len)
        .map_err(|t| (codes::REGION_FAULT, t.to_string()))?;
    if raw {
        let head = with_id(Json::obj(vec![("type", Json::str("data"))]), id);
        return frame_with_tail(head, bytes)
            .map(Reply::Framed)
            .map_err(|e| (codes::OVERSIZED_FRAME, e.to_string()).into());
    }
    Ok(Reply::Json(Json::obj(vec![("type", Json::str("data")), ("hex", to_hex(bytes).into())])))
}

fn open_session(
    req: &Json,
    conn_id: u64,
    tenant: &str,
    shared: &Arc<Shared>,
) -> Result<Json, SrvError> {
    let source = req
        .get("source")
        .and_then(Json::as_str)
        .ok_or((codes::BAD_REQUEST, "missing string field `source`".to_string()))?;
    let system = match req.get("system").and_then(Json::as_str).unwrap_or("ultrabook") {
        "ultrabook" => SystemConfig::ultrabook(),
        "desktop" => SystemConfig::desktop(),
        other => {
            return Err((
                codes::BAD_REQUEST,
                format!("unknown system `{other}` (expected ultrabook|desktop)"),
            )
                .into())
        }
    };
    let eus = system.gpu.eus;
    let gpu_config = match req.get("gpu_config").and_then(Json::as_str).unwrap_or("all") {
        "baseline" => concord_compiler::GpuConfig::baseline(eus),
        "ptropt" => concord_compiler::GpuConfig::ptropt(eus),
        "l3opt" => concord_compiler::GpuConfig::l3opt(eus),
        "all" => concord_compiler::GpuConfig::all(eus),
        other => {
            return Err((
                codes::BAD_REQUEST,
                format!("unknown gpu_config `{other}` (expected baseline|ptropt|l3opt|all)"),
            )
                .into())
        }
    };
    let region_bytes = match req.get("region_bytes") {
        None => Options::default().region_bytes,
        Some(v) => v.as_u64().filter(|&b| b > 0 && b <= MAX_REGION_BYTES).ok_or((
            codes::BAD_REQUEST,
            format!("`region_bytes` must be in 1..={MAX_REGION_BYTES}"),
        ))?,
    };
    let analysis = match req.get("analysis").and_then(Json::as_str) {
        None => Options::default().analysis,
        Some(s) => AnalysisGate::parse(s).ok_or((
            codes::BAD_REQUEST,
            format!("unknown analysis gate `{s}` (expected warn|deny)"),
        ))?,
    };
    // Session-wide default launch target; a launch's own `target` field
    // still overrides it. An unsupported-arch `native` default is accepted
    // here and surfaces as `native_unsupported` on the first launch that
    // actually uses it.
    let default_target = parse_target(req, Target::Auto)?;
    // Informational only (a concurrent open may racily insert between the
    // probe and the build); exact totals come from the cache counters.
    let cache_hit = shared.cache.contains(source, gpu_config);
    let opts =
        Options { region_bytes, gpu_config: Some(gpu_config), analysis, ..Options::default() };
    let mut cc =
        Concord::new_with_cache(system, source, opts, &shared.cache).map_err(runtime_error)?;
    if analysis == AnalysisGate::Deny {
        // Pre-screen every kernel at open so a deny-gated client learns
        // about racy code before allocating regions and staging data. Each
        // kernel is screened under its *intended* convention (Reduce when
        // it has a `join`), so reduce-style accumulator bodies are not
        // false-denied; a later `parallel_for` launch of such a class is
        // still caught by the runtime's per-launch gate.
        let kernels: Vec<(String, AnalysisMode)> = cc
            .program()
            .kernels
            .iter()
            .map(|k| {
                let mode =
                    if k.join_fn.is_some() { AnalysisMode::Reduce } else { AnalysisMode::For };
                (k.class_name.clone(), mode)
            })
            .collect();
        for (class, mode) in kernels {
            let report = cc.analyze_kernel(&class, mode).map_err(runtime_error)?;
            if report.has_errors() {
                return Err(runtime_error(RuntimeError::AnalysisDenied { kernel: class, report }));
            }
        }
    }
    let sid = shared.next_session.fetch_add(1, Ordering::Relaxed);
    {
        // Lock order: live_conns → sessions → session_owners. Holding the
        // live set while inserting closes the race where the connection
        // dies (and is reaped) mid-compile: a session registered after its
        // owner's teardown would leak until process exit.
        let live = shared.live_conns.lock().unwrap();
        if live.contains(&conn_id) {
            shared
                .sessions
                .lock()
                .unwrap()
                .insert(sid, Arc::new(Mutex::new(Session { cc, default_target })));
            shared
                .session_owners
                .lock()
                .unwrap()
                .insert(sid, SessionOwner { conn: conn_id, tenant: tenant.to_string() });
        }
    }
    shared.tracer.instant(
        Track::Server,
        "session_open",
        vec![("session", ArgValue::UInt(sid)), ("cache_hit", ArgValue::Bool(cache_hit))],
    );
    Ok(Json::obj(vec![
        ("type", Json::str("session")),
        ("session", sid.into()),
        ("cache_hit", cache_hit.into()),
        ("source_hash", format!("{:016x}", concord_runtime::source_hash(source)).into()),
    ]))
}

/// Region and launch operations against one locked session.
fn session_op(
    request: &Request,
    session: &mut Session,
    shared: &Arc<Shared>,
    deadline: Deadline,
) -> Result<Json, SrvError> {
    let (req, ty) = (&request.body, request.ty.as_str());
    let cc = &mut session.cc;
    match ty {
        "malloc" => {
            let bytes = field_u64(req, "bytes")?;
            let addr = cc.malloc(bytes).map_err(runtime_error)?;
            Ok(Json::obj(vec![("type", Json::str("addr")), ("addr", addr.0.into())]))
        }
        "free" => {
            let addr = field_u64(req, "addr")?;
            cc.free(CpuAddr(addr)).map_err(runtime_error)?;
            Ok(Json::obj(vec![("type", Json::str("ok"))]))
        }
        "write" => {
            let addr = field_u64(req, "addr")?;
            // The one `write` handler: the bytes are the request's raw tail
            // or, from a peer that writes JSON by hand, its `hex` field.
            let decoded;
            let bytes: &[u8] = match (&request.tail, req.get("hex")) {
                (Some(tail), None) => tail,
                (Some(_), Some(_)) => {
                    return Err((
                        codes::BAD_REQUEST,
                        format!("`write` carries both `hex` and a `{TAIL_FIELD}` tail"),
                    )
                        .into())
                }
                (None, hex) => {
                    let hex = hex
                        .and_then(Json::as_str)
                        .ok_or((codes::BAD_REQUEST, "missing string field `hex`".to_string()))?;
                    decoded = from_hex(hex).map_err(|e| (codes::BAD_REQUEST, e))?;
                    &decoded
                }
            };
            cc.region_mut()
                .write_bytes(addr, concord_ir::types::AddrSpace::Cpu, bytes)
                .map_err(|t| (codes::REGION_FAULT, t.to_string()))?;
            Ok(Json::obj(vec![("type", Json::str("ok"))]))
        }
        "write_ptr" => {
            let addr = field_u64(req, "addr")?;
            let target = field_u64(req, "target")?;
            cc.region_mut()
                .write_ptr(CpuAddr(addr), CpuAddr(target))
                .map_err(|t| (codes::REGION_FAULT, t.to_string()))?;
            Ok(Json::obj(vec![("type", Json::str("ok"))]))
        }
        "parallel_for" | "parallel_reduce" => {
            let launch = parse_launch(req, session.default_target)?;
            check_launch_deadline(shared, deadline)?;
            let _inflight = InflightGuard::enter(shared);
            let cc = &mut session.cc;
            let hazard_before = cc.native_hazard_serialized();
            let report = if ty == "parallel_for" {
                cc.parallel_for_hetero(&launch.class, launch.body, launch.n, launch.target)
            } else {
                cc.parallel_reduce_hetero(&launch.class, launch.body, launch.n, launch.target)
            }
            .map_err(runtime_error)?;
            shared
                .hazard_serialized
                .fetch_add(cc.native_hazard_serialized() - hazard_before, Ordering::Relaxed);
            Ok(Json::obj(vec![("type", Json::str("report")), ("report", report_json(&report))]))
        }
        "parallel_worklist" => {
            let (class, body) = parse_kernel(req)?;
            let target = parse_target(req, session.default_target)?;
            let seed_json = req
                .get("seed")
                .and_then(Json::as_arr)
                .ok_or((codes::BAD_REQUEST, "missing array field `seed`".to_string()))?;
            if seed_json.len() > MAX_SEED_ITEMS {
                return Err((
                    codes::BAD_REQUEST,
                    format!("`seed` exceeds the {MAX_SEED_ITEMS}-item limit"),
                )
                    .into());
            }
            let mut seed = Vec::with_capacity(seed_json.len());
            for v in seed_json {
                let f = v.as_f64().filter(|f| {
                    f.fract() == 0.0 && (f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(f)
                });
                let Some(f) = f else {
                    return Err((
                        codes::BAD_REQUEST,
                        "`seed` items must be 32-bit integers".to_string(),
                    )
                        .into());
                };
                #[allow(clippy::cast_possible_truncation)]
                seed.push(f as i32);
            }
            check_launch_deadline(shared, deadline)?;
            let _inflight = InflightGuard::enter(shared);
            let w = session
                .cc
                .parallel_worklist_hetero(&class, body, &seed, target)
                .map_err(runtime_error)?;
            Ok(Json::obj(vec![
                ("type", Json::str("report")),
                ("report", report_json(&w.offload)),
                (
                    "frontier_sizes",
                    Json::Arr(w.frontier_sizes.iter().map(|&n| Json::from(n)).collect()),
                ),
            ]))
        }
        "parallel_batch" => {
            let entries = req
                .get("launches")
                .and_then(Json::as_arr)
                .ok_or((codes::BAD_REQUEST, "missing array field `launches`".to_string()))?;
            if entries.is_empty() || entries.len() > MAX_BATCH {
                return Err((
                    codes::BAD_REQUEST,
                    format!("`launches` must hold 1..={MAX_BATCH} entries"),
                )
                    .into());
            }
            // Validate every entry before submitting any: a malformed
            // trailing entry must not strand earlier launches in the graph.
            let launches = entries
                .iter()
                .map(|e| parse_launch(e, session.default_target))
                .collect::<Result<Vec<_>, _>>()?;
            check_launch_deadline(shared, deadline)?;
            let _inflight = InflightGuard::enter(shared);
            let cc = &mut session.cc;
            let before = cc.graph_stats();
            let hazard_before = cc.native_hazard_serialized();
            // Submit everything first — the launch graph sees the whole
            // batch and waves provably-independent launches together — then
            // redeem the ids in submission order. A failed submit becomes
            // that entry's error; later entries still run (the same
            // caller-continues semantics a serial client loop would have).
            let submitted: Vec<Result<concord_runtime::LaunchId, RuntimeError>> = launches
                .iter()
                .map(|l| {
                    if l.reduce {
                        cc.submit_reduce(&l.class, l.body, l.n, l.target)
                    } else {
                        cc.submit_for(&l.class, l.body, l.n, l.target)
                    }
                })
                .collect();
            let reports: Vec<Json> = submitted
                .into_iter()
                .map(|sub| match sub.and_then(|id| cc.complete(id)) {
                    Ok(report) => Json::obj(vec![("report", report_json(&report))]),
                    Err(e) => {
                        let err = runtime_error(e);
                        let mut fields = vec![
                            ("code".to_string(), Json::str(err.code)),
                            ("message".to_string(), Json::str(&err.message)),
                        ];
                        if let Some(d) = err.diagnostics {
                            fields.push(("diagnostics".to_string(), d));
                        }
                        Json::obj(vec![("error", Json::Obj(fields))])
                    }
                })
                .collect();
            let delta = {
                let after = cc.graph_stats();
                shared
                    .overlapped
                    .fetch_add(after.overlapped - before.overlapped, Ordering::Relaxed);
                shared
                    .conflict_stalls
                    .fetch_add(after.conflict_stalls - before.conflict_stalls, Ordering::Relaxed);
                shared
                    .hazard_serialized
                    .fetch_add(cc.native_hazard_serialized() - hazard_before, Ordering::Relaxed);
                after
            };
            Ok(Json::obj(vec![
                ("type", Json::str("batch_report")),
                ("reports", Json::Arr(reports)),
                ("overlapped", (delta.overlapped - before.overlapped).into()),
                ("conflict_stalls", (delta.conflict_stalls - before.conflict_stalls).into()),
                ("coalesced", (delta.coalesced - before.coalesced).into()),
                ("fences_elided", (delta.fences_elided - before.fences_elided).into()),
            ]))
        }
        _ => unreachable!("dispatch covers every admitted type"),
    }
}

/// One parsed launch descriptor (a `parallel_for`/`parallel_reduce`
/// request body, or one element of a `parallel_batch`'s `launches`).
struct ParsedLaunch {
    class: String,
    body: CpuAddr,
    n: u32,
    target: Target,
    reduce: bool,
}

fn parse_launch(v: &Json, default_target: Target) -> Result<ParsedLaunch, SrvError> {
    let (class, body) = parse_kernel(v)?;
    let n = u32::try_from(field_u64(v, "n")?)
        .map_err(|_| (codes::BAD_REQUEST, "`n` exceeds u32".to_string()))?;
    let target = parse_target(v, default_target)?;
    let reduce = v.get("reduce").and_then(Json::as_bool).unwrap_or(false);
    Ok(ParsedLaunch { class, body, n, target, reduce })
}

/// The `class` and `body` fields every launch request carries.
fn parse_kernel(v: &Json) -> Result<(String, CpuAddr), SrvError> {
    let class = v
        .get("class")
        .and_then(Json::as_str)
        .ok_or((codes::BAD_REQUEST, "missing string field `class`".to_string()))?;
    Ok((class.to_string(), CpuAddr(field_u64(v, "body")?)))
}

/// The optional `target` field of a session open or a launch: absent
/// means `default`.
fn parse_target(v: &Json, default: Target) -> Result<Target, SrvError> {
    let Some(s) = v.get("target").and_then(Json::as_str) else {
        return Ok(default);
    };
    Target::parse(s).ok_or_else(|| {
        let message = format!("bad target `{s}` (expected cpu|gpu|auto|native|hybrid[:f])");
        (codes::BAD_REQUEST, message).into()
    })
}

/// The pre-launch deadline re-check (satellite of the launch graph): the
/// session mutex is a second queue after admission, and a launch whose
/// deadline lapsed while another request held the session must answer
/// `deadline_exceeded` (with `queued_ms` detail) rather than run late.
fn check_launch_deadline(shared: &Arc<Shared>, deadline: Deadline) -> Result<(), SrvError> {
    if !deadline.exceeded() {
        return Ok(());
    }
    shared.deadline_missed.fetch_add(1, Ordering::Relaxed);
    shared.tracer.instant(
        Track::Server,
        "deadline_exceeded",
        vec![("where", ArgValue::Str("pre_launch".to_string()))],
    );
    let queued_ms = deadline.queued_ms();
    Err(SrvError {
        code: codes::DEADLINE_EXCEEDED,
        message: format!(
            "deadline passed before the launch could start ({queued_ms} ms from admission \
             to launch: admission queue plus session-lock wait)"
        ),
        diagnostics: Some(Json::obj(vec![("queued_ms", queued_ms.into())])),
    })
}

/// RAII bracket around launch execution: tracks process-wide in-flight
/// launches and counts an overlap event when a launch begins while another
/// (necessarily from a different session — the session mutex serializes
/// within one) is already running.
struct InflightGuard<'a> {
    shared: &'a Shared,
}

impl<'a> InflightGuard<'a> {
    fn enter(shared: &'a Arc<Shared>) -> InflightGuard<'a> {
        let prev = shared.inflight.fetch_add(1, Ordering::SeqCst);
        if prev > 0 {
            shared.overlapped.fetch_add(1, Ordering::Relaxed);
        }
        shared.tracer.counter(Track::Server, "launches_inflight", (prev + 1) as f64);
        InflightGuard { shared }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let now = self.shared.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.shared.tracer.counter(Track::Server, "launches_inflight", now as f64);
    }
}

/// A launch report as a JSON object (field names mirror [`OffloadReport`]).
#[must_use]
pub fn report_json(r: &OffloadReport) -> Json {
    Json::obj(vec![
        ("jit_seconds", r.jit_seconds.into()),
        ("exec_seconds", r.exec_seconds.into()),
        ("joules", r.joules.into()),
        ("on_gpu", r.on_gpu.into()),
        ("fell_back", r.fell_back.into()),
        ("translations", r.translations.into()),
        ("transactions", r.transactions.into()),
        ("contended", r.contended.into()),
        ("busy_fraction", r.busy_fraction.into()),
        ("l3_hit_rate", r.l3_hit_rate.into()),
        ("insts", r.insts.into()),
    ])
}

/// A stats snapshot as a JSON response. (The `stats` frame handler appends
/// the per-tenant counters and the poller backend on top of these.)
#[must_use]
pub fn stats_json(s: &ServerStats) -> Json {
    Json::obj(vec![
        ("type", Json::str("stats")),
        ("sessions", s.sessions.into()),
        ("cache_entries", s.cache_entries.into()),
        ("cache_hits", s.cache_hits.into()),
        ("cache_misses", s.cache_misses.into()),
        ("disk_hits", s.disk_hits.into()),
        ("compiles", s.compiles.into()),
        ("corrupt_evicted", s.corrupt_evicted.into()),
        ("disk_writes", s.disk_writes.into()),
        ("queued", s.queued.into()),
        ("admitted", s.admitted.into()),
        ("completed", s.completed.into()),
        ("rejected", s.rejected.into()),
        ("quota_rejected", s.quota_rejected.into()),
        ("deadline_missed", s.deadline_missed.into()),
        ("connections", s.connections.into()),
        ("connections_open", s.connections_open.into()),
        ("inflight", s.inflight.into()),
        ("overlapped", s.overlapped.into()),
        ("conflict_stalls", s.conflict_stalls.into()),
        ("hazard_serialized", s.hazard_serialized.into()),
    ])
}

fn field_u64(req: &Json, name: &str) -> Result<u64, (&'static str, String)> {
    req.get(name)
        .and_then(Json::as_u64)
        .ok_or((codes::BAD_REQUEST, format!("missing or non-integer field `{name}`")))
}

fn runtime_error(e: RuntimeError) -> SrvError {
    let (code, diagnostics) = match &e {
        RuntimeError::Compile(_) => (codes::COMPILE_ERROR, None),
        RuntimeError::Alloc(_) => (codes::ALLOC_FAILED, None),
        RuntimeError::Trap(_) => (codes::TRAP, None),
        RuntimeError::NoSuchKernel(_) => (codes::NO_SUCH_KERNEL, None),
        RuntimeError::NoJoin(_) => (codes::NO_JOIN, None),
        RuntimeError::NativeUnsupported(_) => (codes::NATIVE_UNSUPPORTED, None),
        // Server-side launch-graph bookkeeping bugs, not client mistakes:
        // the ids the server completes are the ones it just submitted, and
        // the server never replays journals.
        RuntimeError::UnknownLaunch(_) | RuntimeError::ReplayDiverged(_) => {
            (codes::BAD_REQUEST, None)
        }
        // The analysis report is stable JSON; re-parse it into the wire
        // representation so clients get structured findings, not prose.
        RuntimeError::AnalysisDenied { report, .. } => {
            (codes::ANALYSIS_DENIED, parse(&report.to_json()).ok())
        }
    };
    SrvError { code, message: e.to_string(), diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const CONN: u64 = 3;

    fn shared() -> Arc<Shared> {
        let addr = "127.0.0.1:0".parse().unwrap();
        let config = ServeConfig::default();
        Arc::new(Shared::new(addr, &config, Waker::new().unwrap(), "none", ArtifactCache::new()))
    }

    fn request(text: &str) -> Request {
        let body = parse(text).unwrap();
        let ty = body.get("type").and_then(Json::as_str).unwrap().to_string();
        Request { body, tail: None, ty }
    }

    /// Admit `request` for tenant `t` and run its job body with `handler`;
    /// whether the job panicked.
    fn run(
        shared: &Arc<Shared>,
        request: &Request,
        handler: impl FnOnce(&Request, u64, &str, &Arc<Shared>, Deadline) -> Result<Reply, SrvError>,
    ) -> bool {
        shared.tenant_try_admit("t").unwrap();
        let deadline = Deadline { ms: None, admitted_at: Instant::now() };
        let job = || run_admitted(request, CONN, "t", shared, deadline, handler);
        catch_unwind(AssertUnwindSafe(job)).is_err()
    }

    /// The `(code, id)` of every reply queued so far, all for [`CONN`].
    fn replies(shared: &Shared) -> Vec<(String, u64)> {
        let completions = shared.completions.lock().unwrap();
        let reply = |(conn, frame): &(u64, Vec<u8>)| {
            assert_eq!(*conn, CONN);
            let resp = parse(&read_frame(&mut frame.as_slice()).unwrap().unwrap()).unwrap();
            let code = resp.get("code").and_then(Json::as_str).unwrap_or("ok").to_string();
            (code, resp.get("id").and_then(Json::as_u64).unwrap())
        };
        completions.iter().map(reply).collect()
    }

    /// `(pending, completed)` of tenant `t`, and the server's completions.
    fn counts(shared: &Shared) -> (u64, u64, u64) {
        let c = shared.tenants.lock().unwrap()["t"];
        (c.pending, c.completed, shared.completed.load(Ordering::Relaxed))
    }

    #[test]
    fn a_panicking_handler_still_replies_and_releases_its_slot() {
        let shared = shared();
        let req = request(r#"{"type":"malloc","session":1,"bytes":8,"id":7}"#);
        assert!(run(&shared, &req, |_, _, _, _, _| panic!("injected handler panic")));
        assert_eq!(replies(&shared), [(codes::INTERNAL_ERROR.to_string(), 7)]);
        assert_eq!(counts(&shared), (0, 1, 1));
    }

    #[test]
    fn a_session_poisoned_by_a_panic_is_closed() {
        let shared = shared();
        let src = "class K { public: int* out; void operator()(int i) { out[i] = i; } };";
        let cc = Concord::new(SystemConfig::ultrabook(), src, Options::default()).unwrap();
        let session = Session { cc, default_target: Target::Cpu };
        shared.sessions.lock().unwrap().insert(1, Arc::new(Mutex::new(session)));
        let owner = SessionOwner { conn: CONN, tenant: "t".to_string() };
        shared.session_owners.lock().unwrap().insert(1, owner);
        let poison = |_: &Request, _, _: &str, shared: &Arc<Shared>, _| {
            let session = Arc::clone(&shared.sessions.lock().unwrap()[&1]);
            let _held = session.lock().unwrap();
            panic!("injected handler panic under the session lock")
        };
        let req =
            |id: u64| request(&format!(r#"{{"type":"malloc","session":1,"bytes":8,"id":{id}}}"#));
        assert!(run(&shared, &req(1), poison));
        assert!(!run(&shared, &req(2), execute));
        assert!(!run(&shared, &req(3), execute));
        let want =
            [(codes::INTERNAL_ERROR, 1), (codes::NO_SUCH_SESSION, 2), (codes::NO_SUCH_SESSION, 3)];
        assert_eq!(replies(&shared), want.map(|(code, id)| (code.to_string(), id)));
        assert!(shared.sessions.lock().unwrap().is_empty());
        assert!(shared.session_owners.lock().unwrap().is_empty());
        assert_eq!(counts(&shared), (0, 3, 3));
    }
}
