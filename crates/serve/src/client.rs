//! Blocking client for the offload protocol.
//!
//! [`Client`] is one connection speaking the low-level protocol (every
//! call takes an explicit session id, so one connection can multiplex
//! several sessions). [`SessionHandle`] owns a connection plus one open
//! session and exposes the ergonomic surface the bench client and tests
//! use: malloc, typed writes, launches, reads.
//!
//! Calls are strictly request/response: each call sends one frame with a
//! fresh `id` and reads frames until the echoed `id` matches, so a handle
//! is single-threaded by construction (it is still `Send`, and moving one
//! into a worker thread is the intended fan-out pattern).
//!
//! The socket runs with `TCP_NODELAY` and every request leaves in one
//! `write`; region bytes travel as raw payload tails in both directions
//! (see [`crate::protocol`]), never as hex.

use crate::json::{parse, Json};
use crate::protocol::{frame_with_tail, read_frame, read_tail, send};
use concord_runtime::OffloadReport;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure (the connection is unusable).
    Io(io::Error),
    /// The server answered `{"type":"error"}`.
    Server {
        /// Stable protocol error code (see [`crate::protocol::codes`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server refused admission: its queue is full. Retry later.
    Overloaded,
    /// The server's answer did not fit the protocol.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Overloaded => f.write_str("server overloaded"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The protocol error code, when the server produced one.
    #[must_use]
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// Options for [`Client::open_session`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// `"ultrabook"` (default) or `"desktop"`.
    pub system: Option<String>,
    /// `"baseline"`, `"ptropt"`, `"l3opt"`, or `"all"` (default).
    pub gpu_config: Option<String>,
    /// Shared-region capacity in bytes (server default when `None`).
    pub region_bytes: Option<u64>,
    /// Static-analysis gate: `"warn"` (server default) or `"deny"`. Under
    /// `"deny"` the server refuses to open a session whose source contains
    /// a kernel with analysis errors (and refuses launches that race a
    /// clean-under-reduce kernel), answering `analysis_denied` with a
    /// structured `diagnostics` payload.
    pub analysis: Option<String>,
    /// Session-default launch target: `"cpu"`, `"gpu"`, `"auto"` (server
    /// default), `"native"`, or `"hybrid[:f]"`. A launch's own
    /// [`Launch::target`] still overrides it. `"native"` is accepted at
    /// open even on hosts without the native backend; the first launch
    /// that uses it answers `native_unsupported`.
    pub target: Option<String>,
    /// Admission-quota tenant for this session. Requests against the
    /// session count toward this tenant's pending cap (when the server
    /// runs with quotas on) and its counters in the `stats` response.
    /// `None` joins the shared `"default"` bucket.
    pub tenant: Option<String>,
}

/// A freshly opened session: its id plus whether the server's artifact
/// cache already held the compiled source.
#[derive(Debug, Clone, Copy)]
pub struct OpenedSession {
    /// Server-assigned session id.
    pub session: u64,
    /// True when compilation was served from the process-wide cache.
    pub cache_hit: bool,
}

/// One connection to an offload server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // A request is one small segment awaiting a reply: Nagle would hold
        // it back for the peer's delayed ACK.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader, next_id: 1 })
    }

    /// Send one request and wait for its response (matched by echoed id).
    /// A raw tail on the response is read off the stream and dropped; use
    /// [`Client::read`] to get region bytes.
    ///
    /// # Errors
    ///
    /// [`ClientError`] for transport failures, server-side errors,
    /// `overloaded` refusals, and protocol violations.
    pub fn call(&mut self, request: Json) -> Result<Json, ClientError> {
        self.exchange(request, None).map(|(resp, _)| resp)
    }

    /// One request/response exchange: `request` (followed by `tail` as a
    /// raw payload tail, when given) out in a single write, then frames in
    /// until the echoed id matches. Returns the response and its tail.
    fn exchange(
        &mut self,
        mut request: Json,
        tail: Option<&[u8]>,
    ) -> Result<(Json, Option<Vec<u8>>), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        if let Json::Obj(fields) = &mut request {
            fields.push(("id".to_string(), id.into()));
        }
        match tail {
            Some(tail) => self.writer.write_all(&frame_with_tail(request, tail)?)?,
            None => send(&mut self.writer, &request)?,
        }
        loop {
            let payload = read_frame(&mut self.reader)
                .map_err(|e| ClientError::Protocol(e.to_string()))?
                .ok_or_else(|| {
                    ClientError::Protocol("connection closed awaiting response".to_string())
                })?;
            let resp = parse(&payload).map_err(ClientError::Protocol)?;
            // The tail belongs to the byte stream whoever the frame is for.
            let tail = read_tail(&mut self.reader, &resp)
                .map_err(|e| ClientError::Protocol(e.to_string()))?;
            // Responses to this connection's earlier (pipelined or failed)
            // requests can still be in flight; skip anything not ours.
            if resp.get("id").and_then(Json::as_u64) != Some(id) {
                continue;
            }
            return match resp.get("type").and_then(Json::as_str) {
                Some("error") => Err(ClientError::Server {
                    code: resp.get("code").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                    message: resp
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                }),
                Some("overloaded") => Err(ClientError::Overloaded),
                Some(_) => Ok((resp, tail)),
                None => Err(ClientError::Protocol("response missing `type`".to_string())),
            };
        }
    }

    /// Round-trip a `ping`.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(Json::obj(vec![("type", Json::str("ping"))])).map(|_| ())
    }

    /// Fetch the server's stats counters as raw JSON.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(Json::obj(vec![("type", Json::str("stats"))]))
    }

    /// Ask the server to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call(Json::obj(vec![("type", Json::str("shutdown"))])).map(|_| ())
    }

    /// Open a session compiling `source` on the server.
    ///
    /// # Errors
    ///
    /// `compile_error` and transport failures; see [`Client::call`].
    pub fn open_session(
        &mut self,
        source: &str,
        opts: &SessionOptions,
    ) -> Result<OpenedSession, ClientError> {
        let mut fields = vec![("type", Json::str("open_session")), ("source", source.into())];
        if let Some(system) = &opts.system {
            fields.push(("system", system.as_str().into()));
        }
        if let Some(cfg) = &opts.gpu_config {
            fields.push(("gpu_config", cfg.as_str().into()));
        }
        if let Some(bytes) = opts.region_bytes {
            fields.push(("region_bytes", bytes.into()));
        }
        if let Some(gate) = &opts.analysis {
            fields.push(("analysis", gate.as_str().into()));
        }
        if let Some(target) = &opts.target {
            fields.push(("target", target.as_str().into()));
        }
        if let Some(tenant) = &opts.tenant {
            fields.push(("tenant", tenant.as_str().into()));
        }
        let resp = self.call(Json::obj(fields))?;
        Ok(OpenedSession {
            session: expect_u64(&resp, "session")?,
            cache_hit: resp.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// Allocate `bytes` in the session's shared region.
    ///
    /// # Errors
    ///
    /// `alloc_failed` and transport failures; see [`Client::call`].
    pub fn malloc(&mut self, session: u64, bytes: u64) -> Result<u64, ClientError> {
        let resp = self.call(Json::obj(vec![
            ("type", Json::str("malloc")),
            ("session", session.into()),
            ("bytes", bytes.into()),
        ]))?;
        expect_u64(&resp, "addr")
    }

    /// Write raw bytes at a shared-region address.
    ///
    /// # Errors
    ///
    /// `region_fault` and transport failures; see [`Client::call`].
    pub fn write(&mut self, session: u64, addr: u64, bytes: &[u8]) -> Result<(), ClientError> {
        let request = Json::obj(vec![
            ("type", Json::str("write")),
            ("session", session.into()),
            ("addr", addr.into()),
        ]);
        self.exchange(request, Some(bytes)).map(|_| ())
    }

    /// Read `len` raw bytes from a shared-region address.
    ///
    /// # Errors
    ///
    /// `region_fault` and transport failures; see [`Client::call`].
    pub fn read(&mut self, session: u64, addr: u64, len: u64) -> Result<Vec<u8>, ClientError> {
        let request = Json::obj(vec![
            ("type", Json::str("read")),
            ("session", session.into()),
            ("addr", addr.into()),
            ("len", len.into()),
            ("raw", true.into()),
        ]);
        let (_, tail) = self.exchange(request, None)?;
        tail.ok_or_else(|| ClientError::Protocol("data response carries no payload tail".into()))
    }

    /// Store a shared pointer (SVM representation) at `addr`.
    ///
    /// # Errors
    ///
    /// `region_fault` and transport failures; see [`Client::call`].
    pub fn write_ptr(&mut self, session: u64, addr: u64, target: u64) -> Result<(), ClientError> {
        self.call(Json::obj(vec![
            ("type", Json::str("write_ptr")),
            ("session", session.into()),
            ("addr", addr.into()),
            ("target", target.into()),
        ]))
        .map(|_| ())
    }

    /// Launch a `parallel_for` and return its report.
    ///
    /// # Errors
    ///
    /// Launch errors (`trap`, `no_such_kernel`, `deadline_exceeded`, …) and
    /// transport failures; see [`Client::call`].
    pub fn parallel_for(
        &mut self,
        session: u64,
        launch: &Launch<'_>,
    ) -> Result<OffloadReport, ClientError> {
        self.launch("parallel_for", session, launch)
    }

    /// Launch a `parallel_reduce` and return its report.
    ///
    /// # Errors
    ///
    /// As [`Client::parallel_for`], plus `no_join`.
    pub fn parallel_reduce(
        &mut self,
        session: u64,
        launch: &Launch<'_>,
    ) -> Result<OffloadReport, ClientError> {
        self.launch("parallel_reduce", session, launch)
    }

    /// Launch a `parallel_worklist` drain: `seed` is the first frontier,
    /// and the server iterates until a round pushes nothing.
    ///
    /// # Errors
    ///
    /// As [`Client::parallel_for`].
    pub fn parallel_worklist(
        &mut self,
        session: u64,
        class: &str,
        body: u64,
        seed: &[i32],
        target: Option<&str>,
    ) -> Result<WorklistOutcome, ClientError> {
        let mut fields = vec![
            ("type", Json::str("parallel_worklist")),
            ("session", session.into()),
            ("class", class.into()),
            ("body", body.into()),
            ("seed", Json::Arr(seed.iter().map(|&v| Json::Num(f64::from(v))).collect())),
        ];
        if let Some(t) = target {
            fields.push(("target", t.into()));
        }
        let resp = self.call(Json::obj(fields))?;
        let report = resp
            .get("report")
            .ok_or_else(|| ClientError::Protocol("report response missing `report`".to_string()))?;
        let frontier_sizes = resp
            .get("frontier_sizes")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_u64)
                    .map(|v| u32::try_from(v).unwrap_or(u32::MAX))
                    .collect()
            })
            .unwrap_or_default();
        Ok(WorklistOutcome { report: parse_report(report), frontier_sizes })
    }

    fn launch(
        &mut self,
        kind: &str,
        session: u64,
        launch: &Launch<'_>,
    ) -> Result<OffloadReport, ClientError> {
        let mut fields = vec![
            ("type", Json::str(kind)),
            ("session", session.into()),
            ("class", launch.class.into()),
            ("body", launch.body.into()),
            ("n", u64::from(launch.n).into()),
        ];
        if let Some(target) = launch.target {
            fields.push(("target", target.into()));
        }
        if let Some(ms) = launch.deadline_ms {
            fields.push(("deadline_ms", ms.into()));
        }
        let resp = self.call(Json::obj(fields))?;
        let report = resp
            .get("report")
            .ok_or_else(|| ClientError::Protocol("report response missing `report`".to_string()))?;
        Ok(parse_report(report))
    }

    /// Submit a batch of launches in one request. The server routes the
    /// whole batch through the session's dependency-aware launch graph, so
    /// provably independent launches overlap (or share fence pairs) while
    /// conflicting ones serialize in submission order — and the response
    /// reports exactly what the graph did.
    ///
    /// # Errors
    ///
    /// Transport failures and request-level refusals (`bad_request`,
    /// `deadline_exceeded`, …). Per-launch failures (`trap`,
    /// `no_such_kernel`, …) do **not** fail the call; they come back as
    /// that entry's slot in [`BatchOutcome::reports`].
    pub fn parallel_batch(
        &mut self,
        session: u64,
        entries: &[BatchEntry<'_>],
        deadline_ms: Option<u64>,
    ) -> Result<BatchOutcome, ClientError> {
        let launches: Vec<Json> = entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("class", Json::str(e.class)),
                    ("body", e.body.into()),
                    ("n", u64::from(e.n).into()),
                    ("reduce", e.reduce.into()),
                ];
                if let Some(t) = e.target {
                    fields.push(("target", t.into()));
                }
                Json::obj(fields)
            })
            .collect();
        let mut fields = vec![
            ("type", Json::str("parallel_batch")),
            ("session", session.into()),
            ("launches", Json::Arr(launches)),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", ms.into()));
        }
        let resp = self.call(Json::obj(fields))?;
        let reports = resp
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("batch response missing `reports`".to_string()))?
            .iter()
            .map(|slot| match (slot.get("report"), slot.get("error")) {
                (Some(r), _) => Ok(parse_report(r)),
                (None, Some(e)) => Err(ClientError::Server {
                    code: e.get("code").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                    message: e
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                }),
                (None, None) => Err(ClientError::Protocol(
                    "batch slot carries neither `report` nor `error`".to_string(),
                )),
            })
            .collect();
        let u = |name: &str| resp.get(name).and_then(Json::as_u64).unwrap_or(0);
        Ok(BatchOutcome {
            reports,
            overlapped: u("overlapped"),
            conflict_stalls: u("conflict_stalls"),
            coalesced: u("coalesced"),
            fences_elided: u("fences_elided"),
        })
    }

    /// Close a session, releasing its region on the server.
    ///
    /// # Errors
    ///
    /// `no_such_session` and transport failures; see [`Client::call`].
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        self.call(Json::obj(vec![("type", Json::str("close")), ("session", session.into())]))
            .map(|_| ())
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client").field("next_id", &self.next_id).finish_non_exhaustive()
    }
}

/// One launch request.
#[derive(Debug, Clone, Copy)]
pub struct Launch<'a> {
    /// Kernel class name.
    pub class: &'a str,
    /// Shared-region address of the kernel body object.
    pub body: u64,
    /// Iteration count.
    pub n: u32,
    /// `cpu`/`gpu`/`auto`/`hybrid[:f]`; server default is `auto`.
    pub target: Option<&'a str>,
    /// Admission deadline in milliseconds (measured from admission).
    pub deadline_ms: Option<u64>,
}

impl<'a> Launch<'a> {
    /// A launch with the server's default target and no deadline.
    #[must_use]
    pub fn new(class: &'a str, body: u64, n: u32) -> Launch<'a> {
        Launch { class, body, n, target: None, deadline_ms: None }
    }

    /// Set the execution target.
    #[must_use]
    pub fn target(mut self, target: &'a str) -> Launch<'a> {
        self.target = Some(target);
        self
    }

    /// Set the admission deadline.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Launch<'a> {
        self.deadline_ms = Some(ms);
        self
    }
}

/// One entry of a [`Client::parallel_batch`] request.
#[derive(Debug, Clone, Copy)]
pub struct BatchEntry<'a> {
    /// Kernel class name.
    pub class: &'a str,
    /// Shared-region address of the kernel body object.
    pub body: u64,
    /// Iteration count.
    pub n: u32,
    /// `cpu`/`gpu`/`auto`/`native`/`hybrid[:f]`; session default when `None`.
    pub target: Option<&'a str>,
    /// True for a `parallel_reduce` launch (the class needs a `join`).
    pub reduce: bool,
}

impl<'a> BatchEntry<'a> {
    /// A `parallel_for` entry with the session-default target.
    #[must_use]
    pub fn new(class: &'a str, body: u64, n: u32) -> BatchEntry<'a> {
        BatchEntry { class, body, n, target: None, reduce: false }
    }

    /// Set the execution target.
    #[must_use]
    pub fn target(mut self, target: &'a str) -> BatchEntry<'a> {
        self.target = Some(target);
        self
    }

    /// Make this entry a `parallel_reduce` launch.
    #[must_use]
    pub fn reduce(mut self) -> BatchEntry<'a> {
        self.reduce = true;
        self
    }
}

/// What one [`Client::parallel_batch`] call produced: a slot per entry
/// (report or per-launch error, in submission order) plus the launch
/// graph's scheduling counters for this batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per submitted entry, in submission order.
    pub reports: Vec<Result<OffloadReport, ClientError>>,
    /// Overlap waves the graph formed inside this batch.
    pub overlapped: u64,
    /// Launches serialized behind a conflicting earlier launch.
    pub conflict_stalls: u64,
    /// Launches that joined a shared-fence batch through accumulate-mode
    /// coalescing.
    pub coalesced: u64,
    /// Fence pairs elided by batching consecutive GPU launches.
    pub fences_elided: u64,
}

/// What one [`Client::parallel_worklist`] call produced: the merged
/// offload report plus the per-round frontier sizes (the drain's
/// deterministic schedule).
#[derive(Debug, Clone)]
pub struct WorklistOutcome {
    /// Offload report merged over every drained round.
    pub report: OffloadReport,
    /// Items drained per round, in round order.
    pub frontier_sizes: Vec<u32>,
}

impl WorklistOutcome {
    /// Number of rounds the drain ran.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.frontier_sizes.len()
    }
}

/// A connection bound to one open session — the ergonomic client surface.
#[derive(Debug)]
pub struct SessionHandle {
    client: Client,
    session: u64,
    cache_hit: bool,
}

impl SessionHandle {
    /// Connect and open one session in a single step.
    ///
    /// # Errors
    ///
    /// Socket errors and everything [`Client::open_session`] can return.
    pub fn connect(
        addr: impl ToSocketAddrs,
        source: &str,
        opts: &SessionOptions,
    ) -> Result<SessionHandle, ClientError> {
        let mut client = Client::connect(addr)?;
        let opened = client.open_session(source, opts)?;
        Ok(SessionHandle { client, session: opened.session, cache_hit: opened.cache_hit })
    }

    /// Server-assigned session id.
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Whether opening this session hit the server's artifact cache.
    #[must_use]
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// See [`Client::malloc`].
    ///
    /// # Errors
    ///
    /// See [`Client::malloc`].
    pub fn malloc(&mut self, bytes: u64) -> Result<u64, ClientError> {
        self.client.malloc(self.session, bytes)
    }

    /// See [`Client::write`].
    ///
    /// # Errors
    ///
    /// See [`Client::write`].
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), ClientError> {
        self.client.write(self.session, addr, bytes)
    }

    /// See [`Client::read`].
    ///
    /// # Errors
    ///
    /// See [`Client::read`].
    pub fn read(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, ClientError> {
        self.client.read(self.session, addr, len)
    }

    /// See [`Client::write_ptr`].
    ///
    /// # Errors
    ///
    /// See [`Client::write_ptr`].
    pub fn write_ptr(&mut self, addr: u64, target: u64) -> Result<(), ClientError> {
        self.client.write_ptr(self.session, addr, target)
    }

    /// Write a little-endian `i32` (convenience over [`SessionHandle::write`]).
    ///
    /// # Errors
    ///
    /// See [`Client::write`].
    pub fn write_i32(&mut self, addr: u64, v: i32) -> Result<(), ClientError> {
        self.client.write(self.session, addr, &v.to_le_bytes())
    }

    /// Write a little-endian `f32` (convenience over [`SessionHandle::write`]).
    ///
    /// # Errors
    ///
    /// See [`Client::write`].
    pub fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), ClientError> {
        self.client.write(self.session, addr, &v.to_le_bytes())
    }

    /// Read a little-endian `i32` (convenience over [`SessionHandle::read`]).
    ///
    /// # Errors
    ///
    /// See [`Client::read`].
    pub fn read_i32(&mut self, addr: u64) -> Result<i32, ClientError> {
        let bytes = self.client.read(self.session, addr, 4)?;
        let arr: [u8; 4] = bytes
            .try_into()
            .map_err(|_| ClientError::Protocol("short read for i32".to_string()))?;
        Ok(i32::from_le_bytes(arr))
    }

    /// See [`Client::parallel_for`].
    ///
    /// # Errors
    ///
    /// See [`Client::parallel_for`].
    pub fn parallel_for(&mut self, launch: &Launch<'_>) -> Result<OffloadReport, ClientError> {
        self.client.parallel_for(self.session, launch)
    }

    /// See [`Client::parallel_reduce`].
    ///
    /// # Errors
    ///
    /// See [`Client::parallel_reduce`].
    pub fn parallel_reduce(&mut self, launch: &Launch<'_>) -> Result<OffloadReport, ClientError> {
        self.client.parallel_reduce(self.session, launch)
    }

    /// See [`Client::parallel_worklist`].
    ///
    /// # Errors
    ///
    /// See [`Client::parallel_worklist`].
    pub fn parallel_worklist(
        &mut self,
        class: &str,
        body: u64,
        seed: &[i32],
        target: Option<&str>,
    ) -> Result<WorklistOutcome, ClientError> {
        self.client.parallel_worklist(self.session, class, body, seed, target)
    }

    /// See [`Client::parallel_batch`].
    ///
    /// # Errors
    ///
    /// See [`Client::parallel_batch`].
    pub fn parallel_batch(
        &mut self,
        entries: &[BatchEntry<'_>],
        deadline_ms: Option<u64>,
    ) -> Result<BatchOutcome, ClientError> {
        self.client.parallel_batch(self.session, entries, deadline_ms)
    }

    /// Close the session, returning the underlying connection for reuse.
    ///
    /// # Errors
    ///
    /// See [`Client::close_session`].
    pub fn close(mut self) -> Result<Client, ClientError> {
        self.client.close_session(self.session)?;
        Ok(self.client)
    }
}

/// Decode a report object; absent/malformed fields decode to zero rather
/// than failing the call (forward compatibility with added fields).
fn parse_report(v: &Json) -> OffloadReport {
    let f = |name: &str| v.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let u = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
    let b = |name: &str| v.get(name).and_then(Json::as_bool).unwrap_or(false);
    OffloadReport {
        jit_seconds: f("jit_seconds"),
        exec_seconds: f("exec_seconds"),
        joules: f("joules"),
        on_gpu: b("on_gpu"),
        fell_back: b("fell_back"),
        translations: u("translations"),
        transactions: u("transactions"),
        contended: u("contended"),
        busy_fraction: f("busy_fraction"),
        l3_hit_rate: f("l3_hit_rate"),
        insts: u("insts"),
    }
}

fn expect_u64(resp: &Json, field: &str) -> Result<u64, ClientError> {
    resp.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("response missing integer `{field}`")))
}
