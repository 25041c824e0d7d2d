//! Shared fixtures for the serve integration tests.

use concord_serve::json::{parse, Json};
use concord_serve::protocol::{read_frame, read_tail, write_frame};
use concord_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Element-wise kernel shared by two of the concurrent clients.
pub const DOUBLE: &str = r#"
    class Double {
    public:
        int* out; int n;
        void operator()(int i) { out[i] = i * 2 + 1; }
    };
"#;

/// Reduction kernel shared by the other two concurrent clients.
#[allow(dead_code)] // each test target compiles this module independently
pub const SUM: &str = r#"
    class Sum {
    public:
        float* data; float acc;
        void operator()(int i) { acc += data[i]; }
        void join(Sum* other) { acc += other->acc; }
    };
"#;

/// A loopback server with explicit pool sizing.
#[allow(dead_code)] // each test target compiles this module independently
pub fn start_server(workers: usize, queue_depth: usize) -> Server {
    let config = ServeConfig { workers, queue_depth, ..ServeConfig::default() };
    Server::bind(&config).expect("bind loopback server")
}

/// Spin until `done` holds (10 s cap — a wedged server must fail the test,
/// not hang it).
#[allow(dead_code)] // each test target compiles this module independently
pub fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A raw protocol connection for pipelining and malformed-input tests —
/// deliberately below the `Client` abstraction.
pub struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    pub fn connect(addr: std::net::SocketAddr) -> RawConn {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        RawConn { writer, reader }
    }

    /// Send one well-formed frame without awaiting a response.
    pub fn send(&mut self, payload: &str) {
        write_frame(&mut self.writer, payload).expect("write frame");
        self.writer.flush().expect("flush");
    }

    /// Send arbitrary bytes (malformed framing included).
    #[allow(dead_code)] // each test target compiles this module independently
    pub fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write bytes");
        self.writer.flush().expect("flush");
    }

    /// Send one well-formed frame followed by raw tail bytes (the frame is
    /// expected to announce them with `payload_bytes`), as one write.
    #[allow(dead_code)] // each test target compiles this module independently
    pub fn send_with_tail(&mut self, payload: &str, tail: &[u8]) {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).expect("frame");
        wire.extend_from_slice(tail);
        self.send_bytes(&wire);
    }

    /// Receive one response frame as JSON; `None` on clean EOF. A raw tail
    /// the frame announces is read off the stream and dropped.
    pub fn recv(&mut self) -> Option<Json> {
        self.recv_tailed().map(|(resp, _)| resp)
    }

    /// Receive one response frame and the raw tail it announces, if any.
    pub fn recv_tailed(&mut self) -> Option<(Json, Option<Vec<u8>>)> {
        let payload = read_frame(&mut self.reader).expect("read frame")?;
        let resp = parse(&payload).expect("response is valid JSON");
        let tail = read_tail(&mut self.reader, &resp).expect("read tail");
        Some((resp, tail))
    }

    /// Receive until a response with this integer `id` arrives, returning
    /// it. Panics on EOF.
    pub fn recv_id(&mut self, id: u64) -> Json {
        loop {
            let resp = self.recv().expect("connection closed awaiting response");
            if resp.get("id").and_then(Json::as_u64) == Some(id) {
                return resp;
            }
        }
    }

    /// Half-close the write side (simulates a peer vanishing mid-frame).
    #[allow(dead_code)] // each test target compiles this module independently
    pub fn shutdown_write(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }
}

/// The `"type"` of a response object.
pub fn ty(resp: &Json) -> &str {
    resp.get("type").and_then(Json::as_str).unwrap_or("<missing>")
}

/// The `"code"` of an error response object.
#[allow(dead_code)] // each test target compiles this module independently
pub fn code(resp: &Json) -> &str {
    resp.get("code").and_then(Json::as_str).unwrap_or("<missing>")
}
