//! Reusable hand-rolled HTTP/1.1 machinery over [`std::net`] (zero
//! external dependencies, matching the workspace rule).
//!
//! This module generalizes what used to be embedded in
//! [`crate::server`]: request parsing with hard limits, response
//! writing, and a threaded listener. Two servers build on it — the
//! [`crate::server::TelemetryServer`] scrape endpoint and the
//! `rescue-serve` job daemon — so the request/response corner cases are
//! fixed once, here:
//!
//! * the request **target is split into path and query string** before
//!   routing (`GET /metrics?x=1` routes as `/metrics`); only when the
//!   request line is malformed (no separate version token) is a glued
//!   trailing `HTTP/…` fragment stripped, so well-formed targets keep
//!   `HTTP/` substrings (e.g. `?proto=HTTP/2`) intact;
//! * a client that **connects and closes** (or sends nothing) gets no
//!   response bytes at all — not a 405;
//! * **`HEAD` is answered headers-only** with the real
//!   `Content-Length`, so Prometheus-compatible probes work;
//! * each accepted connection is served on a **short-lived thread**, so
//!   one stalled client cannot head-of-line-block other scrapers; a cap
//!   bounds concurrent connections. Excess connections get `503` from a
//!   separately capped pool of shed threads ([`SHED_CAP`]); past that a
//!   connect flood has its sockets dropped outright, so total threads
//!   and attacker-controlled reads stay bounded.
//!
//! The listener owns an accept thread with a non-blocking poll loop and
//! shuts down gracefully on [`HttpServer::shutdown`] (or drop), waiting
//! briefly for in-flight connections to finish.

use std::io::{Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Accept-loop poll ceiling when idle. Polling starts at
/// [`POLL_FLOOR`] right after a connection and backs off exponentially
/// to this, so an active server adds well under a millisecond of
/// accept latency while an idle one sleeps almost all the time.
const POLL: Duration = Duration::from_millis(15);

/// Accept-loop poll interval immediately after activity.
const POLL_FLOOR: Duration = Duration::from_micros(500);

/// How long `shutdown` waits for in-flight connection threads.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Ceiling on concurrent shed (`503`) threads. Connections over
/// `max_connections` are rejected on a short-lived thread (the write
/// plus a bounded drain can take ~200ms, too long for the accept
/// loop); this cap keeps a connect flood from turning those threads
/// into an unbounded resource — past it, excess sockets are dropped
/// without a response.
const SHED_CAP: usize = 4;

/// Tuning knobs for a listener.
#[derive(Clone, Debug)]
pub struct HttpOptions {
    /// Maximum accepted request head size in bytes.
    pub max_head: usize,
    /// Maximum accepted request body size in bytes (`Content-Length`
    /// above this is rejected with `413` without reading the body).
    pub max_body: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Maximum connections served concurrently; excess get `503`.
    pub max_connections: usize,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            max_head: 8 * 1024,
            max_body: 0,
            read_timeout: Duration::from_secs(2),
            max_connections: 32,
        }
    }
}

/// One parsed HTTP request.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Request method, as sent (`GET`, `HEAD`, `POST`, …).
    pub method: String,
    /// Path with the query string (and any glued `HTTP/…` fragment)
    /// already stripped — route on this.
    pub path: String,
    /// Query string after `?`, without the `?` (empty when absent).
    pub query: String,
    /// Headers as `(lowercased-name, value)` pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (read per `Content-Length`; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the response should be headers-only.
    pub fn is_head(&self) -> bool {
        self.method == "HEAD"
    }
}

/// Outcome of reading one request off a connection.
#[derive(Debug)]
pub enum RequestOutcome {
    /// A parseable request.
    Ok(Request),
    /// The client closed (or sent nothing) before a request line
    /// arrived: write nothing back.
    Empty,
    /// Malformed or over-limit input: answer with this canned response
    /// and close.
    Reject(Response),
}

/// A response ready to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status line text after `HTTP/1.1 `, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` with the given type and body.
    pub fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: "200 OK",
            content_type,
            body,
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: &'static str, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: body.to_owned(),
        }
    }

    /// The stock `404 Not Found`.
    pub fn not_found() -> Response {
        Response::text("404 Not Found", "not found\n")
    }
}

/// Read and parse one request. `Err` is an I/O failure (including read
/// timeout) where nothing sensible can be written back.
pub fn read_request(stream: &mut TcpStream, opts: &HttpOptions) -> std::io::Result<RequestOutcome> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(opts.read_timeout))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&head) {
            break pos;
        }
        if head.len() >= opts.max_head {
            return Ok(RequestOutcome::Reject(Response::text(
                "431 Request Header Fields Too Large",
                "too large\n",
            )));
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Connection closed before the head completed. An empty
                // (or whitespace-only) prefix means the client never
                // sent a request — answer nothing. A torn partial head
                // is malformed.
                if head.iter().all(|b| b.is_ascii_whitespace()) {
                    return Ok(RequestOutcome::Empty);
                }
                return Ok(RequestOutcome::Reject(Response::text(
                    "400 Bad Request",
                    "truncated request\n",
                )));
            }
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    };
    let body_start = head.split_off(header_end);

    let head_text = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default().trim();
    if request_line.is_empty() {
        return Ok(RequestOutcome::Empty);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let target = parts.next().unwrap_or_default();
    let has_version = parts.next().is_some();

    // A malformed request line can glue the version onto the target
    // (`/metricsHTTP/1.1`). Only when the line has no separate version
    // token, strip the trailing `HTTP/` fragment from the target's last
    // half; a well-formed line keeps `HTTP/` substrings in the path or
    // query intact (e.g. `?proto=HTTP/2`).
    let strip_version = |s: &str| -> String {
        if has_version {
            return s.to_owned();
        }
        match s.rfind("HTTP/") {
            Some(i) => s[..i].to_owned(),
            None => s.to_owned(),
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), strip_version(q)),
        None => (strip_version(target), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }

    let mut req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };

    let content_length = match req.header("content-length") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Ok(RequestOutcome::Reject(Response::text(
                    "400 Bad Request",
                    "bad content-length\n",
                )))
            }
        },
        None => 0,
    };
    if content_length > opts.max_body {
        return Ok(RequestOutcome::Reject(Response::text(
            "413 Content Too Large",
            "body too large\n",
        )));
    }
    // Read straight into a buffer of the announced size (bounded by
    // `max_body` above), not through a chain of doubling reallocations.
    let mut body = body_start;
    let mut filled = body.len();
    body.resize(filled.max(content_length), 0);
    while filled < content_length {
        match stream.read(&mut body[filled..content_length]) {
            Ok(0) => {
                return Ok(RequestOutcome::Reject(Response::text(
                    "400 Bad Request",
                    "truncated body\n",
                )))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    body.truncate(content_length);
    req.body = body;
    Ok(RequestOutcome::Ok(req))
}

/// Offset just past the `\r\n\r\n` head terminator, if present.
fn find_header_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// Send a reject/shed response and close cleanly even though the
/// request was not fully read: write the response, FIN our write half
/// so the client sees EOF immediately, then drain (bounded) whatever
/// the client already sent. Closing with unread bytes in the kernel
/// buffer would send RST and can destroy the response before the
/// client reads it.
fn reject_and_close(stream: &mut TcpStream, resp: &Response) {
    let _ = write_response(stream, resp, false);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf = [0u8; 4096];
    let mut total = 0usize;
    while total < 256 * 1024 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
}

/// Write `resp` to `w`. When `head_only` (a `HEAD` request), the
/// headers — including the real `Content-Length` — are sent without the
/// body.
pub fn write_response(w: &mut dyn Write, resp: &Response, head_only: bool) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.content_type,
        resp.body.len()
    );
    w.write_all(head.as_bytes())?;
    if !head_only {
        w.write_all(resp.body.as_bytes())?;
    }
    w.flush()
}

/// Start a streaming response: status line and headers **without**
/// `Content-Length` — the body is whatever is written afterwards, and
/// the message is terminated by closing the connection
/// (`Connection: close` framing). Used for JSONL progress streams.
pub fn write_stream_head(
    w: &mut dyn Write,
    status: &str,
    content_type: &str,
) -> std::io::Result<()> {
    let head =
        format!("HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n");
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// A connection handler: receives the parsed request and the stream,
/// and is responsible for writing the full response (usually via
/// [`write_response`], or [`write_stream_head`] plus incremental
/// writes).
pub trait Handler: Send + Sync + 'static {
    /// Serve one request. I/O errors are logged nowhere and close the
    /// connection — the peer is gone either way.
    fn handle(&self, req: Request, stream: &mut TcpStream) -> std::io::Result<()>;
}

impl<F> Handler for F
where
    F: Fn(Request, &mut TcpStream) -> std::io::Result<()> + Send + Sync + 'static,
{
    fn handle(&self, req: Request, stream: &mut TcpStream) -> std::io::Result<()> {
        self(req, stream)
    }
}

/// A running threaded listener. See the module docs.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (port `0` picks an ephemeral port) and serve
    /// `handler` on a new accept thread named `name`.
    pub fn start(
        addr: &str,
        name: &str,
        opts: HttpOptions,
        handler: impl Handler,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let accept_stop = Arc::clone(&stop);
        let accept_active = Arc::clone(&active);
        let handler: Arc<dyn Handler> = Arc::new(handler);
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || accept_loop(listener, &accept_stop, &accept_active, &opts, &handler))?;
        Ok(HttpServer {
            addr,
            stop,
            active,
            handle: Some(handle),
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Stop accepting, wait briefly for in-flight connections, and join
    /// the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements a thread-count (active connections, or shed threads)
/// when the owning thread exits, however it exits — including the
/// spawn itself failing, which drops the not-yet-run closure.
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: &AtomicBool,
    active: &Arc<AtomicUsize>,
    opts: &HttpOptions,
    handler: &Arc<dyn Handler>,
) {
    let shedding = Arc::new(AtomicUsize::new(0));
    let mut backoff = POLL_FLOOR;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                backoff = POLL_FLOOR;
                // Admission: over the cap, shed with 503. The write and
                // the bounded drain happen off the accept thread so a
                // connect flood cannot stall admission of new sockets —
                // and the shed threads are themselves capped, so the
                // flood cannot grow threads (or attacker-fed drains)
                // without bound: past SHED_CAP the socket is dropped
                // with no response at all.
                if active.load(Ordering::Acquire) >= opts.max_connections {
                    if shedding.load(Ordering::Acquire) >= SHED_CAP {
                        drop(stream);
                        continue;
                    }
                    shedding.fetch_add(1, Ordering::AcqRel);
                    let guard = ActiveGuard(Arc::clone(&shedding));
                    let _ = std::thread::Builder::new()
                        .name("http-shed".to_owned())
                        .spawn(move || {
                            let _guard = guard;
                            reject_and_close(
                                &mut stream,
                                &Response::text(
                                    "503 Service Unavailable",
                                    "too many connections\n",
                                ),
                            );
                        });
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                let guard = ActiveGuard(Arc::clone(active));
                let opts = opts.clone();
                let handler = Arc::clone(handler);
                // Short-lived thread per connection: a stalled client
                // burns its own thread for at most the read timeout,
                // never the accept loop. Spawn failure (thread
                // exhaustion) just drops the connection.
                let _ = std::thread::Builder::new()
                    .name("http-conn".to_owned())
                    .spawn(move || {
                        let _guard = guard;
                        serve_connection(&mut stream, &opts, &handler);
                    });
            }
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(POLL);
            }
        }
    }
}

/// Serve one connection: read, dispatch, respond to rejects.
fn serve_connection(stream: &mut TcpStream, opts: &HttpOptions, handler: &Arc<dyn Handler>) {
    match read_request(stream, opts) {
        Ok(RequestOutcome::Ok(req)) => {
            let _ = handler.handle(req, stream);
        }
        Ok(RequestOutcome::Reject(resp)) => {
            reject_and_close(stream, &resp);
        }
        Ok(RequestOutcome::Empty) | Err(_) => {}
    }
}
