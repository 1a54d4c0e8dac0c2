//! End-to-end tests for the reusable HTTP layer and the telemetry
//! server's routing corner cases: query-string and malformed-target
//! normalization, `HEAD` support, empty-connection handling, oversized
//! request lines, and a slow client stalling while a fast scraper
//! completes.

use rescue_obs::http::{write_response, HttpOptions, HttpServer, Request, Response};
use rescue_obs::TelemetryServer;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

fn get(addr: SocketAddr, target: &str) -> String {
    send_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn echo_server() -> HttpServer {
    HttpServer::start(
        "127.0.0.1:0",
        "http-test",
        HttpOptions::default(),
        |req: Request, stream: &mut TcpStream| {
            let head_only = req.is_head();
            let body = format!(
                "method={} path={} query={}\n",
                req.method, req.path, req.query
            );
            write_response(stream, &Response::ok("text/plain", body), head_only)
        },
    )
    .expect("bind")
}

#[test]
fn query_string_is_stripped_before_routing() {
    let server = echo_server();
    let resp = get(server.addr(), "/metrics?x=1&y=2");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("path=/metrics query=x=1&y=2"), "{resp}");
}

#[test]
fn well_formed_target_keeps_http_substring_in_query() {
    let server = echo_server();
    // With a separate version token on the request line, an `HTTP/`
    // substring in the query is data, not a glued version fragment.
    let resp = get(server.addr(), "/metrics?proto=HTTP/2");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("path=/metrics query=proto=HTTP/2"), "{resp}");
    // Without a version token, the glued trailing fragment is stripped
    // from whichever half carries it.
    let resp = send_raw(server.addr(), b"GET /metrics?x=1HTTP/1.1\r\n\r\n");
    assert!(resp.contains("path=/metrics query=x=1\n"), "{resp}");
}

#[test]
fn telemetry_metrics_with_query_string_is_200() {
    let mut server = TelemetryServer::start("127.0.0.1:0", "q-test").expect("bind");
    let resp = get(server.addr(), "/metrics?x=1");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    // A glued HTTP/ fragment on a malformed request line still routes.
    let resp = send_raw(server.addr(), b"GET /metricsHTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    server.shutdown();
}

#[test]
fn head_request_is_answered_headers_only() {
    let mut server = TelemetryServer::start("127.0.0.1:0", "head-test").expect("bind");
    let resp = send_raw(
        server.addr(),
        b"HEAD /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let (head, body) = resp.split_once("\r\n\r\n").expect("terminator");
    assert!(body.is_empty(), "HEAD must not carry a body: {body:?}");
    // Content-Length reflects what GET would have returned ("ok\n").
    assert!(head.contains("Content-Length: 3"), "{head}");
    server.shutdown();
}

#[test]
fn client_closing_without_a_request_gets_no_response() {
    let server = echo_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Close the write half without sending anything; the server must
    // close without writing (no 405/400 bytes).
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    assert!(response.is_empty(), "got {response:?}");
}

#[test]
fn oversized_request_line_is_rejected_with_431() {
    let server = echo_server();
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(20_000));
    let resp = send_raw(server.addr(), long.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let server = echo_server();
    let resp = send_raw(
        server.addr(),
        b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
}

#[test]
fn post_body_is_read_per_content_length() {
    let server = HttpServer::start(
        "127.0.0.1:0",
        "post-test",
        HttpOptions {
            max_body: 4096,
            ..HttpOptions::default()
        },
        |req: Request, stream: &mut TcpStream| {
            let body = String::from_utf8_lossy(&req.body).into_owned();
            write_response(stream, &Response::ok("text/plain", body), false)
        },
    )
    .expect("bind");
    let resp = send_raw(
        server.addr(),
        b"POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world",
    );
    let (_, body) = resp.split_once("\r\n\r\n").expect("terminator");
    assert_eq!(body, "hello world");

    // A body longer than one socket read arrives whole.
    let long = "x".repeat(3000);
    let resp = send_raw(
        server.addr(),
        format!("POST /jobs HTTP/1.1\r\nContent-Length: 3000\r\n\r\n{long}").as_bytes(),
    );
    let (_, body) = resp.split_once("\r\n\r\n").expect("terminator");
    assert_eq!(body, long);

    // A body cut short of its Content-Length is a 400.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello")
        .expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
}

#[test]
fn slow_client_does_not_block_a_fast_scraper() {
    let mut server = TelemetryServer::start("127.0.0.1:0", "slow-test").expect("bind");
    let addr = server.addr();
    // A client that connects and stalls (sends nothing). Under the old
    // inline accept loop this held the server for the full 2s read
    // timeout; with per-connection threads the scrape below must finish
    // long before that.
    let stall = TcpStream::connect(addr).expect("connect slow");
    let start = Instant::now();
    let resp = get(addr, "/healthz");
    let elapsed = start.elapsed();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(
        elapsed < Duration::from_millis(1500),
        "fast scrape took {elapsed:?} while a slow client stalled"
    );
    drop(stall);
    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_503() {
    let server = HttpServer::start(
        "127.0.0.1:0",
        "cap-test",
        HttpOptions {
            max_connections: 1,
            read_timeout: Duration::from_secs(5),
            ..HttpOptions::default()
        },
        |_req: Request, stream: &mut TcpStream| {
            write_response(stream, &Response::ok("text/plain", "done\n".into()), false)
        },
    )
    .expect("bind");
    let addr = server.addr();
    // Occupy the single slot with a stalling connection, wait until the
    // server has admitted it, then expect the next connection to shed.
    let _stall = TcpStream::connect(addr).expect("connect stall");
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.active_connections() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.active_connections(), 1, "stall not admitted");
    let resp = get(addr, "/");
    assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
}

#[test]
fn non_get_method_on_telemetry_is_405() {
    let mut server = TelemetryServer::start("127.0.0.1:0", "method-test").expect("bind");
    let resp = send_raw(
        server.addr(),
        b"DELETE /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    server.shutdown();
}
