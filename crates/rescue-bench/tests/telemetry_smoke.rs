//! End-to-end live-telemetry smoke test: start the std-only HTTP
//! server, drive real ATPG + fault-simulation work in the background,
//! and scrape `/metrics` twice. The second scrape must parse as valid
//! Prometheus text exposition and show strictly increasing fault-sim
//! gate-eval and ATPG fault-classification counters — the same check
//! the CI `telemetry-smoke` job performs against the `all` binary.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rescue_core::atpg::{Atpg, AtpgConfig};
use rescue_core::model::{build_pipeline, ModelParams, Variant};
use rescue_core::netlist::scan::insert_scan;

/// Minimal HTTP/1.1 GET against the telemetry server; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "status line: {head}");
    body.to_string()
}

/// Pull the value of a `name value` exposition line (counters only).
fn sample_value(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse::<f64>().ok()
    })
}

/// Every non-comment line must be `name[{labels}] value`; every metric
/// family must be preceded by HELP and TYPE comments.
fn assert_valid_exposition(body: &str) {
    let mut seen_type: Vec<String> = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let fam = rest.split_whitespace().next().unwrap().to_string();
            seen_type.push(fam);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample has value");
        let family = name_part.split('{').next().unwrap();
        assert!(
            family
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {family:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "bad sample value {value:?} on {line:?}"
        );
        assert!(
            seen_type.iter().any(|t| family.starts_with(t.as_str())),
            "sample {family} has no preceding TYPE"
        );
    }
}

#[test]
fn two_scrapes_during_live_run_are_valid_and_monotone() {
    let mut server =
        rescue_obs::TelemetryServer::start("127.0.0.1:0", "telemetry-smoke").expect("bind");
    let addr = server.addr();

    assert_eq!(http_get(addr, "/healthz"), "ok\n");

    // Background worker: loop small full-ATPG runs (PODEM + sharded
    // fault simulation) until told to stop, so scrapes race real
    // counter traffic from multiple threads.
    static STOP: AtomicBool = AtomicBool::new(false);
    let worker = std::thread::spawn(|| {
        let params = ModelParams::tiny();
        let model = build_pipeline(&params, Variant::Rescue);
        let scanned = insert_scan(&model.netlist).expect("model has state");
        let mut rounds = 0u32;
        while !STOP.load(Ordering::Relaxed) && rounds < 10_000 {
            let atpg = Atpg::new(&scanned, AtpgConfig::default()).expect("atpg setup");
            let _ = atpg.run().expect("atpg run");
            rounds += 1;
        }
    });

    // First scrape after some work has landed.
    let mut first = http_get(addr, "/metrics");
    for _ in 0..100 {
        if sample_value(&first, "rescue_live_fsim_gate_evals_total").unwrap_or(0.0) > 0.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
        first = http_get(addr, "/metrics");
    }
    // Second scrape: poll until the work counters have moved past the
    // first scrape (bounded, so a wedged worker fails loudly). The fault
    // simulator runs only when a batch of 64 vectors flushes, and in an
    // unoptimized test build the second flush lands about 6 s after the
    // first, so the bound is 30 s.
    let first_evals = sample_value(&first, "rescue_live_fsim_gate_evals_total").unwrap_or(0.0);
    let mut second = http_get(addr, "/metrics");
    for _ in 0..1000 {
        if sample_value(&second, "rescue_live_fsim_gate_evals_total").unwrap_or(0.0) > first_evals {
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
        second = http_get(addr, "/metrics");
    }
    STOP.store(true, Ordering::Relaxed);
    worker.join().expect("worker thread");

    assert_valid_exposition(&first);
    assert_valid_exposition(&second);

    for family in [
        "rescue_live_fsim_gate_evals_total",
        "rescue_live_atpg_faults_classified_total",
    ] {
        let a = sample_value(&first, family).unwrap_or_else(|| panic!("{family} in scrape 1"));
        let b = sample_value(&second, family).unwrap_or_else(|| panic!("{family} in scrape 2"));
        assert!(a > 0.0, "{family} should be nonzero in first scrape");
        assert!(
            b > a,
            "{family} must strictly increase between scrapes ({a} -> {b})"
        );
    }

    // The JSON snapshot carries the live counters and the registry.
    let snap = http_get(addr, "/snapshot.json");
    let doc = rescue_obs::json::parse(&snap).expect("snapshot.json parses");
    assert!(doc.get("live").is_some());
    assert!(doc.get("registry").is_some());

    server.shutdown();
}
