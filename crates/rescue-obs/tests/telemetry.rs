//! Integration tests for the live-telemetry surface: counter exactness
//! under concurrent writers, the Prometheus exposition golden, the live
//! families' names, and the HTTP server end-to-end (on an ephemeral
//! port).

use rescue_obs::metrics::Registry;
use rescue_obs::{json, prometheus, server, TelemetryServer};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

#[test]
fn totals_stay_exact_under_eight_writer_threads() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 10_000;
    let reg = Registry::new();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let counter = reg.counter(if w % 2 == 0 {
                "live.fsim.gate_evals"
            } else {
                "live.fuzz.cases"
            });
            scope.spawn(move || {
                for _ in 0..PER_WRITER {
                    counter.add(3);
                }
            });
        }
    });
    let expected = (WRITERS as u64 / 2) * PER_WRITER * 3;
    let snap = reg.snapshot();
    let got: Vec<(&str, u64)> = rescue_obs::live::totals(&snap).collect();
    assert_eq!(
        got,
        vec![("fsim.gate_evals", expected), ("fuzz.cases", expected)]
    );
}

#[test]
fn prometheus_exposition_golden() {
    let reg = Registry::new();
    reg.counter("live.atpg.vectors").add(7);
    reg.counter("podem.backtracks").add(42);
    let hist = reg.histogram("fault.weight");
    for v in [0u64, 1, 1000] {
        hist.record(v);
    }
    let got = prometheus::render(2_500_000_000, &reg.snapshot());
    let want = "\
# HELP rescue_uptime_seconds Seconds since telemetry started.
# TYPE rescue_uptime_seconds gauge
rescue_uptime_seconds 2.5
# HELP rescue_live_atpg_vectors_total Capture vectors committed by ATPG.
# TYPE rescue_live_atpg_vectors_total counter
rescue_live_atpg_vectors_total 7
# HELP rescue_podem_backtracks_total Registry counter.
# TYPE rescue_podem_backtracks_total counter
rescue_podem_backtracks_total 42
# HELP rescue_fault_weight Log2-bucket histogram.
# TYPE rescue_fault_weight histogram
rescue_fault_weight_bucket{le=\"1\"} 1
rescue_fault_weight_bucket{le=\"2\"} 2
rescue_fault_weight_bucket{le=\"1024\"} 3
rescue_fault_weight_bucket{le=\"+Inf\"} 3
rescue_fault_weight_sum 1001
rescue_fault_weight_count 3
";
    assert_eq!(got, want);
}

#[test]
fn metrics_list_every_live_family_once_the_counters_exist() {
    rescue_obs::live::counters();
    let body = prometheus::render(0, &rescue_obs::metrics::global().snapshot());
    for name in [
        "atpg_faults_classified",
        "atpg_faults_detected",
        "atpg_vectors",
        "fsim_gate_evals",
        "fsim_faults_simulated",
        "fsim_events_queued",
        "fsim_blocks_loaded",
        "pipesim_cycles",
        "pipesim_committed",
        "fuzz_cases",
        "fuzz_divergences",
        "lint_findings",
    ] {
        let family = format!("rescue_live_{name}_total");
        assert!(
            body.contains(&format!("\n# TYPE {family} counter\n")),
            "{family} missing from {body}"
        );
        assert!(
            !body.contains(&format!("# HELP {family} Registry counter.")),
            "{family} has no help text of its own"
        );
        assert!(
            body.contains(&format!("\n{family} ")),
            "{family} has no sample"
        );
    }
}

/// Minimal Prometheus text-exposition validity check: every line is a
/// comment or `name{labels} value`, every sample's family has HELP and
/// TYPE lines, names are legal, histogram buckets are cumulative.
fn assert_valid_exposition(text: &str) {
    use std::collections::BTreeSet;
    let mut helped: BTreeSet<String> = BTreeSet::new();
    let mut typed: BTreeSet<String> = BTreeSet::new();
    assert!(!text.is_empty());
    assert!(text.ends_with('\n'), "exposition must end with newline");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split(' ').next().unwrap().to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            typed.insert(it.next().unwrap().to_owned());
            let kind = it.next().unwrap();
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            continue;
        }
        // Sample line: name or name{labels}, one space, a number.
        let (name_part, value) = line.rsplit_once(' ').expect(line);
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line}"
        );
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "bad value in {line}"
        );
        // Histogram series attach to the base family's HELP/TYPE.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name);
        assert!(helped.contains(family), "no HELP for {name}");
        assert!(typed.contains(family), "no TYPE for {name}");
    }
}

#[test]
fn golden_exposition_passes_the_validity_checker() {
    let reg = Registry::new();
    reg.counter("a").inc();
    reg.histogram("h").record(5);
    assert_valid_exposition(&prometheus::render(0, &reg.snapshot()));
}

fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (head.to_owned(), body.to_owned())
}

#[test]
fn server_serves_metrics_snapshot_and_healthz() {
    let mut server = TelemetryServer::start("127.0.0.1:0", "telemetry-test").expect("bind");
    let addr = server.addr();
    rescue_obs::metrics::global()
        .counter("server.test.hits")
        .add(5);
    rescue_obs::live::counters().lint_findings.add(2);

    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    assert_valid_exposition(&body);
    assert!(body.contains("rescue_server_test_hits_total 5"), "{body}");
    assert!(body.contains("rescue_live_lint_findings_total"), "{body}");

    let (head, body) = http_get(addr, "/snapshot.json");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let doc = json::parse(&body).expect("snapshot.json parses");
    let obj = match doc {
        json::JsonValue::Obj(o) => o,
        other => panic!("expected object, got {other:?}"),
    };
    assert!(obj.iter().any(|(k, _)| k == "live"));
    assert!(obj.iter().any(|(k, _)| k == "registry"));

    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    server.shutdown();
    // After shutdown the port stops accepting (or resets immediately).
    assert!(
        TcpStream::connect(addr).is_err() || http_get_safe(addr, "/healthz").is_none(),
        "server still serving after shutdown"
    );
}

fn http_get_safe(addr: SocketAddr, target: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    if response.is_empty() {
        None
    } else {
        Some(response)
    }
}

#[test]
fn snapshot_json_is_deterministic_and_sorted() {
    let reg = Registry::new();
    reg.counter("zzz").inc();
    reg.counter("aaa").inc();
    reg.counter("live.fuzz.cases").add(4);
    let a = server::snapshot_json("t", 5, &reg.snapshot());
    let b = server::snapshot_json("t", 5, &reg.snapshot());
    assert_eq!(a, b);
    let aaa = a.find("\"aaa\"").expect("aaa present");
    let zzz = a.find("\"zzz\"").expect("zzz present");
    assert!(aaa < zzz, "registry counters not sorted in {a}");
    assert!(
        a.contains("\"live\":{\"counters\":[{\"name\":\"fuzz.cases\",\"total\":4}]}"),
        "live totals missing from {a}"
    );
}
