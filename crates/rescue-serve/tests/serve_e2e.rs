//! End-to-end tests for the job server: served-vs-CLI byte identity,
//! result-cache speedup, deterministic 429 shedding, malformed-input
//! robustness, and the telemetry surface staying scrapeable.
//!
//! The `serve.*` counters live in the process-global metrics registry,
//! which every server in this (multi-threaded) test binary shares —
//! so counter assertions check monotone deltas, while per-response
//! guarantees use the JSONL event lines, which are per-connection and
//! deterministic.

use rescue_model::{build_pipeline, ModelParams, Variant};
use rescue_netlist::text;
use rescue_serve::{run_job, Design, JobConfig, JobServer, ServeOptions};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// POST a job; returns `(status line, body)`.
fn post_job(addr: SocketAddr, config: &str, netlist: &str) -> (String, String) {
    let body = format!("{config}\n{netlist}");
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, resp_body) = response.split_once("\r\n\r\n").expect("terminator");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, resp_body.to_owned())
}

fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("terminator");
    (
        head.lines().next().unwrap_or_default().to_owned(),
        body.to_owned(),
    )
}

/// The final `{"type":"result"...}` line of a JSONL job response.
fn result_line(body: &str) -> Option<&str> {
    body.lines()
        .rev()
        .find(|l| l.starts_with("{\"type\":\"result\""))
}

/// Whether the response carried `{"type":"event","name":<name>,...,"hit":<hit>}`.
fn saw_cache_event(body: &str, name: &str, hit: bool) -> bool {
    body.lines().any(|l| {
        l.contains(&format!("\"name\":\"{name}\"")) && l.contains(&format!("\"hit\":{hit}"))
    })
}

fn model_text() -> String {
    text::to_text(&build_pipeline(&ModelParams::tiny(), Variant::Rescue).netlist)
}

fn u64_field(json: &str, key: &str) -> u64 {
    use rescue_obs::json::{parse, JsonValue};
    match parse(json).expect("stats json parses").get(key) {
        Some(JsonValue::Int(i)) => *i as u64,
        other => panic!("missing/odd {key}: {other:?}"),
    }
}

#[test]
fn served_atpg_is_byte_identical_to_cli_and_cached_10x_faster() {
    let netlist = model_text();
    let config = r#"{"kind":"atpg","threads":1}"#;

    // The CLI path: same engines, no server.
    let cli_line = {
        let design = Design::build(&netlist).expect("design builds");
        let cfg = JobConfig::parse(config).expect("config parses");
        run_job(&design, &cfg).expect("job runs")
    };

    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    let t_cold = Instant::now();
    let (status, body) = post_job(addr, config, &netlist);
    let cold = t_cold.elapsed();
    assert!(status.contains("200"), "{status}");
    assert!(
        saw_cache_event(&body, "serve.result.cache", false),
        "{body}"
    );
    let served = result_line(&body).expect("result line").to_owned();
    assert_eq!(
        served, cli_line,
        "served result must be byte-identical to the CLI run"
    );

    // Repeat the identical job three times: all hits, byte-identical,
    // and the fastest warm round-trip is ≥ 10× faster than cold.
    let mut best_warm = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let (status, body) = post_job(addr, config, &netlist);
        best_warm = best_warm.min(t.elapsed());
        assert!(status.contains("200"), "{status}");
        assert!(saw_cache_event(&body, "serve.result.cache", true), "{body}");
        assert_eq!(result_line(&body), Some(served.as_str()));
    }
    assert!(
        best_warm * 10 <= cold,
        "cache hit not ≥10× faster: cold {cold:?}, best warm {best_warm:?}"
    );

    // Same netlist, different semantic config: a different cache entry.
    let memo_hits = rescue_obs::metrics::global().counter("serve.podem_memo.hits");
    let hits_before = memo_hits.get();
    let reseeded = r#"{"kind":"atpg","threads":1,"fill_seed":9}"#;
    let (_, body) = post_job(addr, reseeded, &netlist);
    assert!(
        saw_cache_event(&body, "serve.result.cache", false),
        "{body}"
    );
    // But the design cache hits — the netlist text is unchanged — so
    // the job reuses the first job's PODEM outcomes, and still serves
    // exactly the bytes a fresh CLI run computes.
    assert!(saw_cache_event(&body, "serve.design.cache", true), "{body}");
    assert!(memo_hits.get() > hits_before, "no PODEM memo hit");
    let cli_reseeded = {
        let design = Design::build(&netlist).expect("design builds");
        run_job(&design, &JobConfig::parse(reseeded).expect("config parses")).expect("job runs")
    };
    assert_eq!(result_line(&body), Some(cli_reseeded.as_str()));
    assert_ne!(cli_reseeded, cli_line, "the fill seed moves the vectors");

    server.shutdown();
}

#[test]
fn every_job_kind_serves_a_deterministic_result() {
    let netlist = model_text();
    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();
    for config in [
        r#"{"kind":"netlist"}"#,
        r#"{"kind":"lint"}"#,
        r#"{"kind":"fsim","patterns":2,"threads":1}"#,
    ] {
        let (status, body) = post_job(addr, config, &netlist);
        assert!(status.contains("200"), "{config}: {status}");
        let first = result_line(&body).expect("result line").to_owned();
        let (_, body2) = post_job(addr, config, &netlist);
        assert_eq!(
            result_line(&body2),
            Some(first.as_str()),
            "{config} not deterministic"
        );
        assert!(saw_cache_event(&body2, "serve.result.cache", true));
    }
    server.shutdown();
}

/// Fsim answers on [`model_text`] recorded before the job moved to
/// narrow-then-wide groups with streamed patterns:
/// `(patterns, seed, detected, detect_digest)`.
const FSIM_GOLDEN: [(usize, u64, u64, &str); 16] = [
    (1, 3, 8818, "88f5a1155dec72b1"),
    (1, 7, 8771, "d6ef757d1388e4ef"),
    (2, 3, 9393, "326f117c91c1aef0"),
    (2, 7, 9449, "cc7e8e4260f923e9"),
    (7, 3, 9948, "049368c0ba1d222b"),
    (7, 7, 9951, "a7aa07ad49a03046"),
    (8, 3, 9957, "b3af1d05cc0075f7"),
    (8, 7, 9968, "0df15be9fabe5b01"),
    (9, 3, 9974, "d6357281d2e18cb0"),
    (9, 7, 9978, "f6f7e0c94d90aa1f"),
    (64, 3, 10043, "4111635af75667e2"),
    (64, 7, 10049, "559fe218aa457203"),
    (65, 3, 10043, "4111635af75667e2"),
    (65, 7, 10049, "559fe218aa457203"),
    (513, 3, 10049, "adf1450ad146b276"),
    (513, 7, 10049, "559fe218aa457203"),
];

/// The full result line the golden row stands for.
fn golden_line(
    design: &Design,
    (patterns, _, detected, digest): (usize, u64, u64, &str),
) -> String {
    let faults = design.faults.len();
    format!(
        r#"{{"type":"result","job":"fsim","design":"{:016x}","blocks":{patterns},"faults":{faults},"detected":{detected},"undetected":{},"detect_digest":"{digest}"}}"#,
        design.content_hash,
        faults as u64 - detected
    )
}

#[test]
fn fsim_result_lines_match_the_pinned_answers() {
    let design = Design::build(&model_text()).expect("design builds");
    assert_eq!(design.faults.len(), 10481);
    assert_eq!(format!("{:016x}", design.content_hash), "5e825b990934f2a2");
    for row in FSIM_GOLDEN {
        let (patterns, seed, ..) = row;
        let cfg = JobConfig::parse(&format!(
            r#"{{"kind":"fsim","patterns":{patterns},"seed":{seed}}}"#
        ))
        .expect("config parses");
        assert_eq!(
            run_job(&design, &cfg).expect("job runs"),
            golden_line(&design, row),
            "patterns={patterns} seed={seed}"
        );
    }
}

#[test]
fn fsim_result_is_lane_width_invariant() {
    // `lane_words` and `threads` are excluded from the config hash (pure
    // datapath knobs), so jobs differing only in them share a
    // result-cache entry — which is only sound if the canonical result
    // line, including the detect digest, is identical across both.
    let design = Design::build(&model_text()).expect("design builds");
    for row in FSIM_GOLDEN.iter().filter(|r| r.1 == 7) {
        let (patterns, seed, ..) = *row;
        let want = golden_line(&design, *row);
        for lane_words in [1usize, 4, 8] {
            for threads in [1usize, 2] {
                let cfg = JobConfig::parse(&format!(
                    r#"{{"kind":"fsim","patterns":{patterns},"seed":{seed},"threads":{threads},"lane_words":{lane_words}}}"#
                ))
                .expect("config parses");
                assert_eq!(
                    run_job(&design, &cfg).expect("job runs"),
                    want,
                    "patterns={patterns} lane_words={lane_words} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn malformed_jobs_get_4xx_and_the_server_survives() {
    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    // Bad config line.
    let (status, body) = post_job(addr, "this is not json", "input a\n");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("\"type\":\"error\""), "{body}");

    // A deeply nested config: refused with the parser's depth limit on
    // the connection thread, which an unbounded recursion would
    // overflow; the next request below is still served.
    let (status, body) = post_job(addr, &"[".repeat(100_000), "input a\n");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("nesting deeper than 128"), "{body}");

    // Over an admission cap: refused before any work, naming the field.
    let (status, body) = post_job(
        addr,
        r#"{"kind":"atpg","max_backtracks":100001}"#,
        "input a\n",
    );
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("max_backtracks"), "{body}");

    // Good config, empty netlist.
    let (status, _) = post_job(addr, r#"{"kind":"netlist"}"#, "");
    assert!(status.contains("400"), "{status}");

    // Over the design gate cap: refused before any work, naming the
    // count.
    let huge = format!("component c\ninput a\n{}", "gate not 0\n".repeat(250_000));
    let (status, body) = post_job(addr, r#"{"kind":"netlist"}"#, &huge);
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("250000 gates"), "{body}");

    // Good config, garbage netlist: admitted, fails inside the stream.
    let (status, body) = post_job(addr, r#"{"kind":"netlist"}"#, "gate and 0 99\n");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"type\":\"error\""), "{body}");

    // ATPG on a stateless design is a job error, not a crash.
    let (status, body) = post_job(
        addr,
        r#"{"kind":"atpg"}"#,
        "component c\ninput a\ngate not 0\noutput o 1\n",
    );
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("flip-flop"), "{body}");

    // The server is still alive and scrapeable.
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("rescue_serve_jobs_failed_total"), "{body}");
    let (status, _) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    server.shutdown();
}

#[test]
fn overfull_queue_sheds_with_429_while_metrics_stay_scrapeable() {
    let netlist = model_text();
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 0,
        ..ServeOptions::default()
    };
    let mut server = JobServer::start("127.0.0.1:0", opts).expect("server starts");
    let addr = server.addr();
    let config = r#"{"kind":"atpg","threads":1}"#;

    // Vary fill_seed per attempt so the occupying job never comes from
    // the result cache (a cached job would finish instantly).
    let mut shed_seen = false;
    for attempt in 0..5u64 {
        let occupant_cfg = format!(r#"{{"kind":"atpg","threads":1,"fill_seed":{attempt}}}"#);
        let netlist_clone = netlist.clone();
        let occupant = std::thread::spawn(move || post_job(addr, &occupant_cfg, &netlist_clone));

        // Wait until the worker is actually busy.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let (_, stats) = http_get(addr, "/stats.json");
            if u64_field(&stats, "jobs_running") >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        // While the job runs, /metrics answers.
        let (status, _) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");

        let (status, body) = post_job(addr, config, &netlist);
        let (occ_status, _) = occupant.join().expect("occupant thread");
        assert!(occ_status.contains("200"), "{occ_status}");
        if status.contains("429") {
            assert!(body.contains("queue is full"), "{body}");
            shed_seen = true;
            break;
        }
        // The occupant finished before our probe landed; retry.
        assert!(status.contains("200"), "unexpected status {status}");
    }
    assert!(shed_seen, "never observed a 429 shed in 5 attempts");

    // Shedding is counted and the server still works afterwards.
    let (_, stats) = http_get(addr, "/stats.json");
    assert!(u64_field(&stats, "jobs_shed") >= 1, "{stats}");
    let (status, body) = post_job(addr, r#"{"kind":"netlist"}"#, &netlist);
    assert!(status.contains("200"), "{status}");
    assert!(result_line(&body).is_some(), "{body}");
    server.shutdown();
}

#[test]
fn serve_counters_are_monotone_across_jobs() {
    let netlist = model_text();
    let mut server =
        JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    let (_, before) = http_get(addr, "/stats.json");
    let accepted0 = u64_field(&before, "jobs_accepted");
    let completed0 = u64_field(&before, "jobs_completed");

    for _ in 0..3 {
        let (status, _) = post_job(addr, r#"{"kind":"netlist"}"#, &netlist);
        assert!(status.contains("200"), "{status}");
    }

    let (_, after) = http_get(addr, "/stats.json");
    // Global counters are shared process-wide, so other tests may also
    // bump them: assert our floor, not an exact count.
    assert!(
        u64_field(&after, "jobs_accepted") >= accepted0 + 3,
        "{after}"
    );
    assert!(
        u64_field(&after, "jobs_completed") >= completed0 + 3,
        "{after}"
    );
    server.shutdown();
}
