//! `serve-load`: load generator for the `rescue-serve` job daemon.
//!
//! Starts an in-process [`rescue_serve::JobServer`] on an ephemeral
//! port and replays a mixed job trace (ATPG, lint, fault-sim, netlist
//! stats on the tiny pipeline model) in three phases:
//!
//! 1. **populate** — each distinct job once, serially: all cold, so
//!    the cold latencies and the result-cache miss count are exact;
//! 2. **replay** — `--clients` threads × `--replays` passes over the
//!    same trace: every job is a result-cache hit by construction
//!    (the populate phase completed first), so the hit count is exact
//!    and the warm latencies measure the serving overhead alone;
//! 3. **shed** — a second server with one worker and a zero-depth
//!    queue, its worker pinned by a cold job; probe jobs must shed
//!    with `429` while `/metrics` keeps answering.
//!
//! Deterministic counts land in the `serve.cache` report section
//! (gated exactly by `bench-diff`); throughput and latency
//! percentiles land in `serve.load` (informational, like every other
//! wall-clock metric). `--emit-netlist PATH` writes the model netlist
//! text and exits — the CI smoke job uses it to get a netlist without
//! a Rust toolchain step of its own.

use rescue_core::model::{build_pipeline, ModelParams, Variant};
use rescue_core::netlist::text;
use rescue_serve::{JobServer, ServeOptions};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// POST one job; returns `(status line, body)`.
fn post_job(addr: SocketAddr, config: &str, netlist: &str) -> (String, String) {
    let body = format!("{config}\n{netlist}");
    let mut stream = TcpStream::connect(addr).expect("connect to job server");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write job request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read job response");
    let (head, resp_body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    (
        head.lines().next().unwrap_or_default().to_owned(),
        resp_body.to_owned(),
    )
}

fn http_get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

fn saw_hit(body: &str, hit: bool) -> bool {
    body.lines().any(|l| {
        l.contains("\"name\":\"serve.result.cache\"") && l.contains(&format!("\"hit\":{hit}"))
    })
}

fn has_result(body: &str) -> bool {
    body.lines().any(|l| l.starts_with("{\"type\":\"result\""))
}

/// Percentile (nearest-rank) of sorted nanosecond latencies.
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn main() {
    let obs = rescue_bench::obs_init(&[
        "--emit-netlist",
        "--quick",
        "--clients",
        "--replays",
        "--fsim-seeds",
    ]);

    let netlist = text::to_text(&build_pipeline(&ModelParams::tiny(), Variant::Rescue).netlist);
    if let Some(path) = rescue_bench::arg_str("--emit-netlist") {
        std::fs::write(&path, &netlist).expect("write netlist text");
        eprintln!("wrote model netlist {path}");
        return;
    }

    let quick = rescue_bench::quick_mode();
    let clients = rescue_bench::arg_usize("--clients", if quick { 2 } else { 4 });
    let replays = rescue_bench::arg_usize("--replays", if quick { 2 } else { 4 });
    let fsim_seeds = rescue_bench::arg_usize("--fsim-seeds", if quick { 2 } else { 4 });

    // The mixed trace: one heavy ATPG job, the cheap kinds, and a fan
    // of distinct fault-sim seeds (distinct result-cache entries over
    // one cached design).
    let mut trace: Vec<String> = vec![
        r#"{"kind":"atpg"}"#.to_owned(),
        r#"{"kind":"lint"}"#.to_owned(),
        r#"{"kind":"netlist"}"#.to_owned(),
    ];
    for seed in 0..fsim_seeds {
        trace.push(format!(r#"{{"kind":"fsim","patterns":2,"seed":{seed}}}"#));
    }

    let mut report = rescue_bench::run_repeated("serve_load", &obs, |report, _first| {
        // Fresh server (fresh caches) per measured run.
        let mut server =
            JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("job server starts");
        let addr = server.addr();

        // Phase 1: populate, serially. Everything is cold. The ATPG
        // job's own latency is kept separate: the trace is mostly cheap
        // jobs, so trace-wide percentiles say nothing about the cache —
        // the cold-vs-warm comparison that matters is on the job the
        // cache actually amortises.
        let mut cold_ns: Vec<u64> = Vec::new();
        let mut atpg_cold_ns = 0u64;
        let mut misses = 0u64;
        for config in &trace {
            let t = Instant::now();
            let (status, body) = post_job(addr, config, &netlist);
            let elapsed = t.elapsed().as_nanos() as u64;
            cold_ns.push(elapsed);
            if config.contains("\"kind\":\"atpg\"") {
                atpg_cold_ns = elapsed;
            }
            assert!(status.contains("200"), "populate {config}: {status}");
            assert!(has_result(&body), "populate {config}: no result in {body}");
            assert!(saw_hit(&body, false), "populate {config} unexpectedly hit");
            misses += 1;
        }

        // Phase 2: concurrent replay. Everything hits.
        let t_replay = Instant::now();
        let per_client: Vec<(Vec<u64>, Vec<u64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let trace = &trace;
                    let netlist = &netlist;
                    scope.spawn(move || {
                        let mut lat = Vec::new();
                        let mut atpg_lat = Vec::new();
                        let mut hits = 0u64;
                        for _ in 0..replays {
                            for config in trace {
                                let t = Instant::now();
                                let (status, body) = post_job(addr, config, netlist);
                                let elapsed = t.elapsed().as_nanos() as u64;
                                lat.push(elapsed);
                                if config.contains("\"kind\":\"atpg\"") {
                                    atpg_lat.push(elapsed);
                                }
                                assert!(status.contains("200"), "replay {config}: {status}");
                                assert!(saw_hit(&body, true), "replay {config} missed: {body}");
                                hits += 1;
                            }
                        }
                        (lat, atpg_lat, hits)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let replay_wall = t_replay.elapsed();
        let mut warm_ns: Vec<u64> = per_client
            .iter()
            .flat_map(|(l, _, _)| l.iter().copied())
            .collect();
        let mut atpg_warm_ns: Vec<u64> = per_client
            .iter()
            .flat_map(|(_, a, _)| a.iter().copied())
            .collect();
        let hits: u64 = per_client.iter().map(|(_, _, h)| h).sum();
        server.shutdown();

        // Phase 3: shed. One worker, no queue, pinned by a cold job.
        let mut shed_server = JobServer::start(
            "127.0.0.1:0",
            ServeOptions {
                workers: 1,
                queue_depth: 0,
                ..ServeOptions::default()
            },
        )
        .expect("shed server starts");
        let shed_addr = shed_server.addr();
        let occupant = {
            let netlist = netlist.clone();
            std::thread::spawn(move || {
                post_job(shed_addr, r#"{"kind":"atpg","fill_seed":99}"#, &netlist)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if http_get(shed_addr, "/stats.json").contains("\"jobs_running\":1") {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut shed_429 = 0u64;
        let mut metrics_ok = true;
        for _ in 0..8 {
            let (status, _) = post_job(shed_addr, r#"{"kind":"netlist"}"#, &netlist);
            if status.contains("429") {
                shed_429 += 1;
            }
            metrics_ok &= http_get(shed_addr, "/metrics").contains("200 OK");
        }
        let (occ_status, _) = occupant.join().expect("occupant");
        assert!(occ_status.contains("200"), "occupant failed: {occ_status}");
        shed_server.shutdown();

        cold_ns.sort_unstable();
        warm_ns.sort_unstable();
        atpg_warm_ns.sort_unstable();
        let total_jobs = misses + hits;
        report
            .section("serve.load")
            .u64("jobs", total_jobs)
            .u64("clients", clients as u64)
            .u64("replays", replays as u64)
            .f64(
                "replay_jobs_per_sec",
                hits as f64 / replay_wall.as_secs_f64().max(1e-9),
            )
            .u64("cold_p50_ns", pct(&cold_ns, 50.0))
            .u64("cold_p90_ns", pct(&cold_ns, 90.0))
            .u64("warm_p50_ns", pct(&warm_ns, 50.0))
            .u64("warm_p99_ns", pct(&warm_ns, 99.0))
            .u64("atpg_cold_ns", atpg_cold_ns)
            .u64("atpg_warm_p50_ns", pct(&atpg_warm_ns, 50.0))
            .u64("shed_429", shed_429)
            .u64("shed_probes", 8)
            .u64("metrics_scrapeable", u64::from(metrics_ok));
        report
            .section("serve.cache")
            .u64("hits", hits)
            .u64("misses", misses)
            .f64("hit_rate", hits as f64 / total_jobs as f64)
            // The cache speedup is measured on the ATPG job — the one
            // the result cache actually amortises; trace-wide p50s are
            // dominated by jobs that were already cheap. The "…speedup"
            // suffix keeps this wall-clock row informational while the
            // counts above stay exactly gated.
            .f64(
                "cold_over_warm_speedup",
                atpg_cold_ns as f64 / pct(&atpg_warm_ns, 50.0).max(1) as f64,
            );
    });

    eprintln!("{}", report.render_text());
    rescue_bench::obs_finish(&obs, &mut report);
    rescue_bench::write_metrics_json(&obs, &report, None);
}
