//! `serve_mix`: a closed loop of two clients, each waiting for its
//! reply, sending a seeded job stream to an in-process `JobServer` with
//! default `ServeOptions`.
//!
//! Two designs are POSTed: the quick Rescue netlist and the paper-size
//! one. Cold jobs (result-cache misses) are `netlist` and `lint` on both
//! designs, `fsim` with distinct seeds and block counts from 8 up to
//! 2048 (512 on the paper-size design) at the default `lane_words`, and
//! `atpg` with the static pre-pass and distinct fill seeds on the quick
//! design. Warm jobs replay jobs the
//! same client already completed. Every pass runs on a fresh server, the
//! two design-cache misses come from a serial prologue, and the cold
//! jobs fit the result cache, so every cache hit and miss is known in
//! advance and checked.
//!
//! The mix is chosen, not taken from recorded traffic; each count below
//! names the need it meets. Fault simulation is most of the job run
//! time, prepass ATPG most of the rest; lint, netlist jobs and design
//! builds are well under 1% of it.

use crate::report::{self, median, percentile, secs, Checks, Metrics};
use crate::trace::{self, Tracer};
use crate::Args;
use rescue_core::atpg::{Atpg, AtpgConfig, AtpgRun, FaultClass, PodemConfig};
use rescue_core::model::{build_pipeline, ModelParams, Variant};
use rescue_core::netlist::scan::insert_scan;
use rescue_core::netlist::{text, Levelized};
use rescue_serve::{run_job, Design, JobConfig, JobServer, ServeOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Set-ups timed before each pass.
const SETUP_REPS: usize = 11;
// `lint` and `netlist` jobs take no config, so each design has exactly
// one of each: two designs give two of each kind.
/// Prepass ATPG jobs: enough that the prepass path is about a third of
/// the job run time, few enough that fault simulation stays the bulk.
const ATPG_JOBS: usize = 6;
/// Fault-sim jobs: they fill the cold jobs up to 102, past the 100
/// samples a p90 with ten samples beyond it needs, and within the
/// 128-entry result cache.
const FSIM_JOBS: usize = 92;
const MIN_BLOCKS: f64 = 8.0;
/// Largest fsim job per design. The paper-size design's pattern blocks
/// are four times as wide, so its cap keeps the memory of two concurrent
/// jobs small beside the server's steady footprint.
const MAX_BLOCKS: [f64; 2] = [2048.0, 512.0];
const CLIENTS: usize = 2;
/// Warm replays per client: 120 in all, past the 100 a warm p90 needs.
const WARM_PER_CLIENT: usize = 60;
const DESIGNS: [&str; 2] = ["quick", "paper"];

/// One distinct job: a design and a config line.
#[derive(Clone, Debug)]
pub struct Job {
    design: usize,
    config: String,
    kind: &'static str,
    blocks: usize,
}

/// The seeded job stream of one pass.
#[derive(Clone, Debug)]
pub struct Stream {
    jobs: Vec<Job>,
    /// Jobs sent serially before the clients start: the first job on
    /// each design, so each design is built exactly once.
    prologue: Vec<usize>,
    /// Per client: job indices in send order, flagged warm or cold.
    clients: Vec<Vec<(usize, bool)>>,
}

impl Stream {
    fn total_jobs(&self) -> usize {
        self.prologue.len() + self.clients.iter().map(Vec::len).sum::<usize>()
    }
}

/// Derive the job stream from the workload seed.
pub fn stream(seed: u64) -> Stream {
    let mut rng = report::rng(seed, 7);
    let mut jobs: Vec<Job> = Vec::new();
    let mut push = |design, config: String, kind, blocks| {
        jobs.push(Job {
            design,
            config,
            kind,
            blocks,
        });
        jobs.len() - 1
    };
    let prologue = vec![
        push(0, r#"{"kind":"netlist"}"#.to_owned(), "netlist", 0),
        push(1, r#"{"kind":"netlist"}"#.to_owned(), "netlist", 0),
    ];
    let mut dealt: Vec<Vec<usize>> = vec![Vec::new(); CLIENTS];
    for design in 0..DESIGNS.len() {
        dealt[design % CLIENTS].push(push(design, r#"{"kind":"lint"}"#.to_owned(), "lint", 0));
    }
    let mut seen = std::collections::HashSet::new();
    let mut fresh = |rng: &mut rescue_obs::SplitMix64| loop {
        let s = rng.next_u64() >> 12;
        if seen.insert(s) {
            break s;
        }
    };
    for i in 0..ATPG_JOBS {
        let fill = fresh(&mut rng);
        let config = format!(r#"{{"kind":"atpg","static_prepass":true,"fill_seed":{fill}}}"#);
        dealt[i % CLIENTS].push(push(0, config, "atpg", 0));
    }
    // Block counts are log-uniform, one per stratum, so every seed sees
    // the same spread of job sizes; the strata alternate designs and
    // are dealt so both clients get both designs and every size range.
    for i in 0..FSIM_JOBS {
        let u = (i as f64 + rng.next_f64()) / FSIM_JOBS as f64;
        let design = i % 2;
        let blocks = (MIN_BLOCKS * (MAX_BLOCKS[design] / MIN_BLOCKS).powf(u)).round() as usize;
        let seed = fresh(&mut rng);
        let config = format!(r#"{{"kind":"fsim","patterns":{blocks},"seed":{seed}}}"#);
        dealt[(i / 2 + i) % CLIENTS].push(push(design, config, "fsim", blocks));
    }
    let clients = dealt
        .into_iter()
        .map(|mut cold| {
            rng.shuffle(&mut cold);
            let mut steps: Vec<(usize, bool)> = cold.iter().map(|&j| (j, false)).collect();
            for _ in 0..WARM_PER_CLIENT {
                let at = rng.below(steps.len() + 1);
                steps.insert(at, (usize::MAX, true));
            }
            // A warm step replays a job this client (or the prologue)
            // has already completed.
            let mut done = prologue.clone();
            for step in &mut steps {
                if step.1 {
                    step.0 = *rng.choose(&done).expect("the prologue completed");
                } else {
                    done.push(step.0);
                }
            }
            steps
        })
        .collect();
    Stream {
        jobs,
        prologue,
        clients,
    }
}

/// The two netlist texts clients POST.
fn netlist_texts(tracer: Option<&Tracer>) -> [String; 2] {
    [ModelParams::tiny(), ModelParams::paper()].map(|params| {
        let model = trace::maybe(tracer, "model.build", || {
            build_pipeline(&params, Variant::Rescue)
        });
        text::to_text(&model.netlist)
    })
}

fn start_server() -> JobServer {
    JobServer::start("127.0.0.1:0", ServeOptions::default()).expect("the job server starts")
}

/// One response as the client saw it.
#[derive(Clone, Debug, Default)]
struct Reply {
    status: String,
    lines: Vec<String>,
    latency_ms: f64,
    admit_ms: f64,
}

/// POST one job and read the JSONL stream to its end, timing the
/// `serve.job.accepted` event and the result line from the request
/// write.
fn post(addr: SocketAddr, config: &str, netlist: &str) -> std::io::Result<Reply> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let len = config.len() + 1 + netlist.len();
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n"
    )?;
    stream.write_all(config.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.write_all(netlist.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut reply = Reply::default();
    let mut line = String::new();
    let mut in_body = false;
    while reader.read_line(&mut line)? > 0 {
        let l = line.trim_end_matches(['\r', '\n']);
        if !in_body {
            if reply.status.is_empty() {
                reply.status = l.to_owned();
            } else if l.is_empty() {
                in_body = true;
            }
        } else {
            if reply.admit_ms == 0.0 && l.contains(r#""name":"serve.job.accepted""#) {
                reply.admit_ms = secs(t) * 1e3;
            }
            reply.lines.push(l.to_owned());
        }
        line.clear();
    }
    reply.latency_ms = secs(t) * 1e3;
    Ok(reply)
}

fn http_get(addr: SocketAddr, target: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// Counter totals the server exposes on `/metrics` and `/stats.json`.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    result_hits: f64,
    result_misses: f64,
    design_hits: f64,
    design_misses: f64,
    shed: f64,
    failed: f64,
}

fn scrape(addr: SocketAddr) -> Result<Counters, String> {
    let metrics = http_get(addr, "/metrics").map_err(|e| e.to_string())?;
    let series = |suffix: &str| -> f64 {
        metrics
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .find(|(name, _)| name.ends_with(suffix))
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let stats = http_get(addr, "/stats.json").map_err(|e| e.to_string())?;
    let body = stats.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let doc = rescue_obs::json::parse(body).map_err(|e| format!("/stats.json: {e}"))?;
    let stat = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    Ok(Counters {
        result_hits: series("serve_cache_result_hits_total"),
        result_misses: series("serve_cache_result_misses_total"),
        design_hits: series("serve_cache_design_hits_total"),
        design_misses: series("serve_cache_design_misses_total"),
        shed: stat("jobs_shed"),
        failed: stat("jobs_failed"),
    })
}

/// One job as sent and answered within a pass.
#[derive(Clone, Debug)]
struct Sample {
    job: usize,
    warm: bool,
    reply: Result<Reply, String>,
}

/// What one pass leaves behind.
struct Pass {
    wall_s: f64,
    samples: Vec<Sample>,
    /// Counter deltas over the pass.
    counters: Result<Counters, String>,
}

fn send(
    addr: SocketAddr,
    s: &Stream,
    texts: &[String; 2],
    job: usize,
    warm: bool,
    req: u64,
    tracer: Option<&Tracer>,
) -> Sample {
    let j = &s.jobs[job];
    let start = Instant::now();
    let reply = post(addr, &j.config, &texts[j.design]).map_err(|e| e.to_string());
    if let (Some(t), Ok(r)) = (tracer, &reply) {
        let id = t.open();
        let at = |ms: f64| start + std::time::Duration::from_secs_f64(ms / 1e3);
        t.close(
            t.open(),
            "serve.admit",
            Some(id),
            Some(req),
            start,
            at(r.admit_ms),
        );
        t.close(
            id,
            "serve.request",
            None,
            Some(req),
            start,
            at(r.latency_ms),
        );
    }
    Sample { job, warm, reply }
}

/// Run the stream once against a freshly started `server`, then shut it
/// down.
fn pass(s: &Stream, texts: &[String; 2], mut server: JobServer, tracer: Option<&Tracer>) -> Pass {
    let addr = server.addr();
    let before = scrape(addr);
    let t = Instant::now();
    let mut samples: Vec<Sample> = s
        .prologue
        .iter()
        .enumerate()
        .map(|(i, &job)| send(addr, s, texts, job, false, i as u64, tracer))
        .collect();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter()
            .enumerate()
            .map(|(c, steps)| {
                scope.spawn(move || {
                    steps
                        .iter()
                        .enumerate()
                        .map(|(k, &(job, warm))| {
                            // Request id: the client in the high half, the
                            // step in the low half (the prologue is client 0).
                            let req = ((c as u64 + 1) << 32) | k as u64;
                            send(addr, s, texts, job, warm, req, tracer)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = secs(t);
    samples.extend(per_client.into_iter().flatten());
    let after = scrape(addr);
    server.shutdown();
    let counters = before.and_then(|b| {
        after.map(|a| Counters {
            result_hits: a.result_hits - b.result_hits,
            result_misses: a.result_misses - b.result_misses,
            design_hits: a.design_hits - b.design_hits,
            design_misses: a.design_misses - b.design_misses,
            shed: a.shed - b.shed,
            failed: a.failed - b.failed,
        })
    });
    Pass {
        wall_s,
        samples,
        counters,
    }
}

/// The canonical result line of a reply, after checking the stream:
/// HTTP 200, no error line, one result line, and the cache events the
/// stream's construction predicts.
pub fn check_reply(
    lines: &[String],
    status: &str,
    warm: bool,
    design_hit: bool,
) -> Result<String, String> {
    if !status.contains(" 200 ") {
        return Err(format!("status {status:?}"));
    }
    if let Some(e) = lines.iter().find(|l| l.starts_with(r#"{"type":"error""#)) {
        return Err(format!("error line {e}"));
    }
    let results: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with(r#"{"type":"result""#))
        .collect();
    if results.len() != 1 {
        return Err(format!("{} result lines", results.len()));
    }
    let event = |name: &str, hit: bool| {
        lines.iter().any(|l| {
            l.contains(&format!(r#""name":"{name}""#)) && l.contains(&format!(r#""hit":{hit}"#))
        })
    };
    if !event("serve.result.cache", warm) {
        return Err(format!(
            "expected a result-cache {}",
            if warm { "hit" } else { "miss" }
        ));
    }
    if !warm && !event("serve.design.cache", design_hit) {
        return Err(format!(
            "expected a design-cache {}",
            if design_hit { "hit" } else { "miss" }
        ));
    }
    Ok(results[0].clone())
}

/// Check every reply against the in-process reference lines and the
/// pass's cache counters against the stream's construction.
fn verify_pass(
    s: &Stream,
    p: &Pass,
    reference: &[(Result<String, String>, f64)],
    checks: &mut Checks,
) {
    for sample in &p.samples {
        let design_hit = !s.prologue.contains(&sample.job);
        let result = sample.reply.clone().and_then(|r| {
            let line = check_reply(&r.lines, &r.status, sample.warm, design_hit)?;
            match &reference[sample.job].0 {
                Ok(want) if *want == line => Ok(()),
                Ok(want) => Err(format!("served {line}\nin-process {want}")),
                Err(e) => Err(format!("in-process run_job failed: {e}")),
            }
        });
        checks.check("served result equals in-process run_job", result);
    }
    let warm = p.samples.iter().filter(|x| x.warm).count() as f64;
    let cold = p.samples.len() as f64 - warm;
    let designs = s.prologue.len() as f64;
    checks.check(
        "cache hits and misses as constructed, nothing shed or failed",
        p.counters.clone().and_then(|c| {
            let want = (warm, cold, cold - designs, designs, 0.0, 0.0);
            let got = (
                c.result_hits,
                c.result_misses,
                c.design_hits,
                c.design_misses,
                c.shed,
                c.failed,
            );
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "(result hits, misses, design hits, misses, shed, failed) = {got:?}, expected {want:?}"
                ))
            }
        }),
    );
}

/// `Design::build` for both netlist texts.
fn build_designs(texts: &[String; 2], tr: Option<&Tracer>) -> Vec<Result<Design, String>> {
    let names = ["serve.design_build.quick", "serve.design_build.paper"];
    texts
        .iter()
        .zip(names)
        .map(|(text, name)| trace::maybe(tr, name, || Design::build(text)))
        .collect()
}

/// The in-process reference: `run_job(&Design::build(text)?, &cfg)` for
/// every distinct job, with its `run_job` time in ms, on as many threads
/// as the server has workers. With a tracer, every call is a span.
fn reference(
    s: &Stream,
    designs: &[Result<Design, String>],
    tr: Option<&Tracer>,
) -> Vec<(Result<String, String>, f64)> {
    let one = |j: &Job| {
        let design = designs[j.design].as_ref().map_err(Clone::clone)?;
        let cfg = JobConfig::parse(&j.config)?;
        let name = match j.kind {
            "atpg" => "serve.run.atpg",
            "fsim" => "serve.run.fsim",
            "lint" => "serve.run.lint",
            _ => "serve.run.netlist",
        };
        let t = Instant::now();
        let line = trace::maybe(tr, name, || run_job(design, &cfg))?;
        Ok((line, secs(t) * 1e3))
    };
    let workers = ServeOptions::default().workers;
    let mut out: Vec<(Result<String, String>, f64)> = vec![(Err(String::new()), 0.0); s.jobs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let one = &one;
                scope.spawn(move || {
                    (w..s.jobs.len())
                        .step_by(workers)
                        .map(|i| (i, one(&s.jobs[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("reference worker panicked") {
                out[i] = match r {
                    Ok((line, ms)) => (Ok(line), ms),
                    Err(e) => (Err(e), 0.0),
                };
            }
        }
    });
    out
}

/// The `AtpgConfig` an ATPG job's `run_job` runs with, rebuilt from its
/// public fields; [`same_as_served`] checks the two do not drift apart.
fn atpg_config(cfg: &JobConfig) -> AtpgConfig {
    AtpgConfig {
        podem: PodemConfig {
            max_backtracks: cfg.max_backtracks,
        },
        fill_seed: cfg.fill_seed,
        merge_cubes: cfg.merge_cubes,
        merge_window: cfg.merge_window,
        threads: cfg.threads,
        lane_words: cfg.lane_words,
        static_prepass: cfg.static_prepass,
        drop_after: (cfg.drop_after > 1).then_some(cfg.drop_after),
    }
}

/// The replayed run agrees with the ATPG result line served for the same
/// job, so the `atpg.*` metrics measure the configuration the server ran.
pub fn same_as_served(run: &AtpgRun, line: &str) -> Result<(), String> {
    let doc = rescue_obs::json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let fields = [
        ("faults", run.stats.faults as i128),
        ("vectors", run.stats.vectors as i128),
        ("cycles", i128::from(run.stats.cycles)),
        ("detected", run.count(FaultClass::Detected) as i128),
        ("chain_tested", run.count(FaultClass::ChainTested) as i128),
        ("untestable", run.count(FaultClass::Untestable) as i128),
        ("aborted", run.count(FaultClass::Aborted) as i128),
    ];
    for (name, replayed) in fields {
        let served = doc.get(name).and_then(|v| v.as_int());
        if served != Some(replayed) {
            return Err(format!("{name}: replayed {replayed}, served {served:?}"));
        }
    }
    Ok(())
}

fn latencies(p: &Pass, warm: bool) -> Vec<f64> {
    p.samples
        .iter()
        .filter(|x| x.warm == warm)
        .filter_map(|x| x.reply.as_ref().ok().map(|r| r.latency_ms))
        .collect()
}

pub fn run(args: &Args, checks: &mut Checks, m: &mut Metrics) {
    let s = stream(args.seed);
    if args.trace {
        return traced(args, &s, checks, m);
    }
    // Set-up: the netlist texts and a server start. Shutting a server
    // down waits out its accept-loop backoff, so it is not timed.
    let timed = report::timed_run(
        args.seconds,
        SETUP_REPS,
        || (netlist_texts(None), start_server()),
        |(texts, server)| pass(&s, &texts, server, None),
    );
    let rss = report::peak_rss_mb();
    let passes = &timed.passes;
    let walls: Vec<f64> = passes.iter().map(|(_, p)| p.wall_s).collect();
    m.set("setup_s", timed.setup_s);
    m.set("wall_s", median(&walls));
    m.set(
        "jobs_per_s",
        (s.total_jobs() * passes.len()) as f64 / walls.iter().sum::<f64>(),
    );
    m.set("peak_rss_mb", rss);
    let reference = reference(&s, &build_designs(&netlist_texts(None), None), None);
    for (_, p) in passes {
        verify_pass(&s, p, &reference, checks);
    }
}

/// The traced run: an untraced pass (the overhead baseline and the
/// client-observed latencies), a traced pass with a span per request
/// and its admission, then the in-process reference with a span around
/// every layer call it makes.
fn traced(args: &Args, s: &Stream, checks: &mut Checks, m: &mut Metrics) {
    let tr = Tracer::default();
    let texts = &netlist_texts(Some(&tr));
    let untraced = pass(s, texts, start_server(), None);
    let traced = pass(s, texts, start_server(), Some(&tr));
    let designs = build_designs(texts, Some(&tr));
    let reference = reference(s, &designs, Some(&tr));
    verify_pass(s, &untraced, &reference, checks);
    verify_pass(s, &traced, &reference, checks);

    // The netlist layer calls Design::build makes, one by one.
    let mut findings = 0usize;
    for text in texts {
        let base = tr.span("netlist.parse", None, |_| text::parse(text));
        let Ok(base) = base else {
            checks.check("netlist text parses", Err("parse failed".to_owned()));
            continue;
        };
        let scanned = tr.span("netlist.scan", None, |_| {
            insert_scan(&base).expect("the model has state")
        });
        tr.span("netlist.levelize", None, |_| {
            Levelized::new(&scanned.netlist)
        });
        tr.span("netlist.collapse", None, |_| {
            scanned.netlist.collapse_faults()
        });
        let report = tr.span("lint.run", None, |_| rescue_lint::lint_scan(&scanned));
        findings += report.diagnostics.len();
    }

    // The served ATPG jobs again, through `Atpg::run_prepared` with the
    // config `run_job` builds, for the engine's own counters and timings.
    let mut atpg_runs = Vec::new();
    for (i, j) in s.jobs.iter().enumerate().filter(|(_, j)| j.kind == "atpg") {
        let (Ok(d), Ok(cfg)) = (&designs[j.design], JobConfig::parse(&j.config)) else {
            continue;
        };
        let Some(scanned) = &d.scanned else { continue };
        let run = tr.span("atpg.run", None, |_| {
            Atpg::new(scanned, atpg_config(&cfg)).and_then(|a| a.run_prepared(&d.lev, &d.faults))
        });
        match run {
            Ok(r) => {
                let served = reference[i].0.as_deref().map_err(Clone::clone);
                checks.check(
                    "replayed ATPG run matches the served result line",
                    served.and_then(|line| same_as_served(&r, line)),
                );
                atpg_runs.push(r);
            }
            Err(e) => checks.check("served ATPG job replays", Err(e.to_string())),
        }
    }
    crate::table3::set_atpg_metrics(
        m,
        &atpg_runs,
        tr.total_ms("atpg.run"),
        PodemConfig::default().max_backtracks,
    );

    let cold = latencies(&untraced, false);
    let warm = latencies(&untraced, true);
    let Ok(uc) = untraced.counters.as_ref() else {
        checks.check("server counters scraped", Err("scrape failed".to_owned()));
        return;
    };
    let rate = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    let fsim_blocks: usize = s
        .jobs
        .iter()
        .filter(|j| j.kind == "fsim")
        .map(|j| j.blocks)
        .sum();

    // Per job of the traced pass: what the client waited for beyond the
    // design build and run_job the job needed.
    let build_ms = [
        tr.total_ms("serve.design_build.quick"),
        tr.total_ms("serve.design_build.paper"),
    ];
    let overhead: Vec<f64> = traced
        .samples
        .iter()
        .filter_map(|x| {
            let r = x.reply.as_ref().ok()?;
            if x.warm {
                return Some(r.latency_ms);
            }
            let built = if s.prologue.contains(&x.job) {
                build_ms[s.jobs[x.job].design]
            } else {
                0.0
            };
            Some(r.latency_ms - built - reference[x.job].1)
        })
        .collect();
    let admit: Vec<f64> = tr.durations_ms("serve.admit");

    m.set("model.build_ms", tr.total_ms("model.build"));
    m.set("netlist.parse_ms", tr.total_ms("netlist.parse"));
    m.set("netlist.scan_ms", tr.total_ms("netlist.scan"));
    m.set("netlist.levelize_ms", tr.total_ms("netlist.levelize"));
    m.set("netlist.collapse_ms", tr.total_ms("netlist.collapse"));
    m.set("lint.run_ms", tr.total_ms("lint.run"));
    m.set("lint.findings", findings as f64);
    m.set("cold_job_p50_ms", percentile(&cold, 50.0));
    m.set("cold_job_p90_ms", percentile(&cold, 90.0));
    m.set("cold_job.samples", cold.len() as f64);
    m.set("cold_job.total_ms", cold.iter().sum());
    m.set("warm_job_p50_ms", percentile(&warm, 50.0));
    m.set("warm_job_p90_ms", percentile(&warm, 90.0));
    m.set("warm_job.samples", warm.len() as f64);
    m.set("serve.admit_ms.p50", percentile(&admit, 50.0));
    m.set("serve.admit_ms.p90", percentile(&admit, 90.0));
    m.set(
        "serve.result_cache.hit_rate",
        rate(uc.result_hits, uc.result_misses),
    );
    m.set(
        "serve.design_cache.hit_rate",
        rate(uc.design_hits, uc.design_misses),
    );
    m.set("serve.design_build_ms.quick", build_ms[0]);
    m.set("serve.design_build_ms.paper", build_ms[1]);
    m.set("serve.run_ms.atpg", tr.total_ms("serve.run.atpg"));
    m.set("serve.run_ms.fsim", tr.total_ms("serve.run.fsim"));
    m.set("serve.run_ms.lint", tr.total_ms("serve.run.lint"));
    m.set("serve.run_ms.netlist", tr.total_ms("serve.run.netlist"));
    m.set(
        "serve.fsim.ns_per_block",
        tr.total_ms("serve.run.fsim") * 1e6 / fsim_blocks as f64,
    );
    m.set("serve.overhead_ms", percentile(&overhead, 50.0));
    m.set("serve.jobs.shed", uc.shed);
    m.set("serve.jobs.failed", uc.failed);
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s,
    );
    if let Err(e) = tr.write(&args.trace_path()) {
        eprintln!("perfbench: could not write the trace: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_fits_the_result_cache() {
        let a = stream(11);
        let b = stream(11);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{:?}", stream(12)));
        let opts = ServeOptions::default();
        assert!(a.jobs.len() <= opts.result_cache);
        assert!(a.jobs.len() >= 100);
        let warm = a.clients.iter().flatten().filter(|x| x.1).count();
        assert!(warm >= 100);
        let configs: std::collections::HashSet<(usize, &str)> = a
            .jobs
            .iter()
            .map(|j| (j.design, j.config.as_str()))
            .collect();
        assert_eq!(configs.len(), a.jobs.len(), "cold jobs must be distinct");
        assert!(a.jobs.iter().any(|j| j.blocks >= 1024));
    }

    #[test]
    fn served_results_are_checked_against_the_reference() {
        // A real served job on a small design, then a tampered copy.
        let text = "component c\ninput a\ninput b\ndff q c 3\ngate and c 0 1\noutput o 3\n";
        let texts = [text.to_owned(), text.to_owned()];
        let mut server = start_server();
        let config = r#"{"kind":"fsim","patterns":2,"seed":5}"#;
        let reply = post(server.addr(), config, text).expect("job served");
        server.shutdown();
        let line = check_reply(&reply.lines, &reply.status, false, false).expect("reply is clean");
        let want = run_job(
            &Design::build(&texts[0]).unwrap(),
            &JobConfig::parse(config).unwrap(),
        );
        assert_eq!(Ok(line.clone()), want);

        let tampered: Vec<String> = reply
            .lines
            .iter()
            .map(|l| l.replace(r#""detected":"#, r#""detected":1"#))
            .collect();
        let bad = check_reply(&tampered, &reply.status, false, false).expect("still well-formed");
        assert_ne!(bad, line);
        assert!(check_reply(&reply.lines, "HTTP/1.1 429 Too Many Requests", false, false).is_err());
        assert!(check_reply(&reply.lines, &reply.status, true, false).is_err());

        let p = Pass {
            wall_s: 1.0,
            samples: vec![Sample {
                job: 0,
                warm: false,
                reply: Ok(Reply {
                    lines: tampered,
                    ..reply
                }),
            }],
            counters: Ok(Counters {
                result_misses: 1.0,
                design_misses: 1.0,
                ..Counters::default()
            }),
        };
        let s = Stream {
            jobs: vec![Job {
                design: 0,
                config: config.to_owned(),
                kind: "fsim",
                blocks: 2,
            }],
            prologue: vec![0],
            clients: vec![],
        };
        let mut checks = Checks::default();
        verify_pass(&s, &p, &[(want, 0.0)], &mut checks);
        assert_eq!(checks.attempted, 2);
        assert_eq!(
            checks.failed, 1,
            "the tampered line must fail, the counts pass"
        );
        assert!(checks.failed_frac() > 0.0);
    }

    #[test]
    fn replayed_atpg_is_checked_against_the_served_line() {
        let text = "component c\ninput a\ninput b\ninput c\ndff q c 6\ndff r c 5\n\
gate and c 0 1\ngate xor c 5 2\ngate or c 3 4\ngate and c 7 2\noutput o 8\n";
        let design = Design::build(text).expect("fixture builds");
        let cfg = JobConfig::parse(r#"{"kind":"atpg","static_prepass":true,"fill_seed":9}"#)
            .expect("config parses");
        let line = run_job(&design, &cfg).expect("job runs");
        let scanned = design.scanned.as_ref().expect("fixture has state");
        let run = Atpg::new(scanned, atpg_config(&cfg))
            .and_then(|a| a.run_prepared(&design.lev, &design.faults))
            .expect("replay runs");
        same_as_served(&run, &line).expect("the replay matches the served line");

        let vectors = format!(r#""vectors":{}"#, run.stats.vectors);
        let tampered = line.replace(&vectors, &format!(r#""vectors":{}"#, run.stats.vectors + 1));
        assert_ne!(tampered, line);
        assert!(same_as_served(&run, &tampered).is_err());
    }
}
