//! The job server: HTTP surface, admission control, and the job
//! execution path.
//!
//! Endpoints:
//!
//! * `POST /jobs` — body is one JSON config line followed by a text
//!   netlist. Streams JSONL back: `{"type":"event",...}` progress lines
//!   (advisory — a cached job emits fewer of them) terminated by one
//!   canonical `{"type":"result",...}` line whose bytes are the
//!   determinism contract (see [`crate::job`]). Errors come back as a
//!   `{"type":"error",...}` line with an HTTP error status. A job that
//!   panics ends its `200` stream with an error line instead, counted
//!   on `serve.jobs.panicked`; its slot is released and nothing cached.
//! * `GET /stats.json` — server-specific state: jobs running/queued,
//!   cache sizes, totals.
//! * `GET /metrics`, `/snapshot.json`, `/healthz` — the shared
//!   telemetry surface ([`rescue_obs::server::route_telemetry`]), so
//!   one scrape sees the engine counters and the `serve.*` counters
//!   side by side.
//!
//! Admission control: at most `workers` jobs execute concurrently; up
//! to `queue_depth` more wait; anything beyond is shed immediately
//! with `429` and a `serve.jobs.shed` count. Shedding never blocks on
//! running jobs, and `/metrics` stays served (separate connections,
//! separate threads) while jobs run.

use crate::cache::{Design, ServeCaches};
use crate::job::{run_job, JobConfig};
use rescue_obs::http::{
    write_response, write_stream_head, HttpOptions, HttpServer, Request, Response,
};
use rescue_obs::json::JsonObj;
use rescue_obs::metrics::{Counter, Histogram};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};

/// Server tuning. `Default` suits tests and local runs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Jobs allowed to execute concurrently.
    pub workers: usize,
    /// Jobs allowed to wait for a worker before shedding starts.
    pub queue_depth: usize,
    /// Maximum accepted request body (config + netlist text).
    pub max_body: usize,
    /// Prepared designs kept in the design cache.
    pub design_cache: usize,
    /// Result lines kept in the result cache.
    pub result_cache: usize,
    /// Title echoed by `/snapshot.json`.
    pub title: String,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_depth: 8,
            max_body: 16 * 1024 * 1024,
            design_cache: 16,
            result_cache: 128,
            title: "rescue-serve".to_owned(),
        }
    }
}

/// Blocking admission gate: a counting semaphore with a bounded FIFO
/// wait queue. `enter` returns `None` (shed) once `queue_depth` jobs
/// are already waiting. Waiters hold numbered tickets and are admitted
/// strictly in arrival order, and a newcomer is only admitted directly
/// when nobody is queued — so a sustained stream of new arrivals can
/// never barge past queued jobs and starve them.
struct Gate {
    workers: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    cond: Condvar,
}

/// Gate state behind the mutex. `queued == next_ticket - serving`.
#[derive(Clone, Copy, Default)]
struct GateState {
    /// Jobs holding a permit.
    running: usize,
    /// Jobs waiting in [`Gate::enter`].
    queued: usize,
    /// Next queue ticket to hand out.
    next_ticket: u64,
    /// Ticket at the head of the queue (admitted next).
    serving: u64,
}

impl Gate {
    fn new(workers: usize, queue_depth: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::new(GateState::default()),
            cond: Condvar::new(),
        }
    }

    /// Acquire a job slot, waiting in the bounded queue if needed.
    fn enter(self: &Arc<Self>) -> Option<GatePermit> {
        let mut st = self.state.lock().expect("gate lock");
        // Direct admission only when nobody is waiting; freed slots
        // belong to the head of the queue first.
        if st.queued == 0 && st.running < self.workers {
            st.running += 1;
            return Some(GatePermit(Arc::clone(self)));
        }
        if st.queued >= self.queue_depth {
            return None;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queued += 1;
        while st.serving != ticket || st.running >= self.workers {
            st = self.cond.wait(st).expect("gate wait");
        }
        st.serving += 1;
        st.queued -= 1;
        st.running += 1;
        drop(st);
        // The next ticket holder may already be eligible (slots can
        // free back-to-back); it waits on this same condvar.
        self.cond.notify_all();
        Some(GatePermit(Arc::clone(self)))
    }

    /// `(running, queued)` right now.
    fn load(&self) -> (usize, usize) {
        let st = self.state.lock().expect("gate lock");
        (st.running, st.queued)
    }
}

/// RAII job slot; releasing admits the head of the wait queue.
struct GatePermit(Arc<Gate>);

impl Drop for GatePermit {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().expect("gate lock");
        st.running -= 1;
        drop(st);
        // notify_all, not notify_one: only the head ticket can
        // proceed, and a single notify could land on a non-head
        // waiter that just goes back to sleep.
        self.0.cond.notify_all();
    }
}

/// Runs one job against a prepared design: [`run_job`] in production.
type JobRunner = fn(&Design, &JobConfig) -> Result<String, String>;

/// Shared server state: caches, gate, counters.
struct State {
    caches: ServeCaches,
    gate: Arc<Gate>,
    /// Threads a job with `"threads": 0` runs on: its share of the
    /// machine, `nproc / workers`, so concurrent jobs do not
    /// oversubscribe the cores.
    job_threads: usize,
    title: String,
    run: JobRunner,
    jobs_accepted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_panicked: Arc<Counter>,
    jobs_shed: Arc<Counter>,
    job_ns: Arc<Histogram>,
}

impl State {
    fn new(opts: &ServeOptions, run: JobRunner) -> State {
        let reg = rescue_obs::metrics::global();
        State {
            caches: ServeCaches::new(opts.design_cache, opts.result_cache),
            gate: Arc::new(Gate::new(opts.workers, opts.queue_depth)),
            job_threads: (rescue_atpg::resolve_threads(0) / opts.workers.max(1)).max(1),
            title: opts.title.clone(),
            run,
            jobs_accepted: reg.counter("serve.jobs.accepted"),
            jobs_completed: reg.counter("serve.jobs.completed"),
            jobs_failed: reg.counter("serve.jobs.failed"),
            jobs_panicked: reg.counter("serve.jobs.panicked"),
            jobs_shed: reg.counter("serve.jobs.shed"),
            job_ns: reg.histogram("serve.job.ns"),
        }
    }
}

/// A running job server. Dropping it shuts the listener down.
pub struct JobServer {
    inner: HttpServer,
}

impl JobServer {
    /// Bind `addr` (port 0 for ephemeral) and serve jobs.
    pub fn start(addr: &str, opts: ServeOptions) -> std::io::Result<JobServer> {
        Self::start_with(addr, opts, run_job)
    }

    fn start_with(addr: &str, opts: ServeOptions, run: JobRunner) -> std::io::Result<JobServer> {
        let state = Arc::new(State::new(&opts, run));
        let http_opts = HttpOptions {
            max_body: opts.max_body,
            // Jobs hold their connection while running; admit enough
            // connections for all workers + queue + scrapers.
            max_connections: (opts.workers + opts.queue_depth + 8).max(16),
            ..HttpOptions::default()
        };
        let inner = HttpServer::start(
            addr,
            "rescue-serve",
            http_opts,
            move |req: Request, stream: &mut TcpStream| handle(&state, req, stream),
        )?;
        Ok(JobServer { inner })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stop accepting and drain. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

fn handle(state: &State, req: Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let head_only = req.is_head();
    if req.method == "POST" && req.path == "/jobs" {
        return serve_job(state, &req, stream);
    }
    if (req.method == "GET" || req.method == "HEAD") && req.path == "/stats.json" {
        let resp = Response::ok("application/json", stats_json(state));
        return write_response(stream, &resp, head_only);
    }
    let resp = rescue_obs::server::route_telemetry(&req, &state.title)
        .unwrap_or_else(|| Response::text("405 Method Not Allowed", "GET, HEAD or POST /jobs\n"));
    write_response(stream, &resp, head_only)
}

/// One event line of the JSONL stream (advisory, not cached).
fn event_line(name: &str, fill: impl FnOnce(&mut JsonObj)) -> String {
    let mut o = JsonObj::new();
    o.str("type", "event").str("name", name);
    fill(&mut o);
    let mut line = o.finish();
    line.push('\n');
    line
}

/// The full `POST /jobs` path: parse, admit, cache-lookup, run, stream.
fn serve_job(state: &State, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let body = String::from_utf8_lossy(&req.body);
    // First line: JSON config. Remainder: netlist text.
    let (config_line, netlist_text) = match body.split_once('\n') {
        Some(pair) => pair,
        None => (body.as_ref(), ""),
    };
    let cfg = match JobConfig::parse(config_line) {
        Ok(c) => c,
        Err(e) => return error_response(stream, "400 Bad Request", &e),
    };
    if netlist_text.trim().is_empty() {
        return error_response(stream, "400 Bad Request", "request has no netlist text");
    }
    if let Err(e) = Design::check_gate_count(netlist_text) {
        return error_response(stream, "400 Bad Request", &e);
    }

    // Admission before any expensive work: shed with 429 when the
    // queue is full. The permit covers the whole job, including the
    // design build — parsing a pathological netlist is work too.
    let permit = match state.gate.enter() {
        Some(p) => p,
        None => {
            state.jobs_shed.inc();
            return error_response(stream, "429 Too Many Requests", "job queue is full");
        }
    };
    state.jobs_accepted.inc();
    let job = rescue_obs::span("serve.job");

    // From here on the response is a 200 JSONL stream; job failures
    // become an error line inside the stream.
    write_stream_head(stream, "200 OK", "application/jsonl")?;
    if req.is_head() {
        return Ok(());
    }
    stream.write_all(
        event_line("serve.job.accepted", |o| {
            o.str("job", cfg.kind.name());
        })
        .as_bytes(),
    )?;

    let result = run_cached(state, &cfg, netlist_text, stream);
    drop(permit);

    match result {
        Ok(line) => {
            state.jobs_completed.inc();
            state.job_ns.record(job.finish());
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
        }
        Err(e) => {
            state.jobs_failed.inc();
            stream.write_all(error_line(&e).as_bytes())?;
        }
    }
    stream.flush()
}

/// Resolve the job through the result and design caches, emitting
/// advisory cache events on `stream` as they are known.
fn run_cached(
    state: &State,
    cfg: &JobConfig,
    netlist_text: &str,
    stream: &mut TcpStream,
) -> Result<Arc<String>, String> {
    if let Some(line) = state.caches.result(netlist_text, cfg) {
        let _ = stream.write_all(
            event_line("serve.result.cache", |o| {
                o.bool("hit", true);
            })
            .as_bytes(),
        );
        return Ok(line);
    }
    let _ = stream.write_all(
        event_line("serve.result.cache", |o| {
            o.bool("hit", false);
        })
        .as_bytes(),
    );
    let (design, design_hit) = state.caches.design(netlist_text)?;
    let _ = stream.write_all(
        event_line("serve.design.cache", |o| {
            o.bool("hit", design_hit)
                .str("design", &format!("{:016x}", design.content_hash));
        })
        .as_bytes(),
    );
    // `threads` is a hash-excluded datapath knob, so resolving the
    // server's share here changes neither the cache key nor the bytes.
    let run_cfg = JobConfig {
        threads: if cfg.threads == 0 {
            state.job_threads
        } else {
            cfg.threads
        },
        ..cfg.clone()
    };
    let line = Arc::new(catch_job_panic(&state.jobs_panicked, || {
        (state.run)(&design, &run_cfg)
    })?);
    state
        .caches
        .store_result(Arc::clone(&design.text), cfg, Arc::clone(&line));
    Ok(line)
}

/// Run `job`, turning a panic into an error so the caller still writes
/// an error line on the open stream and releases its permit. Each panic
/// counts on `panicked`.
fn catch_job_panic(
    panicked: &Counter,
    job: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        panicked.inc();
        let why = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown cause".to_owned());
        Err(format!("job panicked: {why}"))
    })
}

fn error_line(message: &str) -> String {
    let mut o = JsonObj::new();
    o.str("type", "error").str("message", message);
    let mut line = o.finish();
    line.push('\n');
    line
}

/// A whole-response error (pre-stream): proper HTTP status, JSON body.
fn error_response(
    stream: &mut TcpStream,
    status: &'static str,
    message: &str,
) -> std::io::Result<()> {
    let resp = Response {
        status,
        content_type: "application/json",
        body: error_line(message),
    };
    write_response(stream, &resp, false)
}

/// `/stats.json`: instantaneous server state (distinct from the
/// cumulative counters on `/metrics`).
fn stats_json(state: &State) -> String {
    let (running, queued) = state.gate.load();
    let (designs, results) = state.caches.sizes();
    let mut o = JsonObj::new();
    o.str("title", &state.title)
        .u64("jobs_running", running as u64)
        .u64("jobs_queued", queued as u64)
        .u64("designs_cached", designs as u64)
        .u64("results_cached", results as u64)
        .u64("jobs_accepted", state.jobs_accepted.get())
        .u64("jobs_completed", state.jobs_completed.get())
        .u64("jobs_failed", state.jobs_failed.get())
        .u64("jobs_panicked", state.jobs_panicked.get())
        .u64("jobs_shed", state.jobs_shed.get());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn gate_hands_freed_slots_to_waiters_before_newcomers() {
        let gate = Arc::new(Gate::new(1, 4));
        let occupant = gate.enter().expect("occupant admitted");

        let waiter_ran = Arc::new(AtomicBool::new(false));
        let waiter = {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&waiter_ran);
            std::thread::spawn(move || {
                let permit = gate.enter().expect("waiter admitted");
                ran.store(true, Ordering::Release);
                drop(permit);
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while gate.load() != (1, 1) {
            assert!(Instant::now() < deadline, "waiter never queued");
            std::thread::yield_now();
        }
        drop(occupant);

        // The newcomer queues behind the waiter's ticket, so by the
        // time it holds the (single) slot the waiter has already run.
        let newcomer = gate.enter().expect("newcomer admitted");
        assert!(
            waiter_ran.load(Ordering::Acquire),
            "newcomer barged past the queued waiter"
        );
        drop(newcomer);
        waiter.join().expect("waiter thread");
    }

    #[test]
    fn a_panicking_job_becomes_an_error() {
        let panicked = Counter::new();
        let err = catch_job_panic(&panicked, || panic!("lane {} out of range", 7)).unwrap_err();
        assert_eq!(err, "job panicked: lane 7 out of range");
        assert_eq!(panicked.get(), 1);
        let err = catch_job_panic(&panicked, || panic!("static message")).unwrap_err();
        assert_eq!(err, "job panicked: static message");
        assert_eq!(
            catch_job_panic(&panicked, || Ok("line".to_owned())).unwrap(),
            "line"
        );
        assert_eq!(
            catch_job_panic(&panicked, || Err("bad".to_owned())).unwrap_err(),
            "bad"
        );
        assert_eq!(panicked.get(), 2, "only panics count");
    }

    /// `(status line, body)` of one request.
    fn request(addr: SocketAddr, head: &str, body: &str) -> (String, String) {
        use std::io::Read as _;
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{head} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("terminator");
        (
            head.lines().next().unwrap_or_default().to_owned(),
            body.to_owned(),
        )
    }

    #[test]
    fn a_panicking_job_keeps_its_connection_and_the_server() {
        fn panics_on_fsim(design: &Design, cfg: &JobConfig) -> Result<String, String> {
            if cfg.kind == crate::JobKind::Fsim {
                panic!("injected fsim panic");
            }
            run_job(design, cfg)
        }
        let mut b = rescue_netlist::NetlistBuilder::new();
        b.enter_component("c");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor2(a, c);
        let q = b.dff(x, "q");
        b.output(q, "o");
        let netlist = rescue_netlist::text::to_text(&b.finish().expect("builds"));
        // One worker and no queue: a leaked permit would shed the next
        // job with 429.
        let opts = ServeOptions {
            workers: 1,
            queue_depth: 0,
            ..ServeOptions::default()
        };
        let mut server =
            JobServer::start_with("127.0.0.1:0", opts, panics_on_fsim).expect("server starts");
        let addr = server.addr();
        let panicked0 = state_field(addr, "jobs_panicked");

        let fsim = format!("{{\"kind\":\"fsim\"}}\n{netlist}");
        for _ in 0..2 {
            let (status, body) = request(addr, "POST /jobs", &fsim);
            assert!(status.contains("200"), "{status}");
            assert!(
                body.lines().any(|l| l.starts_with("{\"type\":\"error\"")
                    && l.contains("job panicked: injected fsim panic")),
                "{body}"
            );
            assert!(!body.contains("\"type\":\"result\""), "{body}");
            // Nothing was cached: the retry misses the result cache too.
            assert!(
                body.contains("\"name\":\"serve.result.cache\",\"hit\":false"),
                "{body}"
            );
        }
        assert!(state_field(addr, "jobs_panicked") >= panicked0 + 2);
        let (_, metrics) = request(addr, "GET /metrics", "");
        assert!(
            metrics.contains("rescue_serve_jobs_panicked_total"),
            "{metrics}"
        );

        let (status, body) = request(
            addr,
            "POST /jobs",
            &format!("{{\"kind\":\"netlist\"}}\n{netlist}"),
        );
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("{\"type\":\"result\",\"job\":\"netlist\""),
            "{body}"
        );
        server.shutdown();
    }

    /// One integer field of `/stats.json`.
    fn state_field(addr: SocketAddr, key: &str) -> u64 {
        let (_, body) = request(addr, "GET /stats.json", "");
        match rescue_obs::json::parse(&body)
            .expect("stats parse")
            .get(key)
        {
            Some(rescue_obs::json::JsonValue::Int(i)) => *i as u64,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn gate_sheds_when_queue_is_full() {
        let gate = Arc::new(Gate::new(1, 0));
        let permit = gate.enter().expect("admitted");
        assert!(gate.enter().is_none(), "queue_depth 0 must shed");
        drop(permit);
        assert!(gate.enter().is_some(), "freed slot must admit again");
    }
}
