//! `TelemetryServer`: the live telemetry surface while an experiment
//! runs, built on the reusable [`crate::http`] listener (zero external
//! dependencies, matching the workspace rule):
//!
//! * `GET /metrics` — Prometheus text exposition ([`crate::prometheus`])
//!   over the global [`crate::metrics::Registry`], which holds the
//!   `live.*` engine counters ([`crate::live`]) among the rest.
//! * `GET /snapshot.json` — the same state as a JSON document built with
//!   the existing [`crate::json`] module.
//! * `GET /healthz` — liveness probe (`ok`).
//!
//! Routing matches on the normalized path (query strings and malformed
//! request-line fragments are stripped by [`crate::http`]), `HEAD` is
//! answered headers-only, and each connection is served on its own
//! short-lived thread so one stalled client never blocks a concurrent
//! scraper. The server shuts down gracefully on
//! [`TelemetryServer::shutdown`] (or drop). It binds any address
//! `std::net` accepts; port `0` picks an ephemeral port, reported by
//! [`TelemetryServer::addr`] — which is how the CI smoke job and the
//! in-process tests avoid port collisions.

use crate::http::{write_response, HttpOptions, HttpServer, Request, Response};
use crate::json::{self, JsonObj};
use crate::metrics::RegistrySnapshot;
use std::net::{SocketAddr, TcpStream};

/// A running telemetry endpoint. See the module docs.
#[derive(Debug)]
pub struct TelemetryServer {
    inner: HttpServer,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:9200`, or port `0` for ephemeral)
    /// and start serving on a new thread. `title` is echoed in
    /// `/snapshot.json`.
    pub fn start(addr: &str, title: &str) -> std::io::Result<TelemetryServer> {
        let title = title.to_owned();
        let inner = HttpServer::start(
            addr,
            "telemetry",
            HttpOptions::default(),
            move |req: Request, stream: &mut TcpStream| {
                let head_only = req.is_head();
                let resp = route_telemetry(&req, &title)
                    .unwrap_or_else(|| Response::text("405 Method Not Allowed", "GET only\n"));
                write_response(stream, &resp, head_only)
            },
        )?;
        Ok(TelemetryServer { inner })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stop accepting, finish in-flight responses, and join the serve
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// Route a telemetry request against the global metrics registry.
/// Returns `None` for methods other than `GET`/`HEAD` (the caller
/// answers 405) so other servers — the `rescue-serve` job daemon mounts
/// these same endpoints — can layer their own routes on top.
pub fn route_telemetry(req: &Request, title: &str) -> Option<Response> {
    if req.method != "GET" && req.method != "HEAD" {
        return None;
    }
    // Touch the live counters so every `live.*` family is listed from
    // the first scrape, before any engine has counted.
    crate::live::counters();
    let uptime_ns = crate::trace::global().now_ns();
    Some(match req.path.as_str() {
        "/healthz" => Response::text("200 OK", "ok\n"),
        "/metrics" => {
            let body = crate::prometheus::render(uptime_ns, &crate::metrics::global().snapshot());
            Response::ok("text/plain; version=0.0.4; charset=utf-8", body)
        }
        "/snapshot.json" => {
            let body = snapshot_json(title, uptime_ns, &crate::metrics::global().snapshot());
            Response::ok("application/json", body)
        }
        _ => Response::not_found(),
    })
}

/// Build the `/snapshot.json` document: run title, telemetry uptime,
/// the `live.*` counter totals (prefix stripped), and the full registry
/// snapshot, all name-sorted. Rates are left to the reader, who diffs
/// two snapshots.
pub fn snapshot_json(title: &str, uptime_ns: u64, reg: &RegistrySnapshot) -> String {
    let live_counters: Vec<String> = crate::live::totals(reg)
        .map(|(name, total)| {
            let mut o = JsonObj::new();
            o.str("name", name).u64("total", total);
            o.finish()
        })
        .collect();
    let mut counters = JsonObj::new();
    for (name, v) in &reg.counters {
        counters.u64(name, *v);
    }
    let mut histograms = JsonObj::new();
    for (name, h) in &reg.histograms {
        let mut ho = JsonObj::new();
        ho.u64("count", h.count)
            .u64("sum", h.sum)
            .u64("min", h.min)
            .u64("max", h.max)
            .f64("mean", h.mean())
            .arr_u64("buckets", &h.buckets);
        histograms.raw(name, &ho.finish());
    }
    let mut live_obj = JsonObj::new();
    live_obj.raw("counters", &json::array(&live_counters));
    let mut reg_obj = JsonObj::new();
    reg_obj
        .raw("counters", &counters.finish())
        .raw("histograms", &histograms.finish());
    let mut o = JsonObj::new();
    o.str("title", title)
        .u64("uptime_ns", uptime_ns)
        .raw("live", &live_obj.finish())
        .raw("registry", &reg_obj.finish());
    o.finish()
}
