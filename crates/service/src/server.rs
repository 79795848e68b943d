//! The service's HTTP surface: ingest front-end plus live scrape/report
//! routes, layered on [`rtc_obs::http`].
//!
//! Routes:
//!
//! * `POST /ingest/<tenant>/<call-id>` — body is a raw pcap capture
//!   (`Content-Length`-delimited), the call manifest rides in the
//!   `X-RTC-Manifest` header as compact JSON. The body streams through
//!   [`rtc_pcap::TraceReader`] straight into the owning shard's bounded
//!   queue — a busy shard stalls the read, which stalls the sender
//!   through TCP flow control.
//! * `GET /metrics`, `GET /metrics.json` — the registry exporters,
//!   including the service gauges (active sessions, per-shard queue
//!   depth, evictions, retained bytes).
//! * `GET /healthz`, `GET /status` — liveness and engine counters.
//! * `GET /tenants`, `GET /report/<tenant>` — live per-tenant reports
//!   rendered by the production renderer.
//! * `POST /shutdown` — request graceful shutdown (the serve loop
//!   finishes live sessions, flushes reports/metrics, and exits).

use crate::engine::{Engine, SessionKey};
use crate::fleet::{materialize, DriveStats, FleetDriveOptions};
use rtc_netemu::fleet::FleetPlan;
use rtc_obs::http::{route_metrics, Handler, Request, Response, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Flags the serve loop and the HTTP surface share.
pub struct ServiceFlags {
    /// Set by `POST /shutdown` (and the SIGINT handler) to request a
    /// graceful stop.
    pub shutdown: AtomicBool,
    /// Set by the serve loop once an in-process fleet drive completed;
    /// `GET /status` reports it so scripts can await fleet completion.
    pub fleet_done: AtomicBool,
}

impl ServiceFlags {
    /// Fresh flags, nothing signaled.
    pub fn new() -> Arc<ServiceFlags> {
        Arc::new(ServiceFlags { shutdown: AtomicBool::new(false), fleet_done: AtomicBool::new(false) })
    }
}

struct ServiceHandler {
    engine: Arc<Engine>,
    flags: Arc<ServiceFlags>,
}

impl Handler for ServiceHandler {
    fn handle(&self, req: &mut Request<'_>) -> Response {
        if let Some(resp) = route_metrics(&self.engine.config().study.obs, &req.path) {
            return resp;
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text("ok\n"),
            ("GET", "/status") => {
                let s = self.engine.status();
                Response::json(
                    serde_json::json!({
                        "active_sessions": s.active_sessions,
                        "opened": s.opened,
                        "finished": s.finished,
                        "evicted": s.evicted,
                        "errors": s.errors,
                        "queue_depths": s.queue_depths,
                        "fleet_done": self.flags.fleet_done.load(Ordering::Acquire),
                    })
                    .to_string(),
                )
            }
            ("GET", "/tenants") => Response::json(serde_json::json!(self.engine.tenants()).to_string()),
            ("GET", path) if path.starts_with("/report/") => {
                let tenant = &path["/report/".len()..];
                match self.engine.tenant_report(tenant) {
                    Some(report) => Response::text(report.render_all()),
                    None => Response::error(404, format!("unknown tenant {tenant:?}\n")),
                }
            }
            ("POST", "/shutdown") => {
                self.flags.shutdown.store(true, Ordering::Release);
                Response::text("shutting down\n")
            }
            ("POST", path) if path.starts_with("/ingest/") => self.ingest(req),
            _ => Response::not_found(),
        }
    }
}

impl ServiceHandler {
    fn ingest(&self, req: &mut Request<'_>) -> Response {
        let rest = &req.path["/ingest/".len()..];
        let Some((tenant, call_id)) = rest.split_once('/') else {
            return Response::error(400, "ingest path must be /ingest/<tenant>/<call-id>\n");
        };
        if tenant.is_empty() || call_id.is_empty() {
            return Response::error(400, "empty tenant or call id\n");
        }
        let Some(manifest_json) = req.header("x-rtc-manifest") else {
            return Response::error(400, "missing X-RTC-Manifest header\n");
        };
        let manifest: rtc_capture::CallManifest = match serde_json::from_str(manifest_json) {
            Ok(m) => m,
            Err(e) => return Response::error(400, format!("bad manifest: {e}\n")),
        };
        let key = SessionKey::new(tenant, call_id);
        match self.engine.ingest_stream(key, manifest, &mut req.body) {
            Ok(records) => Response::text(format!("ingested {records} records\n")),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Response::error(400, format!("{e}\n")),
            Err(e) => Response::error(503, format!("{e}\n")),
        }
    }
}

/// Start the HTTP surface for an engine. Returns the bound server; pair
/// it with the engine's lifecycle in the serve loop.
pub fn serve(addr: &str, engine: Arc<Engine>, flags: Arc<ServiceFlags>) -> std::io::Result<Server> {
    Server::bind(addr, Arc::new(ServiceHandler { engine, flags }))
}

/// Drive a fleet against a running service over HTTP: up to `workers`
/// concurrent uploads, each synthesizing its call lazily, so client-side
/// residency is bounded by the worker count. Calls upload in plan order
/// (workers pull from a shared cursor); per-call bytes stream through one
/// `POST /ingest` each.
pub fn drive_fleet_http(
    addr: SocketAddr,
    plan: &FleetPlan,
    opts: &FleetDriveOptions,
    workers: usize,
) -> std::io::Result<DriveStats> {
    let next = AtomicUsize::new(0);
    let records = AtomicUsize::new(0);
    let workers = workers.clamp(1, 64);
    let stats = std::thread::scope(|scope| -> std::io::Result<DriveStats> {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| -> std::io::Result<usize> {
                let mut uploaded = 0usize;
                loop {
                    let i = next.fetch_add(1, Ordering::AcqRel);
                    let Some(call) = plan.calls.get(i) else { return Ok(uploaded) };
                    let capture = materialize(call, opts)?;
                    let body = rtc_pcap::to_bytes(&capture.trace);
                    records.fetch_add(capture.trace.records.len(), Ordering::AcqRel);
                    let manifest = serde_json::to_string(&capture.manifest).map_err(std::io::Error::other)?;
                    drop(capture);
                    let path = format!("/ingest/{}/{}", call.tenant, call.call_id);
                    let (status, response) = http_post(addr, &path, &[("X-RTC-Manifest", &manifest)], &body)?;
                    if status != 200 {
                        return Err(std::io::Error::other(format!(
                            "ingest {} failed: HTTP {status}: {}",
                            call.call_id,
                            response.trim_end()
                        )));
                    }
                    uploaded += 1;
                }
            }));
        }
        let mut calls = 0usize;
        for h in handles {
            calls += h.join().expect("upload worker panicked")?;
        }
        Ok(DriveStats { calls, records: records.load(Ordering::Acquire) as u64, peak_live: workers })
    })?;
    Ok(stats)
}

/// One blocking HTTP POST; returns `(status, body)`.
pub fn http_post(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let mut head = format!("POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n", body.len());
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(stream)
}

/// One blocking HTTP GET; returns `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())?;
    stream.flush()?;
    read_response(stream)
}

fn read_response(stream: TcpStream) -> std::io::Result<(u16, String)> {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}
