//! The serving loop: acceptor → bounded connection queue → handler
//! threads → the service's pipeline worker pool.
//!
//! Admission control is decoupled from pipeline execution at every layer,
//! so overload degrades with explicit signals instead of unbounded
//! queueing:
//!
//! 1. The **acceptor** thread accepts sockets and pushes them onto a
//!    *bounded* connection queue.  A full queue answers `503` directly on
//!    the fresh socket and closes it — the server never accumulates
//!    connections it cannot serve.
//! 2. **Handler** threads pop connections, parse requests (keep-alive,
//!    with byte limits from [`Limits`]), and apply per-client
//!    [`RateLimit`]s (`429 Too Many Requests`) plus a queue-depth load
//!    shed: when the pipeline backlog reaches
//!    [`ServerConfig::shed_queue_depth`], ask requests are refused with
//!    `503` + `Retry-After` instead of being enqueued.
//! 3. Admitted ask requests go through [`QaService::try_enqueue`] onto the
//!    service's bounded **worker pool** — the handler blocks on the
//!    ticket, the pipeline workers do the answering.  A full pool queue is
//!    one more `503`.  Per-request deadlines ride the existing
//!    [`Budget`](kgqan::Budget) machinery: a request that cannot finish in
//!    time returns best-so-far answers flagged `"partial": true` rather
//!    than missing its deadline entirely.
//!
//! [`ServerHandle::shutdown`] stops the acceptor, drains queued
//! connections, lets in-flight requests finish, and joins every thread.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kgqan::{QaService, SubmitError};
use kgqan_federate::FederatedEndpoint;
use kgqan_rdf::IngestBatch;

use crate::admission::{RateLimit, RateLimiter};
use crate::http::{read_request, Limits, Request, Response};
use crate::metrics::{Metrics, Route};
use crate::wire;

/// Stack of each connection-handler thread.  The SPARQL route parses,
/// plans and runs queries on it, all recursing once per nesting level, and
/// the parser accepts up to [`kgqan_sparql::parser::MAX_NESTING`] levels —
/// more than a default 2 MiB thread stack holds.  Pages are committed only
/// when touched, so ordinary requests pay nothing for the headroom.
const HANDLER_STACK_BYTES: usize = 16 << 20;

/// Everything tunable about the serving loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler threads (each serves one connection at a time).
    pub handler_threads: usize,
    /// Bound of the accepted-connection queue; beyond it the acceptor
    /// answers `503` directly.
    pub conn_queue_bound: usize,
    /// Pipeline-backlog threshold at which ask requests are shed with
    /// `503`.  Compared against [`QaService::queue_depth`], so it only
    /// bites on services built with a worker pool.
    pub shed_queue_depth: usize,
    /// Per-client rate limit; `None` disables the limiter.
    pub rate_limit: Option<RateLimit>,
    /// Request size limits.
    pub limits: Limits,
    /// Deadline applied to ask requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Socket read timeout: bounds how long an idle keep-alive connection
    /// may hold a handler thread, and therefore how long shutdown can
    /// take.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            handler_threads: 4,
            conn_queue_bound: 64,
            shed_queue_depth: 32,
            rate_limit: None,
            limits: Limits::default(),
            default_deadline: None,
            idle_timeout: Duration::from_secs(2),
        }
    }
}

/// The running server: owns the acceptor and handler threads.
///
/// Dropping the handle shuts the server down gracefully (equivalent to
/// calling [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

struct Shared {
    service: QaService,
    /// The federation layer over the same service (the service is a cheap
    /// `Arc` clone, so both views share registry, cache, and worker pool).
    federated: FederatedEndpoint,
    config: ServerConfig,
    metrics: Metrics,
    limiter: Option<RateLimiter>,
    shutting_down: AtomicBool,
}

/// Bind a listener and start serving `service` on it.
///
/// `addr` is anything [`ToSocketAddrs`] accepts; `127.0.0.1:0` picks an
/// ephemeral port, reported by [`ServerHandle::addr`].
pub fn serve(
    service: QaService,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        limiter: config.rate_limit.map(RateLimiter::new),
        federated: FederatedEndpoint::new(service.clone()),
        service,
        config,
        metrics: Metrics::new(),
        shutting_down: AtomicBool::new(false),
    });

    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(shared.config.conn_queue_bound);
    let rx = Arc::new(Mutex::new(rx));

    let mut handlers = Vec::with_capacity(shared.config.handler_threads);
    for i in 0..shared.config.handler_threads.max(1) {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&rx);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("kgqan-http-{i}"))
                .stack_size(HANDLER_STACK_BYTES)
                .spawn(move || handler_loop(&shared, &rx))
                .expect("spawn handler thread"),
        );
    }

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("kgqan-http-acceptor".into())
            .spawn(move || acceptor_loop(&shared, &listener, &tx))
            .expect("spawn acceptor thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        handlers,
    })
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The service this server fronts.
    pub fn service(&self) -> &QaService {
        &self.shared.service
    }

    /// Stop accepting, drain queued connections, finish in-flight
    /// requests, and join every thread.  Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The acceptor is blocked in accept(); a throw-away connection
        // wakes it so it can observe the flag and exit, dropping the
        // sender half of the connection queue.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // With the sender dropped, handlers drain what is queued, finish
        // their current connection (bounded by the idle timeout) and see
        // the channel disconnect.
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            // Listener-level failure: transient resource exhaustion.
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Connection queue full: answer 503 on the socket directly
                // instead of queueing unboundedly.
                shared
                    .metrics
                    .connections_refused
                    .fetch_add(1, Ordering::Relaxed);
                let response = Response::json(
                    503,
                    wire::error_body(503, "server connection queue is full"),
                )
                .with_header("retry-after", "1");
                let _ = response.write_to(&mut stream, false);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn handler_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the lock only for the recv: handlers must not serialise on
        // each other while serving connections.
        let received = {
            let rx = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            rx.recv()
        };
        let Ok(stream) = received else {
            return; // Channel closed: shutdown.
        };
        handle_connection(shared, stream);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let _ = stream.set_nodelay(true);
    let peer_ip = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    loop {
        let request = match read_request(&mut reader, &shared.config.limits) {
            Ok(Some(request)) => request,
            Ok(None) => return, // Peer closed an idle connection.
            Err(e) => {
                // Timeouts and socket errors get no response (there may be
                // a half-read request on the wire); protocol errors get
                // their status and close the connection, since framing is
                // lost.
                let status = e.status();
                if status != 0 {
                    let response = Response::json(status, wire::error_body(status, &e.to_string()));
                    let _ = response.write_to(&mut writer, false);
                    shared.metrics.record(Route::Other, status, Duration::ZERO);
                }
                return;
            }
        };

        let started = Instant::now();
        let keep_alive = request.keep_alive() && !shared.shutting_down.load(Ordering::SeqCst);
        let (route, response) = respond(shared, &request, &peer_ip);
        shared
            .metrics
            .record(route, response.status, started.elapsed());
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Route and answer one request.  Never panics: every failure maps to a
/// status code.
fn respond(shared: &Shared, request: &Request, peer_ip: &str) -> (Route, Response) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (Route::Healthz, healthz(shared)),
        ("GET", ["metrics"]) => (Route::Metrics, metrics_page(shared)),
        (_, ["healthz"]) | (_, ["metrics"]) => (
            if segments == ["healthz"] {
                Route::Healthz
            } else {
                Route::Metrics
            },
            method_not_allowed("GET"),
        ),
        ("GET", ["kg"]) => (Route::KgList, kg_list(shared)),
        (_, ["kg"]) => (Route::KgList, method_not_allowed("GET")),
        ("POST", ["federate", "ask"]) => {
            if let Some(response) = rate_limit(shared, request, peer_ip) {
                return (Route::Federate, response);
            }
            (Route::Federate, federate_ask(shared, request))
        }
        (_, ["federate", "ask"]) => (Route::Federate, method_not_allowed("POST")),
        (method, ["kg", kg, action @ ("ask" | "sparql" | "ingest")]) => {
            let route = match *action {
                "ask" => Route::Ask,
                "sparql" => Route::Sparql,
                _ => Route::Ingest,
            };
            // Per-client admission first: a rate-limited client must not
            // consume pipeline capacity.
            if let Some(response) = rate_limit(shared, request, peer_ip) {
                return (route, response);
            }
            shared.metrics.record_kg(kg);
            let response = match (method, *action) {
                ("POST", "ask") => ask(shared, request, kg),
                ("GET" | "POST", "sparql") => sparql(shared, request, kg),
                ("POST", "ingest") => ingest(shared, request, kg),
                (_, "sparql") => method_not_allowed("GET, POST"),
                _ => method_not_allowed("POST"),
            };
            (route, response)
        }
        _ => (
            Route::Other,
            Response::json(
                404,
                wire::error_body(404, &format!("no route for {}", request.path)),
            ),
        ),
    }
}

fn method_not_allowed(allow: &str) -> Response {
    Response::json(405, wire::error_body(405, "method not allowed")).with_header("allow", allow)
}

/// Per-client admission: `Some(429)` when the client is over its limit.
/// Checked before any pipeline work so a rate-limited client cannot
/// consume answering capacity.
fn rate_limit(shared: &Shared, request: &Request, peer_ip: &str) -> Option<Response> {
    let limiter = shared.limiter.as_ref()?;
    let client = request.header("x-client-id").unwrap_or(peer_ip);
    let wait = limiter.check(client).err()?;
    shared.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
    Some(
        Response::json(
            429,
            wire::error_body(429, &format!("client {client} is over its rate limit")),
        )
        .with_header("retry-after", format!("{}", wait.as_secs().max(1))),
    )
}

fn healthz(shared: &Shared) -> Response {
    let mut body = String::from("{\"status\":\"ok\",\"kgs\":[");
    for (i, name) in shared.service.kg_names().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        kgqan_endpoint::json::write_json_string(&mut body, name);
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn metrics_page(shared: &Shared) -> Response {
    let mut text = shared.metrics.render();
    text.push_str(&format!(
        "pipeline_queue_depth {}\n",
        shared.service.queue_depth()
    ));
    if let Some(stats) = shared.service.pool_stats() {
        text.push_str(&format!("pipeline_workers {}\n", stats.workers));
        text.push_str(&format!("pipeline_running {}\n", stats.running));
        text.push_str(&format!("pipeline_completed_total {}\n", stats.completed));
        text.push_str(&format!("pipeline_rejected_total {}\n", stats.rejected));
    }
    for (kg, stats) in &shared.service.cache_report().per_kg {
        text.push_str(&format!("cache_hits_total{{kg={kg}}} {}\n", stats.hits));
        text.push_str(&format!("cache_misses_total{{kg={kg}}} {}\n", stats.misses));
    }
    Response::text(200, text)
}

fn kg_list(shared: &Shared) -> Response {
    Response::json(
        200,
        wire::kg_list_to_json(&shared.service.registry().describe()),
    )
}

fn federate_ask(shared: &Shared, request: &Request) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return Response::json(400, wire::error_body(400, "request body is not UTF-8")),
    };
    let mut federated_request = match wire::parse_federate_request(body) {
        Ok(r) => r,
        Err(message) => return Response::json(400, wire::error_body(400, &message)),
    };
    if federated_request.deadline.is_none() {
        federated_request.deadline = shared.config.default_deadline;
    }

    // Same pipeline-backlog shed as single-KG asks: a federated request is
    // several pipeline runs, so it is the first thing to turn away under
    // load.
    if shared.service.worker_pool().is_some()
        && shared.service.queue_depth() >= shared.config.shed_queue_depth
    {
        shared.metrics.load_shed.fetch_add(1, Ordering::Relaxed);
        return Response::json(
            503,
            wire::error_body(503, "pipeline queue is over the shed threshold"),
        )
        .with_header("retry-after", "1");
    }

    match shared.federated.ask(federated_request) {
        Ok(response) => {
            shared
                .metrics
                .federated_fanout
                .fetch_add(response.reports.len() as u64, Ordering::Relaxed);
            if response.is_partial() {
                shared
                    .metrics
                    .federated_partial
                    .fetch_add(1, Ordering::Relaxed);
            }
            for report in &response.reports {
                shared.metrics.record_kg(&report.kg);
            }
            Response::json(200, wire::federated_response_to_json(&response))
        }
        Err(e) => {
            let status = e.http_status();
            Response::json(status, wire::error_body(status, &e.to_string()))
        }
    }
}

fn ask(shared: &Shared, request: &Request, kg: &str) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return Response::json(400, wire::error_body(400, "request body is not UTF-8")),
    };
    let mut answer_request = match wire::parse_ask_request(body, kg) {
        Ok(r) => r,
        Err(message) => return Response::json(400, wire::error_body(400, &message)),
    };
    if answer_request.deadline.is_none() {
        answer_request.deadline = shared.config.default_deadline;
    }

    // Load shed against the *pipeline* backlog, not the socket backlog:
    // accepted-but-unanswerable work is what melts latency.
    if shared.service.worker_pool().is_some()
        && shared.service.queue_depth() >= shared.config.shed_queue_depth
    {
        shared.metrics.load_shed.fetch_add(1, Ordering::Relaxed);
        return Response::json(
            503,
            wire::error_body(503, "pipeline queue is over the shed threshold"),
        )
        .with_header("retry-after", "1");
    }

    let result = if shared.service.worker_pool().is_some() {
        match shared.service.try_enqueue(answer_request) {
            Ok(ticket) => match ticket.wait() {
                Some(result) => result,
                None => {
                    return Response::json(
                        500,
                        wire::error_body(500, "pipeline worker was lost while answering"),
                    )
                }
            },
            Err(SubmitError::QueueFull { bound }) => {
                shared.metrics.load_shed.fetch_add(1, Ordering::Relaxed);
                return Response::json(
                    503,
                    wire::error_body(503, &format!("pipeline queue is full (bound {bound})")),
                )
                .with_header("retry-after", "1");
            }
            Err(SubmitError::ShuttingDown) => {
                return Response::json(503, wire::error_body(503, "service is shutting down"))
                    .with_header("retry-after", "1");
            }
        }
    } else {
        // No worker pool: answer on the handler thread.  Admission is then
        // only connection-level, which is fine for small deployments.
        shared.service.answer(answer_request)
    };

    match result {
        Ok(response) => Response::json(200, wire::answer_response_to_json(&response)),
        Err(e) => {
            let status = e.http_status();
            Response::json(status, wire::error_body(status, &e.to_string()))
        }
    }
}

fn sparql(shared: &Shared, request: &Request, kg: &str) -> Response {
    let query = if request.method == "GET" {
        request.query_param("query")
    } else {
        let body = String::from_utf8_lossy(&request.body).into_owned();
        let content_type = request.header("content-type").unwrap_or("");
        if content_type.starts_with("application/x-www-form-urlencoded") {
            // Re-use the query-string parser on the form body.
            Request {
                query: body,
                ..request.clone()
            }
            .query_param("query")
        } else {
            Some(body).filter(|b| !b.trim().is_empty())
        }
    };
    let Some(query) = query else {
        return Response::json(
            400,
            wire::error_body(400, "missing SPARQL query (use ?query= or a request body)"),
        );
    };
    let endpoint = match shared.service.registry().get(kg) {
        Ok(endpoint) => endpoint,
        Err(e) => {
            let status = e.http_status();
            return Response::json(status, wire::error_body(status, &e.to_string()));
        }
    };
    let parsed = match kgqan_sparql::parse_query(&query) {
        Ok(parsed) => parsed,
        Err(e) => return Response::json(400, wire::error_body(400, &e.to_string())),
    };
    let explain = request
        .query_param("explain")
        .is_some_and(|v| v != "0" && v != "false");
    // SERVICE groups join against other registered KGs, so they (and
    // explain requests, which need the traced plan) go through the
    // federated entry point with the registry as the resolver.
    if explain || !parsed.pattern.service_targets().is_empty() {
        match endpoint.query_federated(&parsed, shared.service.registry()) {
            Ok(traced) if explain => Response::json(200, wire::traced_query_to_json(&traced)),
            Ok(traced) => Response::json(200, wire::query_results_to_json(&traced.results)),
            Err(e) => {
                let status = e.http_status();
                Response::json(status, wire::error_body(status, &e.to_string()))
            }
        }
    } else {
        match endpoint.query_parsed(&parsed) {
            Ok(results) => Response::json(200, wire::query_results_to_json(&results)),
            Err(e) => {
                let status = e.http_status();
                Response::json(status, wire::error_body(status, &e.to_string()))
            }
        }
    }
}

fn ingest(shared: &Shared, request: &Request, kg: &str) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return Response::json(400, wire::error_body(400, "request body is not UTF-8")),
    };
    let triples = match kgqan_rdf::parse_ntriples(body) {
        Ok(triples) => triples,
        Err(e) => return Response::json(400, wire::error_body(400, &e.to_string())),
    };
    match shared.service.ingest(kg, IngestBatch::from(triples)) {
        Ok(report) => Response::json(200, wire::ingest_report_to_json(&report)),
        Err(e) => {
            let status = e.http_status();
            Response::json(status, wire::error_body(status, &e.to_string()))
        }
    }
}
