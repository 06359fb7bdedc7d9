//! # kgqan-server
//!
//! The network serving front-end: a hand-rolled HTTP/1.1 + SPARQL-protocol
//! server over `std::net` (the build environment is offline — no
//! hyper/tokio) that exposes a [`kgqan::QaService`] to real sockets with
//! explicit admission control.
//!
//! ## Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /kg/{name}/ask` | Answer a natural-language question against KG `name` (JSON in/out) |
//! | `POST /federate/ask` | Fan a question out to several KGs and merge the answers with provenance ([`kgqan_federate`]) |
//! | `GET/POST /kg/{name}/sparql` | Execute a SPARQL query (W3C SPARQL-JSON results; `SERVICE <kg:name>` joins across registered KGs) |
//! | `POST /kg/{name}/ingest` | Add N-Triples to KG `name`'s live store |
//! | `GET /kg` | Registered KGs with serving epoch and triple count |
//! | `GET /healthz` | Liveness + registered KG names |
//! | `GET /metrics` | Counters: per-route requests/errors/latency, per-KG requests, federation fan-out, queue depth, cache stats |
//!
//! ## Admission control
//!
//! Overload produces explicit signals instead of unbounded queueing, at
//! three decoupled layers (see [`server`] for the full picture):
//! acceptor → **bounded connection queue** (full → direct `503`) →
//! handler threads → per-client **token-bucket rate limits** (`429`) and
//! **queue-depth load shedding** (`503` + `Retry-After`) → the service's
//! bounded **worker pool**.  Per-request deadlines map onto the pipeline's
//! [`kgqan::Budget`], so a request that cannot finish in time degrades to
//! best-so-far answers flagged `"partial": true`.
//!
//! ```no_run
//! use kgqan::QaService;
//! use kgqan_server::{serve, ServerConfig};
//!
//! let service: QaService = /* build with endpoints */
//! #    QaService::builder().build().unwrap();
//! let mut handle = serve(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving on http://{}", handle.addr());
//! handle.shutdown(); // graceful: drains in-flight requests
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod http;
pub mod metrics;
pub mod server;
pub mod wire;

pub use admission::{RateLimit, RateLimiter, TokenBucket};
pub use client::{ClientResponse, HttpClient};
pub use http::{HttpError, Limits, Request, Response};
pub use metrics::{Metrics, Route};
pub use server::{serve, ServerConfig, ServerHandle};
