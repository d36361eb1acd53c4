//! # nncell-server — the fault-tolerant serving layer
//!
//! A std-only HTTP/1.1 front end for the NN-cell index (no tokio, no
//! hyper, no serde — the build environment is offline). The transport
//! is deliberately boring; the point of this crate is *overload
//! behavior*:
//!
//! - **Admission control** — a bounded queue between `accept()` and the
//!   worker pool; when it fills, connections are shed immediately with
//!   `429` + `Retry-After` instead of growing an unbounded backlog.
//! - **Keep-alive that yields** — a worker keeps an HTTP/1.1 connection
//!   after a 2xx and serves its next request without a new handshake,
//!   but closes it while idle as soon as another connection is queued.
//! - **Deadlines** — every request carries a budget from the moment it
//!   is admitted (from its first byte on a kept-alive connection);
//!   socket reads, queue wait, and the candidate search inside the
//!   engine all count against it, and exhaustion answers
//!   `503 deadline_exceeded`.
//! - **Panic isolation** — handlers run under `catch_unwind`; a
//!   poisoned request answers `500` and the pool survives.
//! - **Graceful shutdown** — SIGTERM/SIGINT (or `POST /admin/shutdown`)
//!   stops accepting, drains admitted requests, writes a final WAL
//!   checkpoint, and returns from [`Server::run`].
//!
//! ## Endpoints
//!
//! | Route | Method | Body | Answer |
//! |---|---|---|---|
//! | `/query` | POST | `{"point": [..], "k": n}` | `{"results": [{"id","dist"}..], "stats": {..}}` |
//! | `/batch` | POST | `{"queries": [..]}` | per-query results or errors |
//! | `/insert` | POST | `{"point": [..]}` | `{"id": n}` |
//! | `/remove` | POST | `{"id": n}` | `{"removed": bool}` |
//! | `/metrics` | GET | — | Prometheus text exposition |
//! | `/healthz` | GET | — | liveness |
//! | `/readyz` | GET | — | readiness (503 while draining) |
//! | `/admin/shutdown` | POST | — | begins graceful drain |
//!
//! [`client::Client`] is the matching std-only blocking client with
//! retry + exponential backoff on `429`/`503`, used by the E2E tests
//! and the CLI's `stats --server` view.

#![warn(clippy::unwrap_used)]

pub mod client;
pub mod http;
pub mod json;
pub mod server;

pub use client::{Client, ClientError, Response};
pub use server::{
    describe_http_metrics, install_signal_handlers, signal_received, ServeIndex, Server,
    ServerConfig, ServerHandle,
};
