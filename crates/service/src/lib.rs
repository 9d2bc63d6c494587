//! # bdrst-service — litmus checking as a service
//!
//! PRs 1–3 made exploration pluggable, parallel, and recordable; this
//! crate makes it *servable*: litmus programs in the surface syntax go
//! in (over a socket or the `bdrst` CLI), verdicts come out, and every
//! repeated query is answered from a content-addressed cache without
//! running the transition semantics at all. Three layers:
//!
//! * **[`store`]** — the [`store::ResultStore`]: outcome sets, checker
//!   verdicts and recorded trace graphs keyed by the program's
//!   canonical fingerprint plus a semantics/config version tag; sharded
//!   in memory, optionally persisted in a hand-rolled versioned binary
//!   format ([`bdrst_core::wire`]). Corrupt, stale, or colliding entries
//!   fall back to recompute — never to a wrong verdict.
//! * **[`service`]** — the [`service::CheckService`]: the cache-first
//!   compute path (parse → fingerprint → lookup → on miss, explore once
//!   by DPOR through `Program::outcomes_with`, which holds no state
//!   graph, and run the axiomatic enumerator).
//! * **[`server`] / [`reactor`] / the `bdrst` binary** — a
//!   `std::net::TcpListener` service speaking newline-delimited JSON
//!   ([`json`], re-exported from `bdrst-obs`, which writes the logs
//!   and traces with the same type): a std-only readiness-loop reactor
//!   (nonblocking sockets, per-connection buffers — idle connections
//!   cost memory, not threads) feeding a bounded job queue and a worker pool, with
//!   atomic connection admission, per-connection token-bucket rate
//!   limiting, live counters ([`metrics`], served by the `metrics`
//!   command), and drain-then-close shutdown (every accepted request
//!   gets exactly one response line). The CLI (`check`, `corpus`,
//!   `races`, `serve`, `metrics`, `status`, `cache stats|clear`,
//!   `corpus-export`) makes programs checkable without recompiling
//!   anything.
//!
//! The whole crate is std-only, like the rest of the workspace.
//!
//! ## Example: checking a program through the cache, twice
//!
//! ```
//! use std::sync::Arc;
//! use bdrst_service::service::CheckService;
//! use bdrst_service::store::ResultStore;
//!
//! let service = CheckService::new(
//!     Arc::new(ResultStore::in_memory()),
//!     bdrst_litmus::RunConfig::default(),
//! );
//! let src = "nonatomic a; thread P0 { a = 1; } thread P1 { r0 = a; }";
//! let cold = service.check_source(src)?;
//! assert!(!cold.cached);
//! let warm = service.check_source(src)?;
//! assert!(warm.cached);
//! assert_eq!(cold.entry.op, warm.entry.op);
//! # Ok::<(), bdrst_litmus::RunError>(())
//! ```

#![forbid(unsafe_code)]

pub mod corpusdir;
pub use bdrst_obs::json;
pub mod metrics;
pub mod reactor;
pub mod server;
pub mod service;
pub mod store;

pub use bdrst_obs::json::Json;
pub use metrics::Metrics;
pub use server::{serve, ServeConfig, ServerHandle};
pub use service::{CheckService, Checked};
pub use store::{version_tag, CacheEntry, CacheKey, CacheStats, ResultStore, StoreConfig};
