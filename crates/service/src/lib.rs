//! # rtc-service
//!
//! The multi-tenant live-analysis service: a long-running session engine
//! that ingests many interleaved call captures concurrently and produces
//! the same per-tenant reports the offline study drivers would — byte for
//! byte.
//!
//! Architecture (see DESIGN.md "Live service" for the full argument):
//!
//! * **Sharded session table** ([`engine`]) — sessions are keyed by
//!   `(tenant, call-id)` and pinned to one of N shards by a stable hash;
//!   each shard owns its [`rtc_core::pipeline::CallSession`]s and
//!   processes them on one thread, so per-session processing is
//!   single-threaded and deterministic no matter how ingest is scheduled.
//! * **Bounded queues with backpressure** — every shard's ingest queue is
//!   a `std::sync::mpsc::sync_channel`, a bounded blocking MPSC; a slow
//!   shard stalls exactly the sources feeding it (through to TCP flow
//!   control on the HTTP path), never buffering unboundedly.
//! * **Bounded per-session memory** — sessions are the PR-3 streaming
//!   pipeline: the online filter drops non-RTC traffic as it is proven
//!   uninteresting, so a session retains O(live streams + one call's RTC
//!   traffic).
//! * **Idle eviction via `finish()`** — sessions with no ingest activity
//!   past the configured timeout are finished, not discarded: their
//!   partial traffic still reaches the tenant's report. Each shard worker
//!   sweeps its own sessions from a timed receive; there is no sweeper
//!   thread.
//! * **Per-tenant incremental aggregation** — finished sessions fold into
//!   per-shard per-tenant [`rtc_core::StudyFold`]s; a report read merges
//!   the asked-for tenant's shard folds (order-invariant) and seals them,
//!   which puts the calls in canonical order: that is what makes live
//!   output comparable byte for byte with offline batch analysis.
//! * **HTTP surface** ([`server`]) — `POST /ingest`, Prometheus/JSON
//!   scrape routes, live per-tenant reports, graceful `POST /shutdown`;
//!   [`signal`] wires SIGINT/SIGTERM to the same graceful path.
//! * **Fleet driver** ([`fleet`]) — materializes an
//!   [`rtc_netemu::fleet::FleetPlan`] lazily and pumps hundreds–thousands
//!   of staggered calls through the engine (in-process, deterministic
//!   virtual time) or over HTTP ([`server::drive_fleet_http`]).
//!
//! The concurrency substrate is plain threads + std's bounded channels
//! rather than an async runtime: the vendored offline toolchain ships no
//! executor, and nothing here needs one — the design is executor-agnostic
//! (each shard is a serial event loop over an ingest queue; swap the
//! queue and the spawn call to port it onto any runtime).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod fleet;
pub mod server;
// The SIGINT handler needs one `signal(2)` FFI declaration; see the
// module header for the safety argument.
#[allow(unsafe_code)]
pub mod signal;

pub use engine::{Engine, EngineStatus, ServiceConfig, ServiceSummary, SessionError, SessionKey};
pub use fleet::{batch_reports, drive_fleet, DriveStats, FleetDriveOptions};
pub use server::{drive_fleet_http, http_get, http_post, serve, ServiceFlags};
