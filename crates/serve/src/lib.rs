//! `spotlight-serve`: the overload-safe HTTP query service over the
//! SpotLight store.
//!
//! The paper's information service answers availability, spike-rate,
//! bid-spread, and advisor queries for many tenants at once; this
//! crate is that serving layer, built std-only (no async runtime) so
//! the robustness properties are auditable:
//!
//! 1. **Admission** ([`admission`]) — a single acceptor thread admits
//!    a connection only while a permit (connection gauge) and a slot
//!    in the bounded dispatch queue are both available. Everything
//!    else is shed with a canned `503 + Retry-After` from a dedicated
//!    shedder thread whose own queue is bounded too; beyond that,
//!    sockets are dropped unanswered. No queue in the accept path
//!    grows without bound, so overload degrades throughput for the
//!    excess — never latency for the admitted.
//! 2. **Parse** ([`parser`]) — an incremental, allocation-free
//!    HTTP/1.1 head parser with hard caps (request line, header
//!    bytes/count, body) and a total header deadline enforced by the
//!    server clock; slow-loris clients get `408`, oversized input
//!    `413`/`414`/`431`, and malformed bytes `400` — never a panic.
//! 3. **Route** ([`router`]) — query endpoints answer from immutable
//!    [`spotlight_core::StoreSnapshot`]s published by ingest through a
//!    [`spotlight_core::SnapshotHub`]; the worker's cached `Arc` makes
//!    the hot path one atomic generation check. Health surfaces reach
//!    the live store through a `Weak` handle only.
//! 4. **Respond** ([`server`]) — a fixed worker pool serves
//!    keep-alive connections with pipelining (all buffered requests
//!    answered in one write). Each connection runs under
//!    `catch_unwind`; a handler panic burns that connection, bumps a
//!    counter, and releases its permit via RAII — the acceptor never
//!    wedges.
//! 5. **Drain** ([`server::Server::drain`]) — stop accepting, flip
//!    `/readyz` to `503`, finish in-flight work (or abandon it at the
//!    deadline), and hand the last strong store reference back to the
//!    caller so [`spotlight_core::DataStore::close`] yields a
//!    zero-replay restart.
//!
//! [`client`] is the matching blocking client used by the end-to-end
//! benchmark, the smoke harness, and the tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod parser;
mod readbuf;
pub mod router;
pub mod server;

pub use admission::{ServerStats, StatsSnapshot};
pub use client::{Client, Response};
pub use parser::Limits;
pub use router::{market_param, parse_market, ServiceState};
pub use server::{DrainReport, Server, ServerConfig};
