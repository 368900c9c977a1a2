//! `qimap serve` — the long-running mapping service.
//!
//! The server speaks newline-delimited JSON over TCP and a minimal REST
//! front (`POST /rpc`, `GET /metrics`) on the same port. Mappings are
//! loaded once into a session [`registry::Registry`] (parse + lint +
//! analyze paid at load time) and then served to any number of
//! concurrent clients. Every request carries its own
//! [`qi_exec::ExecConfig`] — thread count, planner mode, resource
//! budget — and nothing a request configures can leak into another
//! session: there is no process-wide execution state. A request's
//! thread count runs at most the CPU count.
//!
//! Outputs are produced by the same `*_loaded` handlers the one-shot
//! CLI uses, so a served response's `output` field is byte-identical to
//! the corresponding `qimap` invocation.

pub mod json;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;

pub use registry::Registry;
pub use server::{start, Server};
