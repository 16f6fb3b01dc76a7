//! Workloads for the ROAR evaluation: synthetic file corpora, query
//! streams, heterogeneous server fleets and diurnal load patterns.
//!
//! The thesis evaluates on the author's home directory (50k–2M files), four
//! server models (Table 7.1) and data-center load traces with 2–4× diurnal
//! swings (§4.9.1). None of those artifacts are available, so this crate
//! generates the closest synthetic equivalents; every generator is seeded
//! and deterministic so the numbers `repro` reports are reproducible.
//!
//! Two load-side entry points matter for capacity work:
//!
//! * [`DiurnalPattern`] — the §4.9.1 rate **envelope** (sinusoidal
//!   day/night swing plus flash-crowd surges);
//! * [`OpenLoopGen`] — a seeded **open-loop** Poisson arrival process
//!   thinned to that envelope, with Zipf query popularity. Open-loop means
//!   arrivals do not wait for completions, so driving it past the cluster's
//!   capacity exposes the latency–throughput knee that closed-loop clients
//!   structurally cannot reach (`repro bench_capacity`).
//!
//! # Examples
//!
//! ```
//! use roar_workload::{DiurnalPattern, OpenLoopGen};
//!
//! // a compressed "day": mean 100 q/s, 4x peak-to-trough, 60 s period,
//! // with a 3x flash crowd in its second half-minute
//! let day = DiurnalPattern::new(100.0, 4.0, 60.0).with_surge(30.0, 40.0, 3.0);
//! assert!((day.peak() / day.trough() - 4.0).abs() < 1e-9);
//!
//! // the open-loop arrival schedule for that day, reproducible by seed
//! let arrivals = OpenLoopGen::new(day, 42).popularity(500, 0.99).schedule(60.0);
//! assert!(arrivals.windows(2).all(|w| w[0].at_s <= w[1].at_s));
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod fleet;
pub mod load;
pub mod openloop;
pub mod queries;

pub use corpus::{fast_random_metadata, fast_random_metadata_with, CorpusGenerator};
pub use fleet::{Fleet, ServerModel};
pub use load::DiurnalPattern;
pub use openloop::{Arrival, OpenLoopGen};
pub use queries::QueryGenerator;
