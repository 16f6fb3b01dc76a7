//! Statistics, random samplers and reporting substrate shared by every crate
//! in the ROAR workspace.
//!
//! The ROAR paper's evaluation is built on a small set of numerical tools:
//! long-run delay averages and percentiles (§6.1), exponentially weighted
//! moving averages for server speed estimation (§4.8), a linear fit used to
//! detect exploding queues in the simulator (§6.1 "Simulator"), and Poisson /
//! exponential / Zipf samplers for query arrivals and keyword popularity.
//! This crate implements all of them with no external dependencies beyond
//! `rand`.

#![forbid(unsafe_code)]

pub mod ewma;
pub mod json;
pub mod linreg;
pub mod report;
pub mod rng;
pub mod sample;
pub mod stats;

pub use ewma::Ewma;
pub use json::Json;
pub use linreg::LinearFit;
pub use report::{Report, Table};
pub use rng::det_rng;
pub use sample::{Exponential, Poisson, Zipf};
pub use stats::{mean, percentile, stddev, Summary};
