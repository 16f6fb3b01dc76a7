//! Privacy Preserving Search (thesis Chapter 5).
//!
//! PPS lets an *untrusted* server match encrypted queries against encrypted
//! metadata without learning either. The user encrypts one metadata record
//! per file (keywords, size, modification date) and later submits encrypted
//! predicates; the server returns the matching records, which only the user
//! can decrypt. PPS is CPU- and disk-intensive — exactly the workload ROAR
//! parallelises in the thesis's Chapter 7 evaluation.
//!
//! Scheme implementations (§5.5):
//! * [`bloom_kw`] — Bloom-filter keyword matching (Goh), the one keyword
//!   scheme every attribute is matched with (§5.6.4).
//! * [`numeric`] — the reference-point grids of the thesis's inequality
//!   construction; [`metadata`] turns them into `size`/`date` words.
//! * [`pairs`] — two-keyword conjunctive queries via pair pre-combination
//!   (§5.5.2 "Beyond Single Keyword Queries").
//! * [`generic`] — arbitrary boolean-circuit queries via Yao garbled
//!   circuits (§5.5.5), the expressive-but-leaky end of the
//!   confidentiality-generality trade-off.
//!
//! System pieces (§5.6):
//! * [`metadata`] — per-file metadata encoding: all attributes stacked into
//!   a single keyword space (`kw=…`, `size=…`, `date=…`).
//! * [`store`] — the metadata store: a short list of immutable columnar
//!   runs, each sorted by id, so the window of a sub-query is one or two
//!   index ranges per run (used when ROAR splits a query across servers)
//!   and a write is an append.
//! * [`query`] — multi-predicate queries with dynamic predicate ordering
//!   (selectivity sampled over 225 records, §5.6.5), and **the** matching
//!   code: the record-at-a-time reference ([`query::Matcher::matches`])
//!   and the one survivor pipeline every batch path advances.
//!
//! The pipeline suspends wherever it needs MACs, and its two drivers
//! compute them on the spot, through the single-key lane sweep:
//! * [`query::Matcher::match_batch`] — one caller-supplied chunk;
//! * [`engine::match_corpus`] / [`QueryTask::run_inline`] — a whole corpus
//!   in fixed chunks (the sequential form and the benchmark's oracle).
//!
//! [`xbatch`]'s [`BatchEngine`] is the cluster node's matcher pool for
//! scans longer than one chunk: a fixed set of worker threads, each running
//! one [`QueryTask`] at a time over a zero-copy `Arc` snapshot of the
//! store's runs. A node runs a shorter scan inline where it serves it.
//!
//! Paper-figure apparatus:
//! * [`engine`] — the §5.6.3 producer/consumer engine (I/O thread feeding
//!   N matching threads through a bounded buffer, each calling
//!   `match_batch`) with the PPS_LM / PPS_LC fixed-cost profiles of §5.7.
//! * [`simdisk`] — a rate-limited byte source standing in for the 66 MB/s
//!   sequential disk of the paper's Dell 1950.
//! * [`bandwidth`] — the §5.3.1 analytic bandwidth model behind Fig 5.1.

pub mod bandwidth;
pub mod bloom_kw;
pub mod engine;
pub mod filtering;
pub mod generic;
pub mod metadata;
pub mod numeric;
pub mod pairs;
pub mod query;
pub mod simdisk;
pub mod store;
pub mod xbatch;

pub use engine::{Engine, EngineProfile, QueryOutcome};
pub use metadata::{EncryptedMetadata, FileMeta, MetaEncryptor};
pub use query::{CompiledQuery, Predicate, QueryCompiler};
pub use roar_crypto::sha1::Backend;
pub use store::MetadataStore;
pub use xbatch::{BatchEngine, QueryTask, TaskCorpus, TaskHandle, TaskResult};
