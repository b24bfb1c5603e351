//! Tiptoe: private web search (SOSP 2023), reproduced in Rust.
//!
//! This crate assembles the full system of the paper on top of the
//! workspace's substrates:
//!
//! - [`config`] — deployment parameters (paper-faithful text/image
//!   presets and a scaled-down test preset).
//! - [`batch`] — the data-loading batch jobs of §3.2: embed, reduce
//!   (PCA), cluster, quantize, lay out the ranking matrix, batch and
//!   compress URLs, and preprocess all cryptographic hints.
//! - [`ranking`] — the private ranking service of §4: the sharded
//!   nearest-neighbor protocol over linearly homomorphic encryption.
//! - [`url`] — the URL service of §5: SimplePIR retrieval of
//!   compressed, content-grouped URL batches.
//! - [`client`] — the Tiptoe client: local embedding + cluster
//!   selection, token prefetch (§6.3), encrypted queries, decryption,
//!   and result assembly, with exact per-phase cost accounting.
//! - [`instance`] — a whole deployment (both services + the client
//!   bundle) built from a corpus in one call.
//! - [`serving`] — the serving plane: per-shard batch coalescers that
//!   let concurrently arriving queries share database scans (typed
//!   dispatch itself lives in `tiptoe-net`).
//! - [`analysis`] — the analytic cost models behind Table 6, Figure 8,
//!   and Figure 9 (Coeus scaling, client-side-index baselines, AWS
//!   prices, web-scale extrapolation, and the §9 non-colluding
//!   two-server traffic estimate).
//! - [`update`] — incremental corpus updates (§3.2) applied to the
//!   deployed instance the query path serves.
//!
//! # Quickstart
//!
//! ```no_run
//! use tiptoe_core::config::TiptoeConfig;
//! use tiptoe_core::instance::TiptoeInstance;
//! use tiptoe_corpus::synth::{generate, CorpusConfig};
//! use tiptoe_embed::text::TextEmbedder;
//!
//! let corpus = generate(&CorpusConfig::small(1000, 7), 0);
//! let embedder = TextEmbedder::new(128, 7, 0);
//! let config = TiptoeConfig::test_small(corpus.docs.len(), 42);
//! let mut instance = TiptoeInstance::build(&config, &embedder, &corpus);
//! let mut client = instance.new_client(1);
//! let results = client.search(&mut instance, "museum opening hours", 10);
//! for hit in &results.hits {
//!     println!("{} {}", hit.url, hit.score);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod client;
pub mod config;
pub mod instance;
pub mod ranking;
pub mod serving;
pub mod update;
pub mod url;
