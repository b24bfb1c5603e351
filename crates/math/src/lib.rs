//! Mathematical substrate for the Tiptoe private-search system.
//!
//! This crate provides the low-level building blocks shared by every
//! cryptographic and machine-learning component in the workspace:
//!
//! - [`zq`]: arithmetic over `Z_q` for power-of-two moduli (`q = 2^32`,
//!   `q = 2^64`), where the hardware wrap-around *is* the reduction.
//! - [`modp`]: arithmetic over `Z_Q` for odd prime moduli, used by the
//!   ring-LWE outer encryption scheme.
//! - [`ntt`]: negacyclic number-theoretic transforms over NTT-friendly
//!   primes `Q ≡ 1 (mod 2N)`.
//! - [`poly`]: elements of the quotient ring `R_Q = Z_Q[x]/(x^N + 1)`.
//! - [`matrix`]: dense row-major matrices and `scan` — the one tiled,
//!   batched, row-parallel matrix-vector kernel that dominates
//!   Tiptoe's server cost.
//! - [`par`]: the scoped-thread span helper behind the kernels'
//!   row split (`0 = one thread per core`, `TIPTOE_THREADS` override).
//! - [`simd`]: runtime-dispatched AVX2/AVX-512 vector kernels behind
//!   the scan/preproc hot loops, with a portable scalar fallback
//!   and a `TIPTOE_FORCE_SCALAR` pin for testing both dispatch paths.
//! - [`sample`]: lattice noise distributions (rounded discrete
//!   Gaussians, ternary secrets) over a seeded PRG.
//! - [`fixed`]: the fixed-precision real-to-`Z_p` embedding encoding of
//!   the paper's Appendix B.1.
//! - [`rng`]: deterministic seed derivation so every experiment in the
//!   workspace is reproducible.
//! - [`stats`]: small statistics helpers used by the benchmark harness.
//! - [`wire`]: checked byte-level encoders/decoders backing every
//!   protocol message's verifiable `byte_len()`.
//!
//! Everything here is written against the public API of the paper
//! "Private Web Search with Tiptoe" (SOSP 2023); see the workspace
//! `DESIGN.md` for the full inventory.

// Unsafe is denied crate-wide and re-allowed only for the [`simd`]
// module, which holds every `unsafe` block in the workspace behind
// documented safety contracts (see `DESIGN.md` §15).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod fixed;
pub mod matrix;
pub mod modp;
pub mod ntt;
pub mod par;
pub mod poly;
pub mod rng;
pub mod sample;
#[allow(unsafe_code)]
pub mod simd;
pub mod stats;
pub mod wire;
pub mod zq;

pub use matrix::Mat;
pub use poly::Poly;
