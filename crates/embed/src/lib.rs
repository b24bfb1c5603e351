//! Semantic embedding substrate (paper §3.1, §7).
//!
//! Tiptoe treats the embedding model as a black box: any function that
//! maps semantically-similar content to vectors that are close in
//! inner-product distance works, and the paper uses off-the-shelf
//! pretrained transformers (`msmarco-distilbert-base-tas-b` for text,
//! CLIP for images). Since no pretrained transformer is available in
//! this environment, this crate provides the closest synthetic
//! equivalent that exercises the same code paths (see `DESIGN.md` §2):
//!
//! - [`text::TextEmbedder`] — a feature-hashing bag-of-words model
//!   with a seeded sparse random projection to a fixed dimension
//!   (768 by default, matching the paper's text model). Lexically and
//!   topically similar strings land near each other in inner-product
//!   space (Johnson–Lindenstrauss), which is the property every
//!   downstream component depends on.
//! - [`clip::ClipLikeEmbedder`] — a joint text/image space (512-d,
//!   matching CLIP) where "images" carry latent vectors derived from
//!   their captions. Text-to-image search exercises the identical
//!   ranking pipeline at a different dimension.
//! - [`pca::Pca`] — principal component analysis for dimensionality
//!   reduction (768→192 for text, 512→384 for images, §7), computed
//!   over a corpus subsample exactly as the paper's batch jobs do.
//! - [`quantize`] — the fixed-precision signed 4-bit quantization of
//!   Appendix B.1, bridging real vectors to `Z_p`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clip;
pub mod pca;
pub mod quantize;
pub mod text;
pub mod vector;

/// A function embedding text into a fixed-dimension vector space.
///
/// All Tiptoe components consume embeddings through this trait, so the
/// synthetic models here can be swapped for real transformer inference
/// without touching the rest of the system.
pub trait Embedder {
    /// Output dimension.
    fn dim(&self) -> usize;

    /// Embeds a text string into an L2-normalized vector.
    fn embed_text(&self, text: &str) -> Vec<f32>;

    /// Serialized model size in bytes (what a client must download;
    /// the paper's text model is 265 MiB).
    fn model_bytes(&self) -> u64;
}

impl<T: Embedder + ?Sized> Embedder for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn embed_text(&self, text: &str) -> Vec<f32> {
        (**self).embed_text(text)
    }

    fn model_bytes(&self) -> u64 {
        (**self).model_bytes()
    }
}
