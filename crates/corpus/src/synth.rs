//! Synthetic web-corpus and benchmark generation (stands in for C4 and
//! MS MARCO; see `DESIGN.md` §2).
//!
//! Documents come from a topic model: a Zipf-distributed vocabulary, a
//! set of topics each boosting its own word subset, documents drawn
//! from one or two topics with power-law lengths, and a generated URL.
//! Benchmark queries are built MS-MARCO-style: a held-out query is a
//! short, noisy extract of a specific document's salient words, and
//! that document is the query's human-chosen answer.

use rand::seq::SliceRandom;
use rand::Rng;
use tiptoe_math::rng::{derive_seed, seeded_rng};

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of documents.
    pub num_docs: usize,
    /// Number of topics.
    pub num_topics: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Words per topic's boosted subset.
    pub topic_vocab: usize,
    /// Document length bounds (tokens).
    pub min_len: usize,
    /// Maximum document length (tokens).
    pub max_len: usize,
    /// Fraction of query tokens replaced by other words from the
    /// answer document's topic ("paraphrase" noise). Real MS MARCO
    /// queries rephrase rather than quote their answers; lexical
    /// retrievers degrade with this noise while embedding retrievers
    /// (topic-sensitive) largely keep up.
    pub paraphrase_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CorpusConfig {
    /// A small default suitable for tests and examples.
    pub fn small(num_docs: usize, seed: u64) -> Self {
        Self {
            num_docs,
            num_topics: (num_docs / 40).clamp(4, 400),
            vocab_size: 8000,
            topic_vocab: 60,
            min_len: 30,
            max_len: 160,
            paraphrase_frac: 0.35,
            seed,
        }
    }
}

/// A synthetic web document.
#[derive(Debug, Clone)]
pub struct Document {
    /// Document identifier (index in the corpus).
    pub id: u32,
    /// The page URL (the metadata Tiptoe's URL service serves).
    pub url: String,
    /// Page text.
    pub text: String,
    /// Ground-truth topic (used only by diagnostics, never by search).
    pub topic: u32,
}

/// A benchmark query with its human-chosen answer document.
#[derive(Debug, Clone)]
pub struct BenchmarkQuery {
    /// The query string.
    pub text: String,
    /// The relevant (answer) document ID.
    pub relevant: u32,
}

/// A generated corpus plus its query benchmark.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All documents.
    pub docs: Vec<Document>,
    /// Held-out benchmark queries.
    pub queries: Vec<BenchmarkQuery>,
}

impl Corpus {
    /// Total bytes of document text (for cost reporting).
    pub fn text_bytes(&self) -> u64 {
        self.docs.iter().map(|d| d.text.len() as u64).sum()
    }

    /// Document texts as a slice-friendly vector.
    pub fn texts(&self) -> Vec<&str> {
        self.docs.iter().map(|d| d.text.as_str()).collect()
    }

    /// Document URLs.
    pub fn urls(&self) -> Vec<&str> {
        self.docs.iter().map(|d| d.url.as_str()).collect()
    }
}

/// Deterministic word list: `w<k>` tokens plus a few readable stems so
/// sampled text looks web-like.
fn word(vocab_size: usize, k: usize) -> String {
    const STEMS: [&str; 24] = [
        "health", "market", "travel", "recipe", "engine", "school", "museum", "climate",
        "finance", "garden", "soccer", "galaxy", "doctor", "camera", "island", "theater",
        "history", "coding", "music", "forest", "planet", "archive", "kitchen", "bridge",
    ];
    if k < STEMS.len() {
        STEMS[k].to_owned()
    } else {
        format!("w{}", k % vocab_size)
    }
}

/// Generates a corpus and benchmark from a configuration.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero docs/topics/vocab).
pub fn generate(config: &CorpusConfig, num_queries: usize) -> Corpus {
    assert!(config.num_docs > 0 && config.num_topics > 0 && config.vocab_size > 0);
    assert!(config.min_len >= 3 && config.max_len >= config.min_len);
    let mut rng = seeded_rng(derive_seed(config.seed, 0xc0_1d));

    // Zipf weights over the global vocabulary.
    let zipf: Vec<f64> = (0..config.vocab_size).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let zipf_total: f64 = zipf.iter().sum();

    // Each topic boosts a random word subset.
    let topics: Vec<Vec<usize>> = (0..config.num_topics)
        .map(|_| {
            let mut words: Vec<usize> = (0..config.vocab_size).collect();
            words.shuffle(&mut rng);
            words.truncate(config.topic_vocab);
            words
        })
        .collect();

    let domains = [
        "example.com", "wikihow.net", "newsdaily.org", "stackhelp.io", "medinfo.health",
        "travelog.net", "opencourse.edu", "recipes.kitchen", "cityguide.org", "devdocs.dev",
    ];

    let sample_global = |rng: &mut rand::rngs::StdRng| -> usize {
        let mut t = rng.gen_range(0.0..zipf_total);
        for (k, &w) in zipf.iter().enumerate() {
            if t < w {
                return k;
            }
            t -= w;
        }
        config.vocab_size - 1
    };

    let mut docs = Vec::with_capacity(config.num_docs);
    for id in 0..config.num_docs {
        let topic = rng.gen_range(0..config.num_topics);
        let second_topic =
            if rng.gen_bool(0.3) { Some(rng.gen_range(0..config.num_topics)) } else { None };
        // Power-law length.
        let u: f64 = rng.gen_range(0.0..1.0);
        let len = config.min_len
            + ((config.max_len - config.min_len) as f64 * u * u) as usize;
        let mut tokens = Vec::with_capacity(len);
        for _ in 0..len {
            let r: f64 = rng.gen_range(0.0..1.0);
            let k = if r < 0.55 {
                topics[topic][rng.gen_range(0..config.topic_vocab)]
            } else if r < 0.65 {
                if let Some(t2) = second_topic {
                    topics[t2][rng.gen_range(0..config.topic_vocab)]
                } else {
                    sample_global(&mut rng)
                }
            } else {
                sample_global(&mut rng)
            };
            tokens.push(word(config.vocab_size, k));
        }
        let text = tokens.join(" ");
        let slug: Vec<&str> = tokens.iter().take(4).map(String::as_str).collect();
        let url = format!(
            "https://www.{}/{}/{}-{}",
            domains[id % domains.len()],
            topic,
            slug.join("-"),
            id
        );
        docs.push(Document { id: id as u32, url, text, topic: topic as u32 });
    }

    // Benchmark queries: salient extracts of random documents with noise.
    let mut qrng = seeded_rng(derive_seed(config.seed, 0x9e_e1));
    let mut queries = Vec::with_capacity(num_queries);
    for _ in 0..num_queries {
        let doc = &docs[qrng.gen_range(0..docs.len())];
        let tokens: Vec<&str> = doc.text.split(' ').collect();
        let q_len = qrng.gen_range(2..=5).min(tokens.len());
        let start = qrng.gen_range(0..=tokens.len() - q_len);
        let mut q_tokens: Vec<String> =
            tokens[start..start + q_len].iter().map(|s| (*s).to_owned()).collect();
        // Paraphrase noise: swap tokens for same-topic words.
        let topic_words = &topics[doc.topic as usize];
        for t in q_tokens.iter_mut() {
            if qrng.gen_bool(config.paraphrase_frac) {
                *t = word(config.vocab_size, topic_words[qrng.gen_range(0..config.topic_vocab)]);
            }
        }
        if qrng.gen_bool(0.3) {
            // Lexical noise: a random global word, as real queries carry
            // terms absent from the answer.
            q_tokens.push(word(config.vocab_size, sample_global(&mut qrng)));
        }
        queries.push(BenchmarkQuery { text: q_tokens.join(" "), relevant: doc.id });
    }

    Corpus { docs, queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        generate(&CorpusConfig::small(200, 42), 50)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.docs.len(), b.docs.len());
        assert_eq!(a.docs[7].text, b.docs[7].text);
        assert_eq!(a.queries[3].text, b.queries[3].text);
    }

    #[test]
    fn documents_have_plausible_shape() {
        let c = small();
        assert_eq!(c.docs.len(), 200);
        for d in &c.docs {
            let tokens = d.text.split(' ').count();
            assert!((30..=160).contains(&tokens), "doc {} has {} tokens", d.id, tokens);
            assert!(d.url.starts_with("https://"), "bad url {}", d.url);
        }
        // URLs are unique.
        let mut urls: Vec<&str> = c.docs.iter().map(|d| d.url.as_str()).collect();
        urls.sort_unstable();
        urls.dedup();
        assert_eq!(urls.len(), c.docs.len());
    }

    #[test]
    fn queries_reference_existing_docs() {
        let c = small();
        assert_eq!(c.queries.len(), 50);
        for q in &c.queries {
            assert!((q.relevant as usize) < c.docs.len());
            assert!(!q.text.is_empty());
        }
    }

    #[test]
    fn query_terms_mostly_appear_in_answer() {
        // With paraphrase_frac = 0.35 and a 30% chance of one lexical
        // noise token, the generator's mean per-query overlap sits
        // near 0.77; assert with margin on a sample large enough that
        // seed-to-seed variance cannot flip the verdict.
        let c = generate(&CorpusConfig::small(200, 42), 500);
        let mut overlap_total = 0.0;
        for q in &c.queries {
            let doc = &c.docs[q.relevant as usize];
            let q_terms: Vec<&str> = q.text.split(' ').collect();
            let hits = q_terms.iter().filter(|t| doc.text.contains(*t)).count();
            overlap_total += hits as f64 / q_terms.len() as f64;
        }
        let mean_overlap = overlap_total / c.queries.len() as f64;
        assert!(mean_overlap > 0.7, "queries too noisy: {mean_overlap}");
        assert!(mean_overlap < 0.95, "queries carry no noise: {mean_overlap}");
    }

    #[test]
    fn same_topic_docs_share_vocabulary() {
        let c = generate(&CorpusConfig::small(400, 7), 0);
        // Find two docs of the same topic and one of a different topic;
        // same-topic overlap (set intersection of tokens) should exceed
        // cross-topic overlap on average.
        let mut same = 0.0;
        let mut cross = 0.0;
        let mut same_n = 0;
        let mut cross_n = 0;
        for i in 0..60 {
            for j in (i + 1)..60 {
                let a: std::collections::HashSet<&str> = c.docs[i].text.split(' ').collect();
                let b: std::collections::HashSet<&str> = c.docs[j].text.split(' ').collect();
                let inter = a.intersection(&b).count() as f64 / a.len().min(b.len()) as f64;
                if c.docs[i].topic == c.docs[j].topic {
                    same += inter;
                    same_n += 1;
                } else {
                    cross += inter;
                    cross_n += 1;
                }
            }
        }
        if same_n > 0 && cross_n > 0 {
            assert!(
                same / same_n as f64 > cross / cross_n as f64,
                "topic structure missing: same {same}/{same_n}, cross {cross}/{cross_n}"
            );
        }
    }
}
