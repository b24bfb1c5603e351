//! An inverted index over analyzed (tokenized + stemmed) documents,
//! shared by the tf-idf and BM25 baselines.

use std::collections::HashMap;

use crate::analyze;

/// One posting: a document and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document identifier.
    pub doc: u32,
    /// Term frequency.
    pub tf: u32,
}

/// An inverted index mapping terms to postings lists.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    doc_lengths: Vec<u32>,
    total_terms: u64,
}

impl InvertedIndex {
    /// Builds the index over a corpus of raw document texts.
    pub fn build<S: AsRef<str>>(docs: &[S]) -> Self {
        let mut index = Self::default();
        for doc in docs {
            index.add_document(doc.as_ref());
        }
        index
    }

    /// Appends one document (IDs are assigned sequentially).
    pub fn add_document(&mut self, text: &str) {
        let doc = self.doc_lengths.len() as u32;
        let terms = analyze(text);
        let mut counts: HashMap<String, u32> = HashMap::new();
        for t in &terms {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        for (term, tf) in counts {
            self.postings.entry(term).or_default().push(Posting { doc, tf });
        }
        self.doc_lengths.push(terms.len() as u32);
        self.total_terms += terms.len() as u64;
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Token count of document `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_lengths[doc as usize]
    }

    /// Mean document length in tokens.
    pub fn avg_doc_len(&self) -> f32 {
        if self.doc_lengths.is_empty() {
            0.0
        } else {
            self.total_terms as f32 / self.doc_lengths.len() as f32
        }
    }

    /// Postings for a term, if indexed.
    pub fn postings(&self, term: &str) -> Option<&[Posting]> {
        self.postings.get(term).map(Vec::as_slice)
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings.get(term).map_or(0, Vec::len)
    }

    /// Inverse document frequency (plain log form used by tf-idf).
    pub fn idf(&self, term: &str) -> f32 {
        let df = self.doc_freq(term);
        if df == 0 {
            0.0
        } else {
            ((self.num_docs() as f32) / df as f32).ln()
        }
    }

    /// The `k` terms with the highest IDF (rarest first) — the
    /// dictionary-restriction rule Coeus uses ("the 65K stemmed words
    /// with the highest inverse-document-frequency score", §8.2).
    pub fn top_idf_terms(&self, k: usize) -> Vec<String> {
        let mut scored: Vec<(f32, &String)> =
            self.postings.keys().map(|t| (self.idf(t), t)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN idf").then(a.1.cmp(b.1)));
        scored.into_iter().take(k).map(|(_, t)| t.clone()).collect()
    }

    /// Estimated serialized index size in bytes (postings as doc+tf
    /// pairs) — used for the client-side-index baseline of Table 6.
    pub fn storage_bytes(&self) -> u64 {
        let posting_count: u64 = self.postings.values().map(|p| p.len() as u64).sum();
        let term_bytes: u64 = self.postings.keys().map(|t| t.len() as u64 + 8).sum();
        posting_count * 8 + term_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<&'static str> {
        vec![
            "the quick brown fox jumps over the lazy dog",
            "a private search engine hides the search query",
            "the dog searches for private bones",
        ]
    }

    #[test]
    fn builds_postings_with_frequencies() {
        let idx = InvertedIndex::build(&docs());
        assert_eq!(idx.num_docs(), 3);
        // "search"/"searches"/"searching" stem together.
        let postings = idx.postings(&crate::stem::porter_stem("search")).expect("indexed");
        assert_eq!(postings.len(), 2);
        let doc1 = postings.iter().find(|p| p.doc == 1).expect("doc 1 present");
        assert_eq!(doc1.tf, 2);
    }

    #[test]
    fn idf_ranks_rare_terms_higher() {
        let idx = InvertedIndex::build(&docs());
        assert!(idx.idf("fox") > idx.idf("the"));
        assert_eq!(idx.idf("zzz_absent"), 0.0);
    }

    #[test]
    fn doc_lengths_and_average() {
        let idx = InvertedIndex::build(&docs());
        assert_eq!(idx.doc_len(0), 9);
        assert!(idx.avg_doc_len() > 5.0);
    }

    #[test]
    fn top_idf_terms_excludes_common_words() {
        let idx = InvertedIndex::build(&docs());
        let top = idx.top_idf_terms(5);
        assert_eq!(top.len(), 5);
        assert!(!top.contains(&"the".to_owned()), "common term in top-idf: {top:?}");
    }

    #[test]
    fn empty_index_is_well_behaved() {
        let idx = InvertedIndex::default();
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
        assert!(idx.postings("x").is_none());
    }
}
