//! The size model against the bytes a built deployment moves. At each
//! deployment below, the six message sizes that
//! `DeploymentShape::query_bytes` computes from the instance's shape
//! equal, byte for byte, the ones one query's `QueryCost` records, and
//! the two answer sizes equal the words the services return. With
//! `tests/wire_formats.rs` (`encode().len() == byte_len()` for every
//! message) this ties each encoder to the model the paper tables
//! extrapolate through.

use tiptoe_bench::measure::{image_deployment, text_deployment};
use tiptoe_core::analysis::DeploymentShape;
use tiptoe_core::client::QueryCost;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_embed::Embedder;
use tiptoe_lwe::LweCiphertext;
use tiptoe_underhood::QueryToken;

fn sizes(c: &QueryCost) -> [u64; 6] {
    [c.token_up, c.token_down, c.rank_up, c.rank_down, c.url_up, c.url_down]
}

/// Runs one query on `instance` and asserts that the model's sizes
/// are the ones the query recorded and the answers' words; returns
/// them.
fn assert_model_is_exact<E: Embedder + Send + Sync>(
    instance: &TiptoeInstance<E>,
    corpus: &Corpus,
) -> QueryCost {
    let shape = DeploymentShape::of(instance);
    let want = shape.query_bytes();
    let mut client = instance.new_client(5);
    let got = client.search(instance, &corpus.queries[0].text, 10).cost;
    assert_eq!(sizes(&want), sizes(&got), "[token up/down, rank up/down, url up/down] at {shape:?}");

    let rank = instance.ranking.answer(&LweCiphertext { c: vec![0u64; shape.m] }).0;
    assert_eq!(want.rank_down, (rank.len() * size_of::<u64>()) as u64, "ranking answer");
    let url = instance.url.answer(&LweCiphertext { c: vec![0u32; shape.url_records] }).0;
    assert_eq!(want.url_down, (url.len() * size_of::<u32>()) as u64, "URL answer");
    want
}

fn test_small(docs: usize, seed: u64) -> QueryCost {
    let corpus = generate(&CorpusConfig::small(docs, seed), 1);
    let config = TiptoeConfig::test_small(docs, seed);
    let embedder = TextEmbedder::new(config.d_embed, seed, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);
    assert_model_is_exact(&instance, &corpus)
}

#[test]
fn model_is_exact_at_test_small_300_docs() {
    test_small(300, 3);
}

#[test]
fn model_is_exact_at_test_small_2000_docs() {
    test_small(2000, 4);
}

#[test]
fn model_is_exact_at_the_wide_test_small_deployment() {
    // The benchmark's `cycle_wide` deployment (65,536 documents, seed
    // 1), whose online bytes the benchmark reports.
    assert_eq!(test_small(65_536, 1).online_bytes(), 358_406);
}

#[test]
fn model_is_exact_at_the_text_deployment_of_4096_docs() {
    // The benchmark's `cycle_prod` deployment (`TiptoeConfig::text`,
    // seed 1), whose byte counts the benchmark reports.
    let (corpus, instance) = text_deployment(4096, 1, 1);
    let bytes = assert_model_is_exact(&instance, &corpus);
    assert_eq!(bytes.online_bytes(), 150_954);
    assert_eq!(bytes.token_up, 33_579_012);
    let shape = DeploymentShape::of(&instance);
    let chunks = shape.chunks();
    let token = |i: usize| QueryToken::wire_len(chunks[i], shape.limbs[i], shape.ring, shape.log_q2);
    assert_eq!((token(0), token(1)), (45_090, 90_168));
    assert_eq!(bytes.offline_bytes(), 33_714_270);
}

#[test]
fn model_is_exact_at_an_image_deployment() {
    let (corpus, instance) = image_deployment(512, 1, 12);
    assert_model_is_exact(&instance, &corpus);
}
