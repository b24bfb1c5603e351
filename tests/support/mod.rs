//! The shared check for a query that fails with
//! [`ServeError::ShardFailed`].

use tiptoe_core::client::{QueryCost, QueryOptions, TiptoeClient};
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_embed::Embedder;
use tiptoe_net::{Direction, Phase, ServeError};
use tiptoe_obs::recorder::{self, Event, EventKind};

/// The four per-query phases, with their retry ledgers.
const PHASES: [Phase; 4] = [Phase::Ranking, Phase::RankingRetries, Phase::Url, Phase::UrlRetries];

fn phase_bytes<E: Embedder>(instance: &TiptoeInstance<E>) -> [[u64; 2]; 4] {
    let t = &instance.transcript;
    PHASES.map(|p| [t.phase_total(p, Direction::Upload), t.phase_total(p, Direction::Download)])
}

/// Runs `text` as one query that must fail with `want`, a
/// [`ServeError::ShardFailed`], and checks what the failure leaves:
///
/// - the query used up exactly one prefetched token, since a
///   ciphertext under that token's secret was already sent;
/// - the transcript holds the failed phase's upload and download at
///   their fixed sizes (`healthy` is an answered query's cost on the
///   same instance), the URL phase only when the URL server is the
///   one that failed, and no retry bytes (the plans here only crash
///   and straggle, which waste no response);
/// - the flight recorder's one `Finished` event carries the error's
///   code and its shard numbers.
///
/// Returns the query's recorder timeline for further checks.
pub fn assert_shard_failed<E: Embedder>(
    instance: &TiptoeInstance<E>,
    client: &mut TiptoeClient,
    text: &str,
    opts: QueryOptions<'_>,
    healthy: &QueryCost,
    want: ServeError,
) -> Vec<Event> {
    let ServeError::ShardFailed { shard, .. } = want else {
        panic!("{want:?} is not a shard failure");
    };
    client.fetch_token_via(instance, opts.plane);
    let tokens = client.tokens_available();
    let before = phase_bytes(instance);
    let scope = tiptoe_obs::query_scope();
    let err = client.query(instance, text, 10, opts).expect_err("a shard is down for good");
    let timeline = recorder::timeline(scope.id());
    drop(scope);
    assert_eq!(err, want);
    assert_eq!(client.tokens_available(), tokens - 1, "the query used up exactly one token");

    let after = phase_bytes(instance);
    let url = if shard == instance.ranking.num_shards() {
        [healthy.url_up, healthy.url_down]
    } else {
        [0, 0]
    };
    let want_bytes = [[healthy.rank_up, healthy.rank_down], [0, 0], url, [0, 0]];
    for (i, phase) in PHASES.iter().enumerate() {
        let got = [after[i][0] - before[i][0], after[i][1] - before[i][1]];
        assert_eq!(got, want_bytes[i], "{phase:?} bytes [up, down]");
    }

    let finished: Vec<&Event> = timeline.iter().filter(|e| e.kind == EventKind::Finished).collect();
    assert_eq!(finished.len(), 1, "one typed outcome: {timeline:?}");
    let (code, b, c) = want.recorder_code();
    assert_eq!((finished[0].a, finished[0].b, finished[0].c), (code, b, c));
    timeline
}
