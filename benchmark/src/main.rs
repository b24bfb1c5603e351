//! One run of one workload of the Tiptoe benchmark.
//!
//! `tiptoe-benchmark --workload W --seed N --seconds S --trace 0|1`
//! builds the workload's deployment, drives it from the seed in a closed
//! loop, checks every output, and prints two JSON lines: a `detail` line
//! (sample counts, tails, host facts) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no tracing at all; with
//! `--trace 1` they are the per-layer ones, from a staged replay under the
//! benchmark's own spans. `benchmark/README.md` explains every choice.

mod adapter;
mod host;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use adapter::{Client, Deployment, Found, LaneCounts, Plane, Preset, Replayer, ServeRequest};
use host::{median, SpeedKernel};
use spans::SpanLog;

#[derive(Clone, Copy)]
enum Kind {
    /// One client alternating token fetch and search.
    Cycle,
    /// Submitter threads replaying a pool of ciphertexts at the servers.
    Serve,
}

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    preset: Preset,
    kind: Kind,
    /// Submitter threads of the serve loop.
    threads: usize,
}

// Four fleet submitters, not nproc: submitters park in lanes while one
// leads the flush, and only from four up is the mean batch the same in
// every process (see README, "Why four fleet clients").
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cycle_prod",
        preset: Preset::Prod,
        kind: Kind::Cycle,
        threads: 1,
    },
    Workload {
        name: "cycle_wide",
        preset: Preset::Wide,
        kind: Kind::Cycle,
        threads: 1,
    },
    Workload {
        name: "serve_solo",
        preset: Preset::Wide,
        kind: Kind::Serve,
        threads: 1,
    },
    Workload {
        name: "serve_fleet",
        preset: Preset::Wide,
        kind: Kind::Serve,
        threads: 4,
    },
];

/// The corpus every run indexes. Cluster count and padded cluster size
/// follow the corpus, and across corpus seeds they move the timings by more
/// than the bounds allow (README, "Seeds"), so `--seed` leaves the corpus
/// alone.
const CORPUS_SEED: u64 = 1;
/// Ciphertext pairs the serve workloads replay.
const POOL: usize = 32;
/// Discarded before every measured loop (at least one operation).
const WARMUP: Duration = Duration::from_secs(2);
/// An untraced window is measured in slices this long (at least one
/// operation each).
const SLICE: Duration = Duration::from_secs(1);
/// Around set-up and between slices the machine's speed is sampled for
/// this long.
const SPEED_GAP: Duration = Duration::from_millis(50);
/// Searches checked score by score against the plaintext pipeline.
const PLAINTEXT_CHECKS: usize = 8;
/// Untraced/staged slice pairs of a traced run's serve phase.
const SERVE_SLICES: u32 = 4;
/// What a traced run of a cycle workload spends on server operations, and
/// again on layer probes, after its window.
const SIDE_PHASE: Duration = Duration::from_millis(500);
/// A layer-sum ratio outside this band makes a traced run invalid.
const RATIO_BAND: (f64, f64) = (0.85, 1.15);

struct Args {
    workload: Workload,
    /// Drives query order, client keys, encryption noise and the pool.
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }
}

/// What a run prints: the contract's result line plus a detail line.
struct Report {
    tally: Tally,
    /// `(name, value, unit)`
    metrics: Vec<(String, f64, &'static str)>,
    /// `(key, JSON value)`
    detail: Vec<(&'static str, String)>,
}

/// The failure reasons as a JSON array of strings.
fn reasons_json(reasons: &[String]) -> String {
    let quoted: Vec<String> = reasons
        .iter()
        .map(|r| {
            let safe: String = r
                .chars()
                .map(|c| {
                    if c == '"' || c == '\\' || c.is_control() {
                        ' '
                    } else {
                        c
                    }
                })
                .collect();
            format!("\"{safe}\"")
        })
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Report {
    fn print(&self) {
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"detail\": {{{}}}}}", detail.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

/// The run's query sequence: the seeded order, cycled.
struct Queries {
    order: Vec<usize>,
    next: usize,
}

impl Queries {
    fn next(&mut self) -> usize {
        let q = self.order[self.next % self.order.len()];
        self.next += 1;
        q
    }
}

/// What every loop of a run shares.
struct Bench<'a> {
    dep: &'a Deployment,
    plane: &'a Plane<'a>,
    /// Zero of every span log's clock.
    epoch: Instant,
    tally: Tally,
}

#[derive(Default)]
struct CycleSamples {
    token_ms: Vec<f64>,
    query_ms: Vec<f64>,
    /// `(query index, hits)` of every search that returned.
    found: Vec<(usize, Found)>,
    online_bytes: u64,
    offline_bytes: u64,
}

struct ServeSamples {
    ms: Vec<f64>,
    /// One span log per submitter (empty unless staged).
    logs: Vec<SpanLog>,
}

impl Bench<'_> {
    /// One query cycle of one client: fetch a token, then search with it,
    /// each timed on its own.
    fn one_cycle(&mut self, client: &mut Client, query: usize, out: &mut CycleSamples) {
        let t0 = Instant::now();
        out.offline_bytes = adapter::fetch_token(client, self.dep, self.plane);
        out.token_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let result = adapter::search(client, self.dep, self.plane, query);
        out.query_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        self.tally.attempted += 1;
        match result {
            Ok((found, bytes)) => {
                out.online_bytes = bytes;
                out.found.push((query, found));
            }
            Err(reason) => self.tally.fail(reason),
        }
    }

    /// Closed loop of [`Bench::one_cycle`] for `budget` (at least one
    /// cycle; a cycle in flight at the deadline completes).
    fn cycles(
        &mut self,
        client: &mut Client,
        queries: &mut Queries,
        budget: Duration,
    ) -> CycleSamples {
        let mut out = CycleSamples::default();
        let start = Instant::now();
        while out.token_ms.is_empty() || start.elapsed() < budget {
            self.one_cycle(client, queries.next(), &mut out);
        }
        out
    }

    /// Checks searches after the clock has stopped: the run's first
    /// [`PLAINTEXT_CHECKS`] against the plaintext pipeline, the rest URL
    /// by URL. `already` searches of the run were checked before.
    fn check_searches(&mut self, found: &[(usize, Found)], already: usize) {
        for (i, (query, found)) in found.iter().enumerate() {
            let verdict = if already + i < PLAINTEXT_CHECKS {
                self.dep.check_against_plaintext(*query, found)
            } else {
                self.dep.check_urls(*query, found)
            };
            if let Err(reason) = verdict {
                self.tally.fail(reason);
            }
        }
    }

    /// Closed loop of `threads` submitters over the pool for `budget`, each
    /// waiting for its answer before sending the next request.
    fn serves(
        &mut self,
        pool: &[ServeRequest],
        threads: usize,
        budget: Duration,
        staged: bool,
    ) -> ServeSamples {
        let (dep, plane, epoch) = (self.dep, self.plane, self.epoch);
        let start = Instant::now();
        let per_thread: Vec<(Vec<f64>, u64, SpanLog)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut log = SpanLog::new(epoch, t + 1);
                        let (mut ms, mut wrong, mut i) = (Vec::new(), 0u64, t);
                        while ms.is_empty() || start.elapsed() < budget {
                            let req = &pool[i % pool.len()];
                            i += threads;
                            let t0 = Instant::now();
                            let ok = if staged {
                                adapter::staged_serve(dep, plane, req, &mut log)
                            } else {
                                adapter::serve(dep, plane, req)
                            };
                            ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            wrong += u64::from(!ok);
                        }
                        (ms, wrong, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter thread panicked"))
                .collect()
        });
        let mut out = ServeSamples {
            ms: Vec::new(),
            logs: Vec::new(),
        };
        for (ms, wrong, log) in per_thread {
            self.tally.attempted += ms.len() as u64;
            if wrong > 0 {
                self.tally.failed += wrong;
                self.tally
                    .reasons
                    .push(format!("{wrong} answers differ from the direct answer"));
            }
            out.ms.extend(ms);
            out.logs.push(log);
        }
        out
    }
}

/// Encrypts the serve pool by replaying query cycles (spans discarded).
fn build_pool(replayer: &mut Replayer<'_>, queries: &mut Queries) -> Vec<ServeRequest> {
    let mut scratch = SpanLog::new(Instant::now(), 0);
    (0..POOL)
        .map(|_| replayer.cycle(queries.next(), &mut scratch).2)
        .collect()
}

fn tail_json(values: &[f64]) -> String {
    match host::tail(values) {
        Some((pct, value)) => format!("{{\"percentile\": {}, \"ms\": {}}}", num(pct), num(value)),
        None => "null".into(),
    }
}

fn host_detail(args: &Args, dep: &Deployment, detail: &mut Vec<(&'static str, String)>) {
    detail.push(("workload", format!("\"{}\"", args.workload.name)));
    detail.push(("seed", args.seed.to_string()));
    detail.push(("seconds", num(args.seconds)));
    detail.push(("nproc", host::nproc().to_string()));
    detail.push(("threads", args.workload.threads.to_string()));
    detail.push(("deployment", dep.shape_json()));
}

/// `--trace 0`: the end-to-end metrics, nothing traced.
///
/// The window is measured in slices of [`SLICE`]; wall-clock and CPU time
/// are summed over the slices. Around set-up and between slices, while no
/// loop runs, the machine's speed is sampled ([`SpeedKernel`]), and every
/// time the run reports is divided by its median slowdown: this class of
/// host runs the same instructions up to a third slower from one quarter
/// of an hour to the next (README, "Machine speed").
fn run_untraced(args: &Args) -> Report {
    let w = args.workload;
    let mut queries = Queries {
        order: adapter::query_order(args.seed),
        next: 0,
    };
    let kernel = SpeedKernel::default();
    let mut speed = kernel.slowdowns(SPEED_GAP);
    let epoch = Instant::now();

    let dep = Deployment::build(w.preset, CORPUS_SEED);
    let plane = dep.plane();
    let mut client = dep.client(args.seed);
    let pool = match w.kind {
        Kind::Cycle => Vec::new(),
        Kind::Serve => build_pool(&mut Replayer::new(&dep, &plane, args.seed), &mut queries),
    };
    let setup_s = epoch.elapsed().as_secs_f64();

    let mut bench = Bench {
        dep: &dep,
        plane: &plane,
        epoch,
        tally: Tally::default(),
    };
    let warm_found = match w.kind {
        Kind::Cycle => bench.cycles(&mut client, &mut queries, WARMUP).found,
        Kind::Serve => {
            bench.serves(&pool, w.threads, WARMUP, false);
            Vec::new()
        }
    };
    let (mut op_ms, mut token_ms, mut found) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_s, mut cpu_ms, mut online_bytes, mut offline_bytes) = (0.0, 0.0, 0, 0);
    let lanes0 = LaneCounts::now();
    while wall_s < args.seconds {
        speed.extend(kernel.slowdowns(SPEED_GAP));
        let (cpu0, t0) = (host::cpu_ms(), Instant::now());
        match w.kind {
            Kind::Cycle => {
                let slice = bench.cycles(&mut client, &mut queries, SLICE);
                op_ms.extend(slice.query_ms);
                token_ms.extend(slice.token_ms);
                found.extend(slice.found);
                (online_bytes, offline_bytes) = (slice.online_bytes, slice.offline_bytes);
            }
            Kind::Serve => {
                op_ms.extend(bench.serves(&pool, w.threads, SLICE, false).ms);
                online_bytes = pool[0].wire_bytes();
            }
        }
        wall_s += t0.elapsed().as_secs_f64();
        cpu_ms += host::cpu_ms() - cpu0;
    }
    speed.extend(kernel.slowdowns(SPEED_GAP));
    let lanes = LaneCounts::now().since(lanes0);
    let slowdown = median(&speed);
    let at_reference = |ms: Vec<f64>| -> Vec<f64> { ms.iter().map(|ms| ms / slowdown).collect() };
    let (op_ms, token_ms) = (at_reference(op_ms), at_reference(token_ms));
    let ops = op_ms.len() as f64;

    let mut detail = Vec::new();
    host_detail(args, &dep, &mut detail);
    if let Kind::Cycle = w.kind {
        bench.check_searches(&warm_found, 0);
        bench.check_searches(&found, warm_found.len());
        detail.push(("token_p50_ms", num(median(&token_ms))));
        detail.push(("token_tail", tail_json(&token_ms)));
        detail.push(("offline_bytes_per_op", offline_bytes.to_string()));
    }
    detail.push(("samples", op_ms.len().to_string()));
    detail.push(("window_s", num(wall_s)));
    detail.push(("slowdown", num(slowdown)));
    detail.push(("slowdown_samples", speed.len().to_string()));
    detail.push(("op_tail", tail_json(&op_ms)));
    detail.push((
        "mean_batch",
        num(lanes.requests as f64 / lanes.flushes as f64),
    ));
    detail.push(("failures", reasons_json(&bench.tally.reasons)));

    let metrics = [
        ("setup_s", setup_s / slowdown, "s"),
        ("op_p50_ms", median(&op_ms), "ms"),
        ("ops_per_s", ops / wall_s * slowdown, "1/s"),
        ("core_ms_per_op", cpu_ms / ops / slowdown, "ms"),
        ("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ("online_bytes_per_op", online_bytes as f64, "B"),
        ("queries_per_scan", ops / lanes.flushes as f64, "1/scan"),
    ];
    Report {
        tally: bench.tally,
        metrics: metrics
            .map(|(name, value, unit)| (name.to_string(), value, unit))
            .into(),
        detail,
    }
}

const TOKEN_STAGES: [&str; 6] = [
    "underhood.keygen",
    "underhood.secret_encrypt",
    "underhood.secret_expand",
    "ranking.token_gen",
    "url.token_gen",
    "underhood.token_decode",
];
const QUERY_STAGES: [&str; 9] = [
    "embed.query",
    "cluster.route",
    "underhood.encrypt_query",
    "ranking.answer",
    "underhood.decrypt",
    "pir.query",
    "url.answer",
    "pir.recover",
    "corpus.url_decode",
];
const SERVE_STAGES: [&str; 2] = ["ranking.answer", "url.answer"];

/// `--trace 1`: the per-layer metrics, in three phases: query cycles,
/// server operations, and single-thread layer probes. The first two
/// alternate an untraced reference of the same operations (the denominators
/// of the layer-sum ratios) with the staged replay.
///
/// The window goes to the workload's own operation. A cycle workload spends
/// all of it on cycles (at least three, so that a median is one of them)
/// and [`SIDE_PHASE`] on each other phase; a serve workload replays
/// [`POOL`] cycles, as its untraced run does in set-up, and halves the
/// window between server operations and probes. Nothing is divided by a
/// slowdown: ratios within a run need no correction.
fn run_traced(args: &Args) -> Report {
    let w = args.workload;
    let window = Duration::from_secs_f64(args.seconds);
    let (cycle_budget, min_cycles, serve_budget, probe_budget) = match w.kind {
        Kind::Cycle => (window, 3, SIDE_PHASE, SIDE_PHASE),
        Kind::Serve => (Duration::ZERO, POOL, window / 2, window / 2),
    };
    let mut queries = Queries {
        order: adapter::query_order(args.seed),
        next: 0,
    };
    let epoch = Instant::now();

    let dep = Deployment::build(w.preset, CORPUS_SEED);
    let plane = dep.plane();
    let mut client = dep.client(args.seed);
    let mut replayer = Replayer::new(&dep, &plane, args.seed);
    let mut bench = Bench {
        dep: &dep,
        plane: &plane,
        epoch,
        tally: Tally::default(),
    };

    // Query cycles, each query twice: untraced (the reference the ratios
    // divide by), then staged. Alternating keeps both under the same
    // cache and clock conditions.
    let warm = bench.cycles(&mut client, &mut queries, WARMUP);
    bench.check_searches(&warm.found, 0);
    let mut reference = CycleSamples::default();
    let mut main_log = SpanLog::new(epoch, 0);
    let mut pool = Vec::new();
    let mut token_bytes = 0;
    let cycles_start = Instant::now();
    for i in 0.. {
        if i >= min_cycles && cycles_start.elapsed() >= cycle_budget {
            break;
        }
        let query = queries.next();
        let before = reference.found.len();
        bench.one_cycle(&mut client, query, &mut reference);
        let (found, bytes, req) = replayer.cycle(query, &mut main_log);
        bench.tally.attempted += 1;
        token_bytes = bytes;
        // Scores are exact, so the staged hits equal the untraced hits
        // whatever randomness each run drew.
        if reference
            .found
            .get(before)
            .is_some_and(|(_, want)| *want != found)
        {
            bench.tally.fail(format!(
                "query {query}: staged hits differ from the untraced hits"
            ));
        }
        if pool.len() < POOL {
            pool.push(req);
        }
    }
    bench.check_searches(&reference.found, warm.found.len());

    // Server operations at the workload's submitter count, in alternating
    // untraced and staged slices.
    let slice = serve_budget / (2 * SERVE_SLICES + 1);
    bench.serves(&pool, w.threads, slice, false);
    let (mut serve_ref_ms, mut serve_logs) = (Vec::new(), Vec::new());
    let lanes0 = LaneCounts::now();
    for _ in 0..SERVE_SLICES {
        serve_ref_ms.extend(bench.serves(&pool, w.threads, slice, false).ms);
        serve_logs.extend(bench.serves(&pool, w.threads, slice, true).logs);
    }
    let lanes = LaneCounts::now().since(lanes0);

    // Layers under the plane, one thread.
    let probe_start = Instant::now();
    for i in 0.. {
        if i >= 2 && probe_start.elapsed() >= probe_budget {
            break;
        }
        bench.tally.attempted += 1;
        if !adapter::probe_layers(
            &dep,
            &plane,
            &pool[i % pool.len()],
            i % 2 == 0,
            &mut main_log,
        ) {
            bench
                .tally
                .fail("a direct answer differs from the reference".into());
        }
    }
    let tally = bench.tally;
    let (stream_gbps, stream_spread) = host::stream_gbps(dep.scan_bytes());

    let main = std::slice::from_ref(&main_log);
    let stage = |logs: &[SpanLog], name: &str| median(&spans::per_op_us(logs, name));
    let sum = |logs: &[SpanLog], names: &[&str]| names.iter().map(|n| stage(logs, n)).sum::<f64>();
    let query_p50 = median(&reference.query_ms);
    let token_p50 = median(&reference.token_ms);
    let serve_p50 = median(&serve_ref_ms);
    let query_ratio = sum(main, &QUERY_STAGES) / 1e3 / query_p50;
    let token_ratio = sum(main, &TOKEN_STAGES) / 1e3 / token_p50;
    let serve_ratio = sum(&serve_logs, &SERVE_STAGES) / 1e3 / serve_p50;
    let overhead = match w.kind {
        Kind::Cycle => stage(main, "query") / 1e3 / query_p50,
        Kind::Serve => stage(&serve_logs, "serve") / 1e3 / serve_p50,
    };
    let scan_us = stage(main, "lwe.scan");
    let scan_gbps = dep.scan_bytes() as f64 / (scan_us * 1e3);
    let flushes = lanes.flushes as f64;
    let (index_s, ranking_s, url_s) = dep.build_stage_seconds();

    // Most per-layer metrics are the median of one span, named after it.
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let cycle_stages = TOKEN_STAGES.iter().chain(&QUERY_STAGES);
    for name in cycle_stages.filter(|name| !SERVE_STAGES.contains(name)) {
        metrics.push((format!("{name}_us"), stage(main, name), "us"));
    }
    for name in SERVE_STAGES {
        metrics.push((format!("{name}_us"), stage(&serve_logs, name), "us"));
    }
    for name in ["ranking.answer_direct", "pir.answer", "lwe.scan"] {
        metrics.push((format!("{name}_us"), stage(main, name), "us"));
    }
    let lane_overhead = stage(main, "ranking.answer_solo") - stage(main, "ranking.answer_direct");
    for (name, value, unit) in [
        ("client.query_p50_ms", query_p50, "ms"),
        ("client.token_p50_ms", token_p50, "ms"),
        ("client.token_bytes", token_bytes as f64, "B"),
        ("serving.serve_p50_ms", serve_p50, "ms"),
        ("net.lane_overhead_us", lane_overhead, "us"),
        ("net.flushes", flushes, "count"),
        ("net.mean_batch", lanes.requests as f64 / flushes, "count"),
        ("net.flush_mean_us", lanes.flush_us as f64 / flushes, "us"),
        ("lwe.scan_gbps", scan_gbps, "GB/s"),
        (
            "lwe.scan_b4_us_per_query",
            stage(main, "lwe.scan_b4") / 4.0,
            "us",
        ),
        ("math.stream_gbps", stream_gbps, "GB/s"),
        ("batch.index_s", index_s, "s"),
        ("ranking.build_s", ranking_s, "s"),
        ("url.build_s", url_s, "s"),
        ("bench.query_layer_sum_ratio", query_ratio, "ratio"),
        ("bench.token_layer_sum_ratio", token_ratio, "ratio"),
        ("bench.serve_layer_sum_ratio", serve_ratio, "ratio"),
        ("bench.trace_overhead_pct", (overhead - 1.0) * 100.0, "%"),
    ] {
        metrics.push((name.to_string(), value, unit));
    }

    let mut detail = Vec::new();
    host_detail(args, &dep, &mut detail);
    let in_band = |r: f64| (RATIO_BAND.0..=RATIO_BAND.1).contains(&r);
    detail.push((
        "valid",
        (in_band(query_ratio) && in_band(token_ratio) && in_band(serve_ratio)).to_string(),
    ));
    detail.push((
        "cycle_samples",
        spans::per_op_us(main, "query").len().to_string(),
    ));
    detail.push((
        "cycle_reference_samples",
        reference.query_ms.len().to_string(),
    ));
    detail.push((
        "serve_samples",
        spans::per_op_us(&serve_logs, "serve").len().to_string(),
    ));
    detail.push(("serve_reference_samples", serve_ref_ms.len().to_string()));
    detail.push((
        "probe_samples",
        spans::per_op_us(main, "lwe.scan").len().to_string(),
    ));
    for (key, logs, name) in [
        ("token_self_us", main, "token"),
        ("query_self_us", main, "query"),
        ("serve_self_us", &serve_logs[..], "serve"),
    ] {
        detail.push((key, num(median(&spans::self_us(logs, name)))));
    }
    detail.push(("stream_spread", num(stream_spread)));
    // A roofline share is only as good as its denominator.
    if stream_spread <= 0.10 {
        detail.push((
            "lwe.scan_roofline_pct",
            num(100.0 * scan_gbps / stream_gbps),
        ));
    }
    detail.push(("failures", reasons_json(&tally.reasons)));

    let mut logs = vec![main_log];
    logs.extend(serve_logs);
    let path = format!("benchmark/out/{}.trace.json", w.name);
    std::fs::create_dir_all("benchmark/out").expect("create benchmark/out");
    std::fs::write(&path, spans::chrome_trace(&logs)).expect("write the Chrome trace");
    detail.push(("trace_file", format!("\"{path}\"")));
    Report {
        tally,
        metrics,
        detail,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("tiptoe-benchmark: {reason}");
            eprintln!("usage: --workload W --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    for reason in &report.tally.reasons {
        eprintln!("tiptoe-benchmark: failed: {reason}");
    }
    report.print();
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
