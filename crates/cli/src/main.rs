//! `tiptoe` — a command-line demonstration of private web search.
//!
//! ```text
//! tiptoe demo [NUM_DOCS]            # synthetic corpus + interactive search
//! tiptoe index FILE [QUERY...]      # index a file of documents, run queries
//! tiptoe search QUERY...            # synthetic corpus, run queries, exit
//! tiptoe overload-demo [CLIENTS]    # overload the plane, watch it shed
//! tiptoe top [CLIENTS] [--json]     # live serving-plane introspection
//! ```
//!
//! In `index` mode, `FILE` holds one document per line, either
//! `url<TAB>text` or just `text` (URLs are synthesized). Every query
//! runs through the full private pipeline: the services only ever see
//! lattice ciphertexts.
//!
//! Set `TIPTOE_TRACE=trace.json` to capture a per-query span trace
//! (Chrome `trace_event` JSON plus sibling `.metrics.json` and
//! `.folded` files); `search` is the non-interactive mode meant for
//! exactly that kind of scripted capture.

use std::io::{BufRead, Write};

use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig, Document};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_math::stats::{fmt_bytes, fmt_seconds};
use tiptoe_net::LinkModel;

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!("  tiptoe demo [NUM_DOCS]        synthetic corpus, interactive prompt");
    eprintln!("  tiptoe index FILE [QUERY...]  index 'url<TAB>text' lines, run queries");
    eprintln!("  tiptoe search QUERY...        synthetic corpus, run queries, exit");
    eprintln!("  tiptoe overload-demo [CLIENTS] drive 2x capacity, watch typed sheds");
    eprintln!("  tiptoe top [CLIENTS] [--json]  drive load, watch live plane snapshots");
    std::process::exit(2);
}

/// `tiptoe top [CLIENTS] [--json]`: bring up a small instance with
/// admission control on, run closed-loop clients against the
/// coalesced serving plane, and render a live
/// [`tiptoe_core::serving::PlaneStatus`] snapshot every refresh —
/// lane occupancy, cohort, admission counters, latency quantiles, and
/// SLO burn rates. `--json` emits one JSON object per refresh instead
/// of the text panel (exporter mode).
fn top(clients: Option<usize>, json: bool) -> ! {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let clients = clients.unwrap_or(4).max(1);
    let docs = 400;
    let (ticks, tick) = (8, std::time::Duration::from_millis(400));
    if !json {
        println!("tiptoe: indexing {docs} synthetic documents ...");
    }
    let corpus = generate(&CorpusConfig::small(docs, 7), 0);
    let mut config = TiptoeConfig::test_small(docs, 7);
    config.admission.enabled = true;
    config.admission.max_inflight = clients;
    config.admission.deadline = std::time::Duration::from_secs(30);
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, 7, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);
    let plane = instance.serving_plane();

    let queries = ["museum history archive", "health doctor symptoms", "travel island beach"];
    let stop = AtomicBool::new(false);
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..clients {
            let (instance, plane, stop, completed) = (&instance, &plane, &stop, &completed);
            let query = queries[i % queries.len()];
            scope.spawn(move || {
                let mut client = instance.new_client(500 + i as u64);
                while !stop.load(Ordering::Relaxed) {
                    if client.try_search_served(instance, query, 5, plane).is_ok() {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        for t in 0..ticks {
            std::thread::sleep(tick);
            let status = plane.status();
            if json {
                println!("{}", status.to_json());
            } else {
                println!(
                    "--- tick {}/{} ({} queries completed) ---",
                    t + 1,
                    ticks,
                    completed.load(Ordering::Relaxed)
                );
                print!("{}", status.render());
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    if !json {
        println!(
            "\ntiptoe: {} queries completed by {clients} closed-loop clients",
            completed.load(Ordering::Relaxed)
        );
    }
    std::process::exit(0);
}

/// `tiptoe overload-demo [CLIENTS]`: bring up a small instance with
/// admission control pinned to half the offered concurrency, release
/// all clients at once, and show the plane shedding the excess with
/// typed errors while every admitted query completes normally.
fn overload_demo(clients: Option<usize>) -> ! {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use tiptoe_net::ServeError;

    let clients = clients.unwrap_or(8).max(2);
    let capacity = (clients / 2).max(1);
    let docs = 500;
    println!("tiptoe: indexing {docs} synthetic documents ...");
    let corpus = generate(&CorpusConfig::small(docs, 7), 0);
    let mut config = TiptoeConfig::test_small(docs, 7);
    config.admission.enabled = true;
    config.admission.max_inflight = capacity;
    config.admission.deadline = std::time::Duration::from_secs(30);
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, 7, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);
    let plane = instance.serving_plane();
    let ctrl = plane.admission().expect("admission enabled");
    println!("tiptoe: admission capacity {}, {clients} concurrent clients\n", ctrl.capacity());

    let queries = ["museum history archive", "health doctor symptoms", "travel island beach"];
    let barrier = Barrier::new(clients);
    let admitted = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..clients {
            let (instance, plane, barrier) = (&instance, &plane, &barrier);
            let (admitted, shed) = (&admitted, &shed);
            let query = queries[i % queries.len()];
            scope.spawn(move || {
                let mut client = instance.new_client(100 + i as u64);
                barrier.wait();
                match client.try_search_served(instance, query, 5, plane) {
                    Ok(r) => {
                        admitted.fetch_add(1, Ordering::SeqCst);
                        let top = r.hits.first().map_or("(no results)", |h| h.url.as_str());
                        println!("client {i:>2}: admitted   {query:<24} -> {top}");
                    }
                    Err(e @ ServeError::Overloaded { .. }) => {
                        shed.fetch_add(1, Ordering::SeqCst);
                        println!("client {i:>2}: SHED       {query:<24} -> {e}");
                    }
                    Err(e) => println!("client {i:>2}: failed     {query:<24} -> {e}"),
                }
            });
        }
    });
    println!(
        "\ntiptoe: {} admitted, {} shed ({} total arrivals; transcript counted {})",
        admitted.load(Ordering::SeqCst),
        shed.load(Ordering::SeqCst),
        ctrl.admitted() + ctrl.sheds(),
        instance.transcript.sheds(),
    );
    println!("tiptoe: shed queries cost no token and no bytes; retry when load drops");
    std::process::exit(0);
}

fn load_file(path: &str) -> Corpus {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("tiptoe: cannot open {path}: {e}");
        std::process::exit(1);
    });
    let mut docs = Vec::new();
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_default();
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (url, text) = match line.split_once('\t') {
            Some((u, t)) => (u.to_owned(), t.to_owned()),
            None => (format!("file://{path}#L{}", i + 1), line.to_owned()),
        };
        docs.push(Document { id: docs.len() as u32, url, text, topic: 0 });
    }
    if docs.is_empty() {
        eprintln!("tiptoe: {path} holds no documents");
        std::process::exit(1);
    }
    Corpus { docs, queries: Vec::new() }
}

fn run_queries<I>(instance: &TiptoeInstance<TextEmbedder>, queries: I)
where
    I: IntoIterator<Item = String>,
{
    let mut client = instance.new_client(1);
    let link = LinkModel::paper();
    for query in queries {
        let query = query.trim().to_owned();
        if query.is_empty() || query == "quit" || query == "exit" {
            if query.is_empty() {
                continue;
            }
            break;
        }
        let results = client.search(instance, &query, 10);
        println!("Q: {query}");
        if results.hits.is_empty() {
            println!("  (no results)");
        }
        for (i, hit) in results.hits.iter().enumerate() {
            println!("  {:>2}. {}  ({:.3})", i + 1, hit.url, hit.score);
        }
        let c = &results.cost;
        println!(
            "  [{} online, {} offline, ~{} perceived; the servers saw only ciphertexts]\n",
            fmt_bytes(c.online_bytes()),
            fmt_bytes(c.offline_bytes()),
            fmt_seconds(c.perceived_latency(&link).as_secs_f64()),
        );
    }
}

fn interactive(instance: &TiptoeInstance<TextEmbedder>) {
    println!("type a query (empty line or 'quit' to exit):");
    let stdin = std::io::stdin();
    let mut lines = Vec::new();
    loop {
        print!("tiptoe> ");
        std::io::stdout().flush().expect("stdout");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim().to_owned();
        if line.is_empty() || line == "quit" || line == "exit" {
            break;
        }
        lines.push(line);
        // Run one at a time so the prompt stays responsive.
        run_queries(instance, lines.drain(..));
    }
}

fn main() {
    tiptoe_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("overload-demo") {
        overload_demo(args.get(1).and_then(|a| a.parse().ok()));
    }
    if args.first().map(String::as_str) == Some("top") {
        let json = args.iter().any(|a| a == "--json");
        top(args.get(1).and_then(|a| a.parse().ok()), json);
    }
    let (corpus, label) = match args.first().map(String::as_str) {
        Some("demo") => {
            let n: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(2000);
            (generate(&CorpusConfig::small(n, 7), 0), format!("{n} synthetic documents"))
        }
        Some("index") => {
            let Some(path) = args.get(1) else { usage() };
            (load_file(path), format!("documents from {path}"))
        }
        Some("search") if args.len() > 1 => {
            (generate(&CorpusConfig::small(2000, 7), 0), "2000 synthetic documents".to_owned())
        }
        _ => usage(),
    };

    println!("tiptoe: indexing {label} ...");
    let config = TiptoeConfig::test_small(corpus.docs.len(), 7);
    let embedder = TextEmbedder::new(config.d_embed, 7, 0);
    let (instance, t_build) =
        tiptoe_obs::clock::timed(|| TiptoeInstance::build(&config, embedder, &corpus));
    println!(
        "tiptoe: ready in {} ({} clusters, {} server state)\n",
        fmt_seconds(t_build.as_secs_f64()),
        instance.artifacts.meta.c,
        fmt_bytes(instance.server_storage_bytes()),
    );

    match args.first().map(String::as_str) {
        Some("index") if args.len() > 2 => {
            run_queries(&instance, args[2..].iter().cloned());
        }
        Some("search") => {
            run_queries(&instance, std::iter::once(args[1..].join(" ")));
            if let Some(path) = tiptoe_obs::trace_path() {
                println!("tiptoe: trace written to {path}");
            }
        }
        _ => interactive(&instance),
    }
}
