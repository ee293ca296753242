//! The layer ladder: the same lines go through successively larger
//! public entry points of the repository, one caller, nothing else
//! running, and a layer's self time is its rung minus the rung below.
//!
//! ```text
//! shell_parser::parse, mask_arguments            shell_parser
//! Preprocessor::process            − parse      core.preprocess
//! IdsPipeline::encode                           bpe
//! embed_ids (batches of 32, of 1)               nn
//! VectorIndex::query_batch                      index
//! FittedEngine::score              − index      anomaly
//! embed_lines + FittedEngine::score             (inline: what a worker does per micro-batch)
//! ServiceClient::score_batch       − inline     serve.service
//! … through a ShardRouter          − unsharded  serve.router
//! Frontend::score_batch, all hits               serve.cache
//! NetClient::score_batch           − in-process serve.net
//! ```
//!
//! Rungs from the index upwards run over the first
//! `Sizes::ladder_heavy_lines` lines in micro-batches of
//! `LadderSpec::batch`; the net pair sends requests shaped like the
//! workload's (`LadderSpec::request_lines`).

use crate::world::{fit_engine, serve_config, Sizes, World, KNN_K, RETRIEVAL_K};
use crate::Metrics;
use cmdline_ids::embed::{embed_ids, Pooling};
use cmdline_ids::engine::{EmbeddingView, IndexConfig};
use linalg::Matrix;
use serve::wire::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
};
use serve::{Frontend, NetClient, NetConfig, NetServer, RouterConfig, ShardRouter};
use std::hint::black_box;
use std::net::TcpListener;
use std::time::Instant;

/// What the ladder needs to rebuild a workload's layers one at a time.
pub struct LadderSpec {
    /// The workload's exemplar set (one tenant's, on `tenant_churn`).
    pub train: EmbeddingView,
    pub labels: Vec<bool>,
    /// Backend and storage format of the workload's index, unsharded.
    pub index: IndexConfig,
    /// Shards the workload's router spreads that index over (1: none).
    pub shards: usize,
    /// Verdict-cache capacity the workload serves with.
    pub cache: Option<usize>,
    /// Lines per micro-batch on the rungs from the index upwards.
    pub batch: usize,
    /// Lines per request the workload sends.
    pub request_lines: usize,
    /// Whether the workload's requests cross `serve::net`; only then
    /// does the net rung count towards the ladder total.
    pub over_wire: bool,
    /// A fixed sample of the workload's request stream.
    pub lines: Vec<String>,
}

/// Seconds `f` takes.
fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Seconds the faster of two passes of `f` takes. A self time is the
/// difference of two rungs; on a shared 2-core box one pass of each
/// differs by more than the layers between them.
fn best_of_two(mut f: impl FnMut()) -> f64 {
    time(&mut f).min(time(&mut f))
}

fn rows(matrix: &Matrix, keep: impl Fn(usize) -> bool) -> Matrix {
    let mut out = Matrix::zeros(0, matrix.cols());
    for r in (0..matrix.rows()).filter(|&r| keep(r)) {
        out.push_row(matrix.row(r));
    }
    out
}

/// Runs every rung and writes the per-layer self times into `m`.
pub fn run(world: &World, spec: &LadderSpec, sizes: &Sizes, m: &mut Metrics) {
    let pipeline = &world.exp.pipeline;
    let lines = &spec.lines;
    let n = lines.len() as f64;
    let us = |secs: f64, per: f64| secs / per * 1e6;

    // --- encode rungs, every line ---
    let mut scripts = Vec::new();
    let parse_s = time(|| {
        scripts = lines
            .iter()
            .filter_map(|line| shell_parser::parse(black_box(line)).ok())
            .collect();
    });
    let mask_s = time(|| {
        for script in &scripts {
            black_box(shell_parser::mask_arguments(black_box(script)));
        }
    });
    drop(scripts);
    let preprocess_s = time(|| {
        black_box(
            pipeline
                .preprocessor()
                .process(black_box(lines).iter().map(String::as_str)),
        );
    });
    let mut sequences = Vec::new();
    let bpe_s = time(|| {
        sequences = lines
            .iter()
            .map(|l| pipeline.encode(black_box(l)))
            .collect();
    });
    let tokens: usize = sequences.iter().map(Vec::len).sum();
    let forward_b32_s = best_of_two(|| {
        for chunk in sequences.chunks(32) {
            black_box(embed_ids(
                pipeline.encoder(),
                black_box(chunk),
                Pooling::Mean,
            ));
        }
    });
    let heavy = &lines[..sizes.ladder_heavy_lines.min(lines.len())];
    let h = heavy.len() as f64;
    let forward_b1_s = best_of_two(|| {
        for seq in &sequences[..heavy.len()] {
            black_box(embed_ids(
                pipeline.encoder(),
                black_box(std::slice::from_ref(seq)),
                Pooling::Mean,
            ));
        }
    });
    // `process` parses every line itself, so its own work is what it
    // adds to the parse.
    m.insert("shell_parser.parse_us_per_line", us(parse_s + mask_s, n));
    m.insert(
        "core.preprocess_us_per_line",
        us((preprocess_s - parse_s).max(0.0), n),
    );
    m.insert("bpe.encode_us_per_line", us(bpe_s, n));
    m.insert("bpe.tokens_per_line", tokens as f64 / n);
    m.insert("nn.forward_us_per_line_b32", us(forward_b32_s, n));
    m.insert("nn.forward_us_per_line_b1", us(forward_b1_s, h));

    // --- index and engine rungs, micro-batches of the heavy lines ---
    let batches: Vec<&[String]> = heavy.chunks(spec.batch).collect();
    let views: Vec<EmbeddingView> = batches.iter().map(|chunk| world.embed(chunk)).collect();
    // The two indexes the detector set holds: every row behind
    // vanilla kNN, the labelled-positive rows behind retrieval.
    let all_rows = spec.train.matrix().clone();
    let positive_rows = rows(spec.train.matrix(), |r| spec.labels[r]);
    let (mut knn, mut retrieval) = (None, None);
    let passes_before = index::construction_passes();
    let build_s = time(|| {
        knn = Some(spec.index.build(all_rows));
        retrieval = Some(spec.index.build(positive_rows));
    });
    let (knn, mut retrieval) = (knn.expect("built"), retrieval.expect("built"));
    let scan_s = best_of_two(|| {
        for view in &views {
            black_box(knn.query_batch(black_box(view.matrix()), KNN_K));
            black_box(retrieval.query_batch(black_box(view.matrix()), RETRIEVAL_K));
        }
    });
    m.insert("index.scan_us_per_query", us(scan_s, h));
    m.insert(
        "index.bytes_per_query",
        (knn.candidate_bytes() + retrieval.candidate_bytes()) as f64,
    );
    m.insert("index.rows", (knn.len() + retrieval.len()) as f64);
    m.insert("index.build_s", build_s);
    m.insert(
        "index.hnsw_build_us_per_tenant",
        if index::construction_passes() > passes_before {
            build_s * 1e6
        } else {
            0.0
        },
    );
    let inserts = views.len().min(64);
    let insert_s = time(|| {
        for view in &views[..inserts] {
            black_box(retrieval.insert(black_box(view.matrix().row(0))));
        }
    });
    m.insert(
        "index.insert_us_per_row",
        us(insert_s, inserts.max(1) as f64),
    );
    drop((knn, retrieval));

    let engine = fit_engine(&spec.train, &spec.labels, spec.index);
    let engine_s = best_of_two(|| {
        for view in &views {
            black_box(engine.score(black_box(view)));
        }
    });
    let inline_s = best_of_two(|| {
        for chunk in &batches {
            black_box(engine.score(&world.embed(black_box(chunk))));
        }
    });
    let anomaly_s = (engine_s - scan_s).max(0.0);
    m.insert("anomaly.score_self_us_per_line", us(anomaly_s, h));

    // --- serving rungs ---
    let front = Frontend::spawn(pipeline.clone(), engine, 1, serve_config())
        .expect("serve config is valid");
    let client = front.client();
    let service_s = best_of_two(|| {
        for chunk in &batches {
            black_box(client.score_batch(black_box(chunk))).expect("service is running");
        }
    });
    let service_self_s = (service_s - inline_s).max(0.0);
    m.insert("serve.service.self_us_per_line", us(service_self_s, h));

    let mut router_self_s = 0.0;
    if spec.shards > 1 {
        let sharded = fit_engine(
            &spec.train,
            &spec.labels,
            spec.index.with_shards(spec.shards),
        );
        let config = RouterConfig {
            shards: spec.shards,
            serve: serve_config(),
            shard_workers: 1,
        };
        let router = ShardRouter::spawn(pipeline.clone(), sharded, config)
            .expect("engine is fitted over spec.shards shards");
        let router_s = best_of_two(|| {
            for chunk in &batches {
                black_box(router.score_batch(black_box(chunk))).expect("router is running");
            }
        });
        router.shutdown();
        // May be negative: the shard pools scan in parallel where the
        // unsharded worker scans alone.
        router_self_s = router_s - service_s;
        m.insert("serve.router.self_us_per_line", us(router_self_s, h));
    }

    // The request pair: the same requests in-process and over TCP,
    // neither through a cache.
    let requests: Vec<&[String]> = heavy.chunks(spec.request_lines).collect();
    let inproc_s = best_of_two(|| {
        for chunk in &requests {
            black_box(client.score_batch(black_box(chunk))).expect("service is running");
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let config = NetConfig {
        cache: None,
        ..NetConfig::default()
    };
    let server = NetServer::spawn_on(front, listener, config).expect("net config is valid");
    let net = NetClient::connect(server.local_addr()).expect("loopback handshake");
    let mut verdicts = Vec::new();
    let wire_s = best_of_two(|| {
        for chunk in &requests {
            verdicts = black_box(net.score_batch(black_box(chunk))).expect("server is running");
        }
    });
    drop(net);
    let front = server.shutdown();
    let net_self_s = wire_s - inproc_s;
    m.insert(
        "serve.net.self_us_per_req",
        us(net_self_s, requests.len().max(1) as f64),
    );

    // The cache rung: fill it, then time a pass that only hits.
    let mut cache_lookup_s = 0.0;
    match spec.cache {
        Some(capacity) => {
            let cached = front.with_cache(capacity).expect("capacity is nonzero");
            for chunk in &batches {
                cached.score_batch(chunk).expect("service is running");
            }
            cache_lookup_s = time(|| {
                for chunk in &batches {
                    black_box(cached.score_batch(black_box(chunk))).expect("all hits");
                }
            });
            m.insert("serve.cache.lookup_us", us(cache_lookup_s, h));
            cached.shutdown();
        }
        None => front.shutdown(),
    }

    // Codec alone, on one request and its response as the workload
    // shapes them.
    let request = WireRequest::Score {
        lines: requests[0].to_vec(),
    };
    let response = WireResponse::Scores(verdicts);
    let reps = 1_000;
    let (mut request_bytes, mut response_bytes) = (0, 0);
    let codec_s = time(|| {
        for id in 0..reps {
            let payload = encode_request(id, black_box(&request));
            request_bytes = payload.len();
            black_box(decode_request(&payload)).expect("round trip");
            let payload = encode_response(id, black_box(&response));
            response_bytes = payload.len();
            black_box(decode_response(&payload)).expect("round trip");
        }
    });
    m.insert("serve.wire.codec_us_per_req", us(codec_s, reps as f64));
    m.insert(
        "serve.wire.bytes_per_req",
        (request_bytes + response_bytes + 8) as f64,
    );

    // Shares of the per-line ladder total. The forward pass counts at
    // the micro-batch size the rungs above it ran with.
    let forward_s = if spec.batch >= 16 {
        forward_b32_s / n
    } else {
        forward_b1_s / h
    };
    let encode = (mask_s + preprocess_s.max(parse_s) + bpe_s) / n + forward_s;
    let net_per_line = if spec.over_wire {
        net_self_s.max(0.0) / h
    } else {
        0.0
    };
    let total = encode
        + (scan_s + anomaly_s + service_self_s + router_self_s.max(0.0) + cache_lookup_s) / h
        + net_per_line;
    m.insert("ladder.encode_share", encode / total);
    m.insert("ladder.index_share", scan_s / h / total);
}
