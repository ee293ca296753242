//! The names the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` carries the
//! same lists (plus direction and bounds); `tests/smoke.rs` checks that
//! the two agree.

/// Workload names with the reason each exists (one line, as in
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "wire_cold",
        "uniform lines over one pipelined TCP connection, no cache: tokenizer and encoder do most of the work, the index almost none",
    ),
    (
        "wire_zipf_hot",
        "Zipf lines over the same connection with the default verdict cache: framing, sockets and the cache lock do the work, the encoder little",
    ),
    (
        "scan_sharded",
        "in-process 16-line batches against a 4-shard exact i8 index of 40 000 rows: the blocked scan and the router dominate, the network is bypassed",
    ),
    (
        "tenant_churn",
        "Zipf tenants over 2 000 HNSW i8 partitions with 5 % fitting hot, every 20th operation an append: graph builds, inserts and the LRU ledger",
    ),
];

/// End-to-end metrics, `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("lines_per_s", "lines/s"),
    ("p50_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("f1", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, printed by a traced run. Every
/// workload prints all of them; a layer the workload does not use
/// reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    // Tail latency of the traced open loop. An end-to-end figure by
    // nature, listed here because its run-to-run spread on a 2-core
    // box is wider than the 0.10 bound it would need.
    ("p99_us", "us"),
    ("shell_parser.parse_us_per_line", "us"),
    ("core.preprocess_us_per_line", "us"),
    ("bpe.encode_us_per_line", "us"),
    ("bpe.tokens_per_line", "count"),
    ("nn.forward_us_per_line_b32", "us"),
    ("nn.forward_us_per_line_b1", "us"),
    ("core.pipeline.pretrain_s", "s"),
    ("core.embed.exemplar_embed_s", "s"),
    ("index.scan_us_per_query", "us"),
    ("index.bytes_per_query", "B"),
    ("index.rows", "count"),
    ("index.build_s", "s"),
    ("index.hnsw_build_us_per_tenant", "us"),
    ("index.insert_us_per_row", "us"),
    ("index.construction_passes", "count"),
    ("anomaly.score_self_us_per_line", "us"),
    ("serve.service.lines_per_batch", "count"),
    ("serve.service.self_us_per_line", "us"),
    ("serve.router.self_us_per_line", "us"),
    ("serve.router.shard_skew", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.epoch", "count"),
    ("serve.wire.codec_us_per_req", "us"),
    ("serve.wire.bytes_per_req", "B"),
    ("serve.net.self_us_per_req", "us"),
    ("serve.tenants.promotions", "count"),
    ("serve.tenants.demotions", "count"),
    ("serve.tenants.evictions", "count"),
    ("serve.tenants.hot_ratio", "ratio"),
    ("serve.tenants.accounted_bytes", "B"),
    ("serve.tenants.promote_us", "us"),
    ("serve.tenants.hot_us_per_line", "us"),
    ("serve.tenants.append_us_per_row", "us"),
    ("serve.tenants.frame_bytes_per_tenant", "B"),
    ("ladder.encode_share", "ratio"),
    ("ladder.index_share", "ratio"),
    ("gen.late_us_p99", "us"),
    ("gen.sent_per_s", "1/s"),
    ("gen.paced_p50_us", "us"),
    ("gen.traced_lines_per_s", "lines/s"),
    ("gen.traced_requests", "count"),
    ("gen.traced_failed", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Position of `name` in [`WORKLOADS`].
pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(n, _)| *n == name)
}
