//! The four workloads: how each builds its system under test from the
//! shared [`World`], what one request is, and how its verify pass
//! checks the verdicts.

use crate::gen::{run_callers, run_wire, Outcome, Pace, Phase, Tracing, WireConn};
use crate::ladder::LadderSpec;
use crate::stats::Fnv;
use crate::world::{
    fit_engine, retrieval_f1, serve_config, transpose, Sizes, World, SYSTEM_SEED, ZIPF_S,
};
use crate::Metrics;
use cmdline_ids::engine::{EmbeddingView, IndexConfig, Quantization};
use corpus::{DatasetBuilder, ZipfSampler};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serve::{
    Frontend, NetConfig, NetServer, RouterConfig, ServiceClient, ShardRouter, TenantConfig,
    TenantId, TenantService,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Requests kept in flight on the wire connection in the closed loop.
const WIRE_WINDOW: usize = 32;
/// Caller threads of the in-process workloads.
const CALLERS: u64 = 2;
/// Lines per `scan_sharded` request.
const SCAN_BATCH: usize = 16;
const SCAN_SHARDS: usize = 4;
/// Lines the `scan_sharded` reference scores per pass.
const REFERENCE_BATCH: usize = 256;
/// `scan_sharded` verifies every third pool line: a line costs a
/// millisecond here and again in the reference, and the whole pool
/// would be a quarter of the run.
const SCAN_VERIFY_STRIDE: usize = 3;
/// Lines per `tenant_churn` score request; every `APPEND_EVERY`th
/// operation appends `APPEND_ROWS` labelled lines instead.
const TENANT_BATCH: usize = 4;
const APPEND_EVERY: u64 = 20;
const APPEND_ROWS: usize = 2;
/// Lines each verified tenant scores before and after its append.
const TENANT_VERIFY_LINES: usize = 32;
/// Request ids of the verify pass start here, clear of every phase.
const VERIFY_FIRST_REQUEST: u64 = 1 << 40;
/// Lines per ladder micro-batch on the wire workloads:
/// `ServeConfig::max_batch`, the batch the workers form out of 32
/// single-line requests in flight, so no rung waits out a batch
/// window. The in-process workloads use their request size, which
/// keeps `query_batch` on one thread: rung times are then busy times.
const LADDER_BATCH: usize = 32;
/// Mixed into the run's seed for the ladder's line sample.
const LADDER_SEED: u64 = 0x1ADD;

/// What a verify pass found.
#[derive(Debug, Clone, Copy)]
pub struct Verify {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the verdict bit patterns; repeats for a seed.
    pub checksum: u64,
    pub f1: f64,
}

/// Monotonic counters of the serving layers, as their public stats
/// give them (`ServiceStats`, `CacheStats`, `TenantStats`,
/// `index::construction_passes`); a layer the workload lacks stays 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub lines: usize,
    pub batches: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub cache_evictions: usize,
    pub cache_epoch: u64,
    pub promotions: usize,
    pub demotions: usize,
    pub evictions: usize,
    pub construction_passes: u64,
}

impl Counters {
    /// Writes what happened between `earlier` and `self` into `m`.
    pub fn report_since(&self, earlier: &Counters, m: &mut Metrics) {
        let batches = self.batches - earlier.batches;
        if batches > 0 {
            m.insert(
                "serve.service.lines_per_batch",
                (self.lines - earlier.lines) as f64 / batches as f64,
            );
        }
        let hits = self.cache_hits - earlier.cache_hits;
        let lookups = hits + self.cache_misses - earlier.cache_misses;
        if lookups > 0 {
            m.insert("serve.cache.hit_ratio", hits as f64 / lookups as f64);
        }
        let since = |now: usize, then: usize| (now - then) as f64;
        m.insert(
            "serve.cache.evictions",
            since(self.cache_evictions, earlier.cache_evictions),
        );
        m.insert(
            "serve.cache.epoch",
            (self.cache_epoch - earlier.cache_epoch) as f64,
        );
        m.insert(
            "serve.tenants.promotions",
            since(self.promotions, earlier.promotions),
        );
        m.insert(
            "serve.tenants.demotions",
            since(self.demotions, earlier.demotions),
        );
        m.insert(
            "serve.tenants.evictions",
            since(self.evictions, earlier.evictions),
        );
        m.insert(
            "index.construction_passes",
            (self.construction_passes - earlier.construction_passes) as f64,
        );
    }
}

/// Where set-up time went, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    pub pretrain_s: f64,
    pub exemplar_embed_s: f64,
    pub index_build_s: f64,
}

pub trait Workload {
    /// Runs one warm-up, `sat` or `paced` phase of this workload's
    /// traffic.
    fn phase(&mut self, pace: Pace, seed: u64, tracing: Tracing) -> Phase;
    /// Scores a fixed set of lines through the measured path and
    /// compares every verdict bit for bit with an in-process reference.
    fn verify(&mut self) -> Verify;
    /// Called before each slice of a measured phase: replaces whatever
    /// threads outlive a phase. In-process callers are spawned per
    /// phase anyway; the wire workloads reconnect, which gives the
    /// connection new reader and writer threads on the server.
    fn fresh_threads(&mut self) {}
    fn setup_parts(&self) -> SetupParts;
    fn world(&self) -> &World;
    /// Monotonic counters from the public stats of the layers this
    /// workload uses. Read after the warm-up and again after the traced
    /// phases; the per-layer report is built from the difference.
    fn counters(&self) -> Counters;
    /// Gauges, and timings only this workload can take. Called after
    /// the verify pass: it may disturb tenant residency and state.
    fn probes(&mut self, m: &mut Metrics);
    /// What the layer ladder needs to rebuild this workload's layers
    /// one at a time.
    fn ladder_spec(&self, sizes: &Sizes) -> LadderSpec;
    /// Stops every thread the workload started.
    fn shutdown(self: Box<Self>);
}

/// Builds the workload at `index` of [`crate::spec::WORKLOADS`] over a
/// fresh [`World`]; returns once its first request has been accepted.
/// The system is the same for every `seed`: the seed orders the verify
/// pass and picks the ladder's line sample.
pub fn build(index: usize, seed: u64, sizes: &Sizes) -> Box<dyn Workload> {
    let world = Arc::new(World::build(sizes));
    match index {
        0 => Box::new(Wire::build(world, seed, sizes, None)),
        1 => Box::new(Wire::build(world, seed, sizes, NetConfig::default().cache)),
        2 => Box::new(Scan::build(world, seed, sizes)),
        3 => Box::new(Tenants::build(world, seed, sizes)),
        _ => unreachable!("workload index comes from spec::workload_index"),
    }
}

/// A pool position: Zipf-ranked when a sampler is given, else uniform.
fn draw(zipf: Option<&ZipfSampler>, pool_len: usize, rng: &mut StdRng) -> usize {
    match zipf {
        Some(zipf) => zipf.sample(rng),
        None => rng.gen_range(0..pool_len),
    }
}

fn draw_lines(pool: &[String], n: usize, rng: &mut StdRng) -> Vec<String> {
    (0..n)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

/// Counts positions where `got` differs from `want` in any bit (a
/// missing verdict differs).
fn mismatches(got: &[Vec<f32>], want: &[Vec<f32>]) -> u64 {
    let same = |a: &Vec<f32>, b: &Vec<f32>| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let differing = got.iter().zip(want).filter(|(a, b)| !same(a, b)).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

// --- wire_cold / wire_zipf_hot --------------------------------------

struct Wire {
    world: Arc<World>,
    seed: u64,
    server: NetServer,
    conn: WireConn,
    /// Zipf over pool positions when the workload is the hot one.
    zipf: Option<ZipfSampler>,
    train: EmbeddingView,
    labels: Vec<bool>,
    cache: Option<usize>,
    parts: SetupParts,
}

impl Wire {
    fn build(world: Arc<World>, seed: u64, sizes: &Sizes, cache: Option<usize>) -> Wire {
        let (lines, labels) = world.exemplars(sizes.wire_exemplars);
        let t = Instant::now();
        let train = world.embed(&lines);
        let exemplar_embed_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let engine = fit_engine(&train, &labels, IndexConfig::Exact);
        let index_build_s = t.elapsed().as_secs_f64();
        let front = Frontend::spawn(world.exp.pipeline.clone(), engine, 1, serve_config())
            .expect("serve config is valid");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let config = NetConfig {
            cache,
            ..NetConfig::default()
        };
        let server = NetServer::spawn_on(front, listener, config).expect("net config is valid");
        let conn = WireConn::connect(server.local_addr()).expect("loopback handshake");
        assert_eq!(conn.methods().len(), 2, "two methods per verdict");
        Wire {
            zipf: cache.map(|_| ZipfSampler::new(world.pool.len(), ZIPF_S)),
            parts: SetupParts {
                pretrain_s: world.pretrain_s,
                exemplar_embed_s,
                index_build_s,
            },
            world,
            seed,
            server,
            conn,
            train,
            labels,
            cache,
        }
    }
}

impl Workload for Wire {
    fn fresh_threads(&mut self) {
        self.conn = WireConn::connect(self.server.local_addr()).expect("loopback handshake");
    }

    fn phase(&mut self, pace: Pace, seed: u64, tracing: Tracing) -> Phase {
        let (pool, zipf) = (&self.world.pool, self.zipf.as_ref());
        run_wire(
            &mut self.conn,
            pace,
            WIRE_WINDOW,
            seed,
            tracing,
            false,
            |rng| vec![pool[draw(zipf, pool.len(), rng)].clone()],
        )
    }

    fn verify(&mut self) -> Verify {
        let (lines, truth) = self.world.shuffled_pool(self.seed, 1);
        let mut next = 0;
        let phase = run_wire(
            &mut self.conn,
            Pace::Count {
                n: lines.len() as u64,
            },
            WIRE_WINDOW,
            0,
            Tracing::off(VERIFY_FIRST_REQUEST),
            true,
            |_| {
                next += 1;
                vec![lines[next - 1].clone()]
            },
        );
        let got: Vec<Vec<f32>> = phase
            .verdicts
            .into_iter()
            .map(|v| v.and_then(|mut lines| lines.pop()).unwrap_or_default())
            .collect();
        let want = self
            .server
            .front()
            .client()
            .score_batch(&lines)
            .expect("front-end is running");
        let mut checksum = Fnv::default();
        checksum.push_verdicts(&want);
        Verify {
            attempted: lines.len() as u64,
            failed: mismatches(&got, &want),
            checksum: checksum.finish(),
            f1: retrieval_f1(&want, &truth),
        }
    }

    fn setup_parts(&self) -> SetupParts {
        self.parts
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn counters(&self) -> Counters {
        let stats = self.server.front().stats();
        let cache = self.server.front().cache().map(|c| c.stats());
        Counters {
            lines: stats.lines,
            batches: stats.batches,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_evictions: cache.map_or(0, |c| c.evictions),
            cache_epoch: stats.epoch,
            ..Counters::default()
        }
    }

    fn probes(&mut self, _: &mut Metrics) {}

    fn ladder_spec(&self, sizes: &Sizes) -> LadderSpec {
        let mut rng = StdRng::seed_from_u64(self.seed ^ LADDER_SEED);
        LadderSpec {
            train: self.train.clone(),
            labels: self.labels.clone(),
            index: IndexConfig::Exact,
            shards: 1,
            cache: self.cache,
            batch: LADDER_BATCH,
            request_lines: 1,
            over_wire: true,
            lines: (0..sizes.ladder_lines)
                .map(|_| {
                    let pool = &self.world.pool;
                    pool[draw(self.zipf.as_ref(), pool.len(), &mut rng)].clone()
                })
                .collect(),
        }
    }

    fn shutdown(self: Box<Self>) {
        let Wire { server, conn, .. } = *self;
        // Closing our end lets the connection's threads see EOF.
        drop(conn);
        server.shutdown().shutdown();
    }
}

// --- scan_sharded ---------------------------------------------------

struct Scan {
    world: Arc<World>,
    seed: u64,
    front: Frontend,
    client: ServiceClient,
    train: EmbeddingView,
    labels: Vec<bool>,
    index: IndexConfig,
    shard_skew: f64,
    parts: SetupParts,
}

impl Scan {
    fn build(world: Arc<World>, seed: u64, sizes: &Sizes) -> Scan {
        // A second, larger draw: the exemplar set a deployment has
        // accumulated, labelled by the same black-box IDS.
        let mut rng = StdRng::seed_from_u64(SYSTEM_SEED ^ 0x5CA9);
        let draw = DatasetBuilder::new()
            .train_size(sizes.scan_rows)
            .test_size(1)
            .attack_prob(0.2)
            .build(&mut rng);
        let lines: Vec<String> = draw.train.into_iter().map(|r| r.line).collect();
        let labels: Vec<bool> = lines.iter().map(|l| world.exp.is_alert(l)).collect();
        let t = Instant::now();
        let train = world.embed(&lines);
        let exemplar_embed_s = t.elapsed().as_secs_f64();
        let index = IndexConfig::Exact.with_quant(Quantization::I8);
        let t = Instant::now();
        let engine = fit_engine(&train, &labels, index.with_shards(SCAN_SHARDS));
        let index_build_s = t.elapsed().as_secs_f64();
        let router = ShardRouter::spawn(
            world.exp.pipeline.clone(),
            engine,
            RouterConfig {
                shards: SCAN_SHARDS,
                serve: serve_config(),
                shard_workers: 1,
            },
        )
        .expect("engine is fitted over SCAN_SHARDS shards");
        let rows = router
            .shard_row_counts("vanilla-knn")
            .expect("vanilla-knn is partitioned");
        let mean = rows.iter().sum::<usize>() as f64 / rows.len() as f64;
        let shard_skew = rows.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
        let front = Frontend::from(router);
        let client = front.client();
        client
            .score_line(&world.pool[0])
            .expect("router accepts its first request");
        Scan {
            parts: SetupParts {
                pretrain_s: world.pretrain_s,
                exemplar_embed_s,
                index_build_s,
            },
            world,
            seed,
            front,
            client,
            train,
            labels,
            index,
            shard_skew,
        }
    }
}

impl Workload for Scan {
    fn phase(&mut self, pace: Pace, seed: u64, tracing: Tracing) -> Phase {
        let (pool, client) = (&self.world.pool, &self.client);
        run_callers(pace, CALLERS, seed, tracing, |rng, request, sink| {
            let lines = draw_lines(pool, SCAN_BATCH, rng);
            let scored = sink.call(request, 1, "serve.client.score_batch", || {
                client.score_batch(&lines)
            });
            Outcome {
                lines: SCAN_BATCH as u32,
                ok: scored.is_ok_and(|v| v.len() == SCAN_BATCH),
            }
        })
    }

    fn verify(&mut self) -> Verify {
        let (pool, truth) = self.world.shuffled_pool(self.seed, SCAN_VERIFY_STRIDE);
        let mut got = Vec::with_capacity(pool.len());
        for chunk in pool.chunks(SCAN_BATCH) {
            got.extend(self.client.score_batch(chunk).unwrap_or_default());
        }
        // The sharded i8 scan must merge to exactly what one unsharded
        // i8 scan over the same exemplars gives.
        let reference = fit_engine(&self.train, &self.labels, self.index);
        let mut want = Vec::with_capacity(pool.len());
        // In slices: one scan of the whole pool holds a pool × rows
        // similarity matrix, gigabytes here.
        for chunk in pool.chunks(REFERENCE_BATCH) {
            let run = reference.score(&self.world.embed(chunk));
            want.extend(transpose(run.outputs(), chunk.len()));
        }
        let mut checksum = Fnv::default();
        checksum.push_verdicts(&want);
        Verify {
            attempted: pool.len().div_ceil(SCAN_BATCH) as u64,
            failed: mismatches(&got, &want),
            checksum: checksum.finish(),
            f1: retrieval_f1(&want, &truth),
        }
    }

    fn setup_parts(&self) -> SetupParts {
        self.parts
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn counters(&self) -> Counters {
        let stats = self.front.stats();
        Counters {
            lines: stats.lines,
            batches: stats.batches,
            ..Counters::default()
        }
    }

    fn probes(&mut self, m: &mut Metrics) {
        m.insert("serve.router.shard_skew", self.shard_skew);
    }

    fn ladder_spec(&self, sizes: &Sizes) -> LadderSpec {
        let mut rng = StdRng::seed_from_u64(self.seed ^ LADDER_SEED);
        LadderSpec {
            train: self.train.clone(),
            labels: self.labels.clone(),
            index: self.index,
            shards: SCAN_SHARDS,
            cache: None,
            batch: SCAN_BATCH,
            request_lines: SCAN_BATCH,
            over_wire: false,
            lines: draw_lines(&self.world.pool, sizes.ladder_lines, &mut rng),
        }
    }

    fn shutdown(self: Box<Self>) {
        self.front.shutdown();
    }
}

// --- tenant_churn ---------------------------------------------------

struct Tenants {
    world: Arc<World>,
    seed: u64,
    front: Frontend,
    svc: Arc<TenantService>,
    config: TenantConfig,
    rows: TenantRows,
    zipf: ZipfSampler,
    /// Tenants the verify pass checks, in the order it checks them:
    /// they take score traffic like any other but never an append, so
    /// their state at verify time is the same on every run.
    verify_ids: Vec<u64>,
    is_verify: Vec<bool>,
    cold_frame_bytes: usize,
    /// Graph constructions the caller threads ran inside tenant calls
    /// (`index::construction_passes` counts per thread).
    construction_passes: AtomicU64,
    parts: SetupParts,
}

/// The pre-embedded, labelled row pool tenant partitions are cut from.
struct TenantRows {
    view: EmbeddingView,
    positives: Vec<usize>,
    negatives: Vec<usize>,
    per_tenant: usize,
}

impl TenantRows {
    /// Tenant `t`'s baseline: an eighth of its rows labelled positive
    /// (so the retrieval method always has exemplars), the rest not.
    fn partition(&self, t: u64) -> (EmbeddingView, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(SYSTEM_SEED ^ (t + 1).wrapping_mul(0x007E_4A47));
        let n_pos = (self.per_tenant / 8).max(1);
        let source = self.view.matrix();
        let mut matrix = Matrix::zeros(self.per_tenant, source.cols());
        let mut labels = Vec::with_capacity(self.per_tenant);
        for r in 0..self.per_tenant {
            let from = if r < n_pos {
                &self.positives
            } else {
                &self.negatives
            };
            let src = from[rng.gen_range(0..from.len())];
            matrix.row_mut(r).copy_from_slice(source.row(src));
            labels.push(r < n_pos);
        }
        (EmbeddingView::from_matrix(matrix), labels)
    }
}

impl Tenants {
    fn build(world: Arc<World>, seed: u64, sizes: &Sizes) -> Tenants {
        let (lines, labels) = world.exemplars(sizes.pretrain_lines);
        let t = Instant::now();
        let view = world.embed(&lines);
        let exemplar_embed_s = t.elapsed().as_secs_f64();
        let rows = TenantRows {
            positives: (0..labels.len()).filter(|&i| labels[i]).collect(),
            negatives: (0..labels.len()).filter(|&i| !labels[i]).collect(),
            view,
            per_tenant: sizes.tenant_rows,
        };
        assert!(
            !rows.positives.is_empty() && !rows.negatives.is_empty(),
            "the row pool holds both labels"
        );
        let mut config = TenantConfig {
            groups: 4,
            index: IndexConfig::hnsw().with_quant(Quantization::I8),
            mem_budget: usize::MAX,
            ..TenantConfig::default()
        };

        // One tenant's hot and cold footprint sizes the budget: every
        // tenant's cold frame plus `hot_share` of them resident.
        let probe = TenantService::new(config).expect("tenant config is valid");
        let (view0, labels0) = rows.partition(0);
        probe
            .create_tenant_from_view(TenantId(0), &view0, &labels0)
            .expect("probe tenant fits");
        let hot_bytes = probe.accounted_bytes();
        probe.demote(TenantId(0)).expect("probe tenant demotes");
        let cold_frame_bytes = probe.accounted_bytes();
        let resident = (sizes.hot_share * sizes.tenants as f64).ceil() as usize;
        config.mem_budget = sizes.tenants as usize * cold_frame_bytes
            + resident * hot_bytes.saturating_sub(cold_frame_bytes);

        let t = Instant::now();
        let svc = Arc::new(
            TenantService::with_pipeline(world.exp.pipeline.clone(), config)
                .expect("tenant config is valid"),
        );
        for id in 0..sizes.tenants {
            let (view, labels) = rows.partition(id);
            svc.create_tenant_from_view(TenantId(id), &view, &labels)
                .expect("tenant fits");
        }
        let index_build_s = t.elapsed().as_secs_f64();

        // `Frontend` needs a global detector set beside the tenant
        // map; tenant traffic never reaches it.
        let engine = fit_engine(&view0, &labels0, IndexConfig::Exact);
        let front = Frontend::spawn(world.exp.pipeline.clone(), engine, 1, serve_config())
            .expect("serve config is valid")
            .with_tenants(svc.clone());
        front
            .score_tenant(TenantId(0), &world.pool[..1])
            .expect("tenant map accepts its first request");

        let mut rng = StdRng::seed_from_u64(SYSTEM_SEED ^ 0x7E57);
        let mut is_verify = vec![false; sizes.tenants as usize];
        let mut verify_ids = Vec::new();
        while verify_ids.len() < sizes.verify_tenants.min(sizes.tenants as usize / 2) {
            let id = rng.gen_range(0..sizes.tenants);
            if !is_verify[id as usize] {
                is_verify[id as usize] = true;
                verify_ids.push(id);
            }
        }
        // Which tenants are verified belongs to the system; the order
        // they are verified in belongs to the run.
        verify_ids.shuffle(&mut StdRng::seed_from_u64(seed));
        Tenants {
            parts: SetupParts {
                pretrain_s: world.pretrain_s,
                exemplar_embed_s,
                index_build_s,
            },
            zipf: ZipfSampler::new(sizes.tenants as usize, ZIPF_S),
            world,
            seed,
            front,
            svc,
            config,
            rows,
            verify_ids,
            is_verify,
            cold_frame_bytes,
            construction_passes: AtomicU64::new(0),
        }
    }

    /// The lines every verified tenant scores: half malicious, half
    /// benign, in pool order.
    fn verify_lines(&self) -> (Vec<String>, Vec<bool>) {
        let (pool, truth) = (&self.world.pool, &self.world.truth);
        let pick = |want: bool| {
            (0..pool.len())
                .filter(move |&i| truth[i] == want)
                .take(TENANT_VERIFY_LINES / 2)
        };
        let picked: Vec<usize> = pick(true).chain(pick(false)).collect();
        (
            picked.iter().map(|&i| pool[i].clone()).collect(),
            picked.iter().map(|&i| truth[i]).collect(),
        )
    }
}

impl Workload for Tenants {
    fn phase(&mut self, pace: Pace, seed: u64, tracing: Tracing) -> Phase {
        let (pool, truth) = (&self.world.pool, &self.world.truth);
        let (front, zipf, is_verify) = (&self.front, &self.zipf, &self.is_verify);
        let constructions = &self.construction_passes;
        run_callers(pace, CALLERS, seed, tracing, |rng, request, sink| {
            let passes_before = index::construction_passes();
            let mut tenant = zipf.sample(rng);
            let outcome = if request % APPEND_EVERY == APPEND_EVERY - 1 {
                while is_verify[tenant] {
                    tenant = (tenant + 1) % is_verify.len();
                }
                let picks: Vec<usize> = (0..APPEND_ROWS)
                    .map(|_| rng.gen_range(0..pool.len()))
                    .collect();
                let lines: Vec<String> = picks.iter().map(|&i| pool[i].clone()).collect();
                let labels: Vec<bool> = picks.iter().map(|&i| truth[i]).collect();
                let absorbed = sink.call(request, 1, "serve.front.append_tenant", || {
                    front.append_tenant(TenantId(tenant as u64), &lines, &labels)
                });
                Outcome {
                    lines: 0,
                    ok: absorbed.is_ok(),
                }
            } else {
                let lines = draw_lines(pool, TENANT_BATCH, rng);
                let scored = sink.call(request, 1, "serve.front.score_tenant", || {
                    front.score_tenant(TenantId(tenant as u64), &lines)
                });
                Outcome {
                    lines: TENANT_BATCH as u32,
                    ok: scored.is_ok_and(|v| v.len() == TENANT_BATCH),
                }
            };
            // A statistic: publishes no other data.
            let passes = index::construction_passes() - passes_before;
            constructions.fetch_add(passes as u64, Ordering::Relaxed);
            outcome
        })
    }

    fn verify(&mut self) -> Verify {
        let (lines, truth) = self.verify_lines();
        let query = self.world.embed(&lines);
        let append_lines = self.world.pool[..APPEND_ROWS].to_vec();
        let append_labels = self.world.truth[..APPEND_ROWS].to_vec();
        let append_view = self.world.embed(&append_lines);
        let mut checksum = Fnv::default();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let (mut first_pass, mut first_truth) = (Vec::new(), Vec::new());
        let score_served = |id: u64| {
            let mut got = Vec::with_capacity(lines.len());
            for chunk in lines.chunks(TENANT_BATCH) {
                got.extend(
                    self.front
                        .score_tenant(TenantId(id), chunk)
                        .unwrap_or_default(),
                );
            }
            got
        };
        let per_pass = lines.len().div_ceil(TENANT_BATCH) as u64;
        for &id in &self.verify_ids {
            let (view, labels) = self.rows.partition(id);
            let mut dedicated = fit_engine(&view, &labels, self.config.index);
            let score_dedicated = |engine: &cmdline_ids::engine::FittedEngine| {
                transpose(engine.score(&query).outputs(), lines.len())
            };

            let want = score_dedicated(&dedicated);
            failed += mismatches(&score_served(id), &want);
            checksum.push_verdicts(&want);
            first_pass.extend(want);
            first_truth.extend_from_slice(&truth);

            // The append path: served and dedicated absorb the same
            // rows and must still agree.
            let served = self
                .front
                .append_tenant(TenantId(id), &append_lines, &append_labels);
            let absorbed = dedicated.append(&append_view, &append_labels);
            failed += u64::from(served.ok() != absorbed.ok());
            let want = score_dedicated(&dedicated);
            failed += mismatches(&score_served(id), &want);
            checksum.push_verdicts(&want);
            attempted += 2 * per_pass + 1;
        }
        let stats = self.svc.stats();
        attempted += 1;
        failed += u64::from(stats.accounted_bytes > stats.budget);
        Verify {
            attempted,
            failed,
            checksum: checksum.finish(),
            f1: retrieval_f1(&first_pass, &first_truth),
        }
    }

    fn setup_parts(&self) -> SetupParts {
        self.parts
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn counters(&self) -> Counters {
        let stats = self.svc.stats();
        Counters {
            promotions: stats.promotions,
            demotions: stats.demotions,
            evictions: stats.evictions,
            construction_passes: self.construction_passes.load(Ordering::Relaxed),
            ..Counters::default()
        }
    }

    fn probes(&mut self, m: &mut Metrics) {
        let stats = self.svc.stats();
        m.insert(
            "serve.tenants.hot_ratio",
            stats.hot as f64 / stats.tenants.max(1) as f64,
        );
        m.insert(
            "serve.tenants.accounted_bytes",
            stats.accounted_bytes as f64,
        );
        m.insert(
            "serve.tenants.frame_bytes_per_tenant",
            self.cold_frame_bytes as f64,
        );

        // Cold touch against hot touch on the verified tenants (their
        // state is the same on every run): demote, score once (pays
        // decode + graph rebuild), score again (resident).
        let lines = self.world.pool[..TENANT_BATCH].to_vec();
        let labels = self.world.truth[..APPEND_ROWS].to_vec();
        let (mut cold_s, mut hot_s, mut append_s) = (0.0, 0.0, 0.0);
        for &id in &self.verify_ids {
            let tenant = TenantId(id);
            self.svc.demote(tenant).expect("verified tenant exists");
            let t = Instant::now();
            std::hint::black_box(self.front.score_tenant(tenant, &lines)).expect("cold touch");
            cold_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(self.front.score_tenant(tenant, &lines)).expect("hot touch");
            hot_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(
                self.front
                    .append_tenant(tenant, &lines[..APPEND_ROWS], &labels),
            )
            .expect("append");
            append_s += t.elapsed().as_secs_f64();
        }
        let n = self.verify_ids.len().max(1) as f64;
        m.insert("serve.tenants.promote_us", (cold_s - hot_s) / n * 1e6);
        m.insert(
            "serve.tenants.hot_us_per_line",
            hot_s / n / TENANT_BATCH as f64 * 1e6,
        );
        m.insert(
            "serve.tenants.append_us_per_row",
            append_s / n / APPEND_ROWS as f64 * 1e6,
        );
    }

    fn ladder_spec(&self, sizes: &Sizes) -> LadderSpec {
        let mut rng = StdRng::seed_from_u64(self.seed ^ LADDER_SEED);
        let (train, labels) = self.rows.partition(0);
        LadderSpec {
            train,
            labels,
            index: self.config.index,
            shards: 1,
            cache: None,
            batch: TENANT_BATCH,
            request_lines: TENANT_BATCH,
            over_wire: false,
            lines: draw_lines(&self.world.pool, sizes.ladder_lines, &mut rng),
        }
    }

    fn shutdown(self: Box<Self>) {
        self.front.shutdown();
    }
}
