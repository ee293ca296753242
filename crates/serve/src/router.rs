//! The scoring service: a resident fitted detector set behind a
//! bounded request queue, with the neighbour methods' exemplars
//! optionally partitioned across shard worker pools.
//!
//! There is one service and one scoring loop. [`RouterConfig::shards`]
//! decides how many pools it feeds:
//!
//! * **`shards == 1` — no pools.** Every detector, neighbour methods
//!   included (sharded-index-fitted or not), is parked in the resident
//!   engine. No pool thread is spawned and no scatter/gather channel is
//!   created; a micro-batch is embedded and scored on the batcher
//!   thread that formed it. One index graph per neighbour method, one
//!   engine write lock every `append` serializes through.
//! * **`shards == N > 1` — N pools.** Spawn takes an engine whose
//!   neighbour detectors were fitted over a sharded index
//!   (`IndexConfig::with_shards(n)`), splits each one into its N
//!   per-shard sub-detectors ([`DetectorState::split_shards`] — saved
//!   HNSW graphs are adopted, never rebuilt), and parks every other
//!   detector (PCA, classification, …) in the resident engine.
//!
//! Either way:
//!
//! * **Scoring**: batcher threads coalesce arrivals into micro-batches
//!   ([`collect_batch`]), embed each batch **once** per pooled space,
//!   then *scatter* the embedded views to every shard's worker pool.
//!   Each pool answers with its shard's top-k candidates per line per
//!   neighbour method; the batcher *gathers* the N answers,
//!   k-way-merges each line's candidates under the exact scan's total
//!   order, and folds them with the method's own scoring rule
//!   ([`ShardMerge`]). Resident detectors score on the batcher thread
//!   while the shards work. Over exact shards the merged verdicts are
//!   **bit-identical** to the pool-less service
//!   (`tests/shard_router_parity.rs`).
//! * **Append** hands the batch to every absorbing resident detector,
//!   then routes each freshly-labeled exemplar of a partitioned method
//!   to its owning shard (same seeded content hash the index layer
//!   partitions by) and write-locks only that shard — scoring against
//!   every other shard proceeds untouched, which is the
//!   write-throughput point of sharding.
//! * **Snapshot** captures resident detectors as they are and
//!   reassembles each partitioned method into one manifest + N shard
//!   frames ([`ShardedDetectorState::merge`]), framed as an ordinary
//!   [`ServiceSnapshot`]; a cold start restores every graph with zero
//!   construction passes and [`ShardRouter::spawn`] re-splits without
//!   rebuilding (`tests/snapshot_cold_start.rs`).

use crate::lifecycle::{LifecycleConfig, LifecycleState, LifecycleStats};
use crate::service::{
    collect_batch, observed_means, CloseGate, Counters, PooledViews, Request, ServeConfig,
    ServeError, ServiceClient, ViewSpec, IDLE_POLL,
};
use crate::snapshot::ServiceSnapshot;
use cmdline_ids::engine::{
    fit_neighbour_detector, merge_shard_candidates, Detector, DetectorState, EmbeddingView,
    FittedEngine, IndexConfig, Quantization, ShardCandidate, ShardMerge, ShardedDetectorState,
    ShardedParams,
};
use cmdline_ids::pipeline::IdsPipeline;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use index::{shard_for_row, IndexSnapshot};
use linalg::Matrix;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// Knobs for a [`ShardRouter`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Number of exemplar shards. `1` keeps every detector resident
    /// and spawns no pool; above `1` it must match the shard count the
    /// neighbour detectors were fitted with
    /// (`IndexConfig::with_shards`).
    pub shards: usize,
    /// Front-end queue and micro-batching knobs; `serve.workers` is
    /// the number of batcher threads forming, scoring and merging
    /// micro-batches.
    pub serve: ServeConfig,
    /// Worker threads per shard pool draining that shard's scatter
    /// queue.
    pub shard_workers: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            serve: ServeConfig::default(),
            shard_workers: 1,
        }
    }
}

impl RouterConfig {
    /// A service over `shards` partitions with default serve knobs.
    pub fn with_shards(shards: usize) -> Self {
        RouterConfig {
            shards,
            ..RouterConfig::default()
        }
    }

    /// Rejects shapes that cannot serve (see [`ServeConfig::validate`];
    /// additionally zero shards or zero shard workers).
    pub fn validate(&self) -> Result<(), ServeError> {
        self.serve.validate()?;
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig(
                "shards must be >= 1 (no partition would own any exemplar)".into(),
            ));
        }
        if self.shard_workers == 0 {
            return Err(ServeError::InvalidConfig(
                "shard_workers must be >= 1 (nothing would drain the shard queues)".into(),
            ));
        }
        Ok(())
    }
}

/// One entry of the verdict-assembly plan, in registration order.
enum Slot {
    /// Index into the resident engine's detectors.
    Resident(usize),
    /// Index into the sharded-method metas.
    Sharded(usize),
}

/// Everything the service knows about one partitioned method beyond
/// its per-shard detectors.
struct ShardedMethodMeta {
    /// Registration name (also the restored method's name).
    name: &'static str,
    /// The pooled space the method's views come from.
    spec: ViewSpec,
    /// How per-shard candidates fold into a score.
    merge: ShardMerge,
    /// Neighbour count.
    k: usize,
    /// Partition shape (seed + shard count + backend).
    params: ShardedParams,
    /// Candidate storage format of the partition (appends that build a
    /// brand-new shard sub-index must quantize like the siblings).
    quant: Quantization,
    /// Embedding dimensionality.
    dim: usize,
    /// Whether only malicious-labeled rows enter the index (retrieval)
    /// — the rows that need shard routing on append.
    malicious_only: bool,
    /// Next global exemplar id — appends assign ids exactly as the
    /// unsharded detector would (dense, batch order).
    next_global: Mutex<usize>,
}

/// One partitioned method's share of one shard: the sub-detector plus
/// its local→global id map.
struct ShardSlot {
    det: Box<dyn Detector>,
    globals: Vec<usize>,
}

/// A shard's mutable state: one optional [`ShardSlot`] per partitioned
/// method (in meta order); `None` while the shard holds no rows for
/// that method.
struct ShardState {
    methods: Vec<Option<ShardSlot>>,
}

/// Per-line candidate lists, per partitioned method, from one shard —
/// ids already mapped to the method's global exemplar space.
type ShardAnswer = Vec<Vec<Vec<ShardCandidate>>>;

/// One scatter job: the embedded micro-batch, which shard it is for
/// (tags the gather reply), and the gather channel.
struct ShardJob {
    views: PooledViews,
    shard: usize,
    reply: mpsc::Sender<(usize, ShardAnswer)>,
}

/// A shard's worker pool handle.
struct ShardPool {
    tx: Sender<ShardJob>,
    state: Arc<RwLock<ShardState>>,
}

struct RouterInner {
    pipeline: IdsPipeline,
    /// Detectors that are not exemplar-partitioned — all of them when
    /// `shards == 1`, else the unsupervised methods and classification
    /// probes — scored on the batcher thread while the shards work.
    /// Refits swap epochs in here.
    resident: RwLock<FittedEngine>,
    metas: Vec<ShardedMethodMeta>,
    plan: Vec<Slot>,
    /// The live shard pools (empty when `shards == 1`), swapped
    /// wholesale by [`ShardRouter::reshard`]. Scoring snapshots the
    /// `Arc` once per micro-batch, so a batch scattered to the old
    /// partition gathers from the old partition even while the swap
    /// lands.
    pools: RwLock<Arc<Vec<ShardPool>>>,
    /// The *current* shard count — `metas[..].params.shards` keeps the
    /// fit-time value (the partitioner seed and backend never change).
    shards: AtomicUsize,
    method_names: Vec<String>,
    counters: Counters,
    /// Serializes appends (and snapshot reassembly, and resharding) so
    /// per-method global ids stay dense and per-shard maps stay
    /// ascending; scoring readers are never blocked by this lock.
    append_lock: Mutex<()>,
    /// The detector-state epoch: bumped after every append, refit swap
    /// and reshard. Shared with an attached [`crate::VerdictCache`] so
    /// one counter invalidates cached verdicts across every kind of
    /// state change, and checked by snapshot captures to detect a swap
    /// that landed mid-capture.
    state_epoch: Arc<AtomicU64>,
    /// The online refit lifecycle, when configured at spawn.
    lifecycle: Option<LifecycleState>,
    /// Knobs + shared stop flag for building replacement pools
    /// mid-flight (reshard).
    shard_workers: usize,
    pool_queue_bound: usize,
    pool_specs: Arc<Vec<ViewSpec>>,
    stop_pools: Arc<AtomicBool>,
    /// Every pool worker ever spawned (at spawn and for resharded pool
    /// sets); joined at shutdown.
    pool_workers: Mutex<Vec<JoinHandle<()>>>,
}

impl RouterInner {
    /// The current pool set, pinned for one operation.
    fn pools(&self) -> Arc<Vec<ShardPool>> {
        self.pools.read().unwrap().clone()
    }

    /// The view specs of the resident detectors `reads` selects.
    fn resident_specs(&self, reads: impl Fn(&dyn Detector) -> bool) -> Vec<ViewSpec> {
        let engine = self.resident.read().unwrap();
        engine
            .detectors()
            .iter()
            .filter(|d| reads(d.as_ref()))
            .map(|d| (d.wants_embeddings(), d.pooling()))
            .collect()
    }

    /// Embeds `lines` once per pooled space that the given resident
    /// consumers or any partitioned method reads.
    fn embed(&self, lines: &[String], resident_specs: &[ViewSpec]) -> PooledViews {
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let specs = resident_specs
            .iter()
            .copied()
            .chain(self.metas.iter().map(|m| m.spec));
        PooledViews::build_specs(&self.pipeline, specs, &refs)
    }

    /// Reassembles partitioned method `m` from the live per-shard
    /// detectors into one manifest + N shard frames
    /// ([`ShardedDetectorState::merge`]); also returns its exemplar
    /// count. The caller holds the append lock.
    fn merged_state(&self, pools: &[ShardPool], m: usize) -> (DetectorState, usize) {
        let meta = &self.metas[m];
        let (states, globals): (Vec<_>, Vec<Vec<usize>>) = pools
            .iter()
            .map(|pool| match &pool.state.read().unwrap().methods[m] {
                Some(slot) => (
                    Some(
                        DetectorState::capture(slot.det.as_ref())
                            .expect("neighbour sub-detectors are capturable"),
                    ),
                    slot.globals.clone(),
                ),
                None => (None, Vec::new()),
            })
            .unzip();
        let total = globals.iter().map(Vec::len).sum();
        let merged = ShardedDetectorState {
            name: meta.name,
            k: meta.k,
            params: ShardedParams {
                shards: self.shards.load(Ordering::Acquire),
                ..meta.params
            },
            quant: meta.quant,
            dim: meta.dim,
            states,
            globals,
        }
        .merge();
        (merged, total)
    }

    /// Runs one refit: fit fresh templates of every refittable
    /// detector on baseline ∪ append-log, then swap them in under one
    /// brief engine write lock. Batchers keep serving the old epoch
    /// for the whole (expensive) embed + fit; only the swap itself
    /// excludes them. The shard pools never hold refittable detectors
    /// — neighbour methods absorb appends directly. Returns the engine
    /// epoch after the swap.
    fn run_refit(&self) -> Result<u64, ServeError> {
        let lc = self.lifecycle.as_ref().ok_or_else(|| {
            ServeError::InvalidConfig(
                "refit requires a lifecycle (spawn with spawn_with_lifecycle)".into(),
            )
        })?;
        // One refit at a time; a second trigger waits and then refits
        // over the longer log, which is never wrong, just newer.
        let _serialized = lc.refit_lock.lock().unwrap();
        let (lines, labels, prefix) = lc.take_training();
        // Collect templates (cheap, unfitted) under a brief read lock.
        let templates: Vec<(usize, Box<dyn Detector>)> = {
            let engine = self.resident.read().unwrap();
            engine
                .detectors()
                .iter()
                .enumerate()
                .filter_map(|(i, det)| det.refit_template().map(|t| (i, t)))
                .collect()
        };
        if templates.is_empty() {
            // Nothing is refittable; still consume the trigger so a
            // background worker does not spin on a permanently-armed
            // trigger.
            lc.finish_refit(prefix);
            return Ok(self.resident.read().unwrap().epoch());
        }
        // Embed + fit entirely off-lock: per-line embeddings are
        // bit-identical regardless of batch composition and the
        // templates carry their seeds, so this reproduces exactly what
        // a stop-the-world refit over the same history would build.
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let views = PooledViews::build_specs(
            &self.pipeline,
            templates
                .iter()
                .map(|(_, t)| (t.wants_embeddings(), t.pooling())),
            &refs,
        );
        let mut fitted = Vec::with_capacity(templates.len());
        for (i, mut template) in templates {
            if let Err(e) = template.fit(&views.for_detector(template.as_ref()), &labels) {
                lc.fail_refit();
                return Err(ServeError::Engine(format!(
                    "refit {:?}: {e}",
                    template.name()
                )));
            }
            fitted.push((i, template));
        }
        // The atomic swap: in-flight micro-batches (engine readers)
        // finish on the old epoch first, then every later batch scores
        // on the new one.
        let epoch = {
            let mut engine = self.resident.write().unwrap();
            engine.install_refits(fitted)
        };
        // State epoch strictly after the swap: a verdict-cache insert
        // that looked up pre-swap observes the bump and drops itself,
        // same discipline as appends.
        self.state_epoch.fetch_add(1, Ordering::AcqRel);
        lc.finish_refit(prefix);
        Ok(epoch)
    }

    /// The mutation half of [`ShardRouter::append`], run under the
    /// append lock: resident detectors first, then each partitioned
    /// method's rows to their owning shards.
    fn absorb(
        &self,
        views: &PooledViews,
        labels: &[bool],
        resident_absorbs: bool,
    ) -> Result<usize, ServeError> {
        let pools = self.pools();
        let mut absorbed = 0usize;
        if resident_absorbs {
            let mut engine = self.resident.write().unwrap();
            absorbed += engine.append_each(labels, |det| views.for_detector(det))?;
        }
        for (m, meta) in self.metas.iter().enumerate() {
            let view = views.view_for(meta.spec);
            let matrix = view.matrix();
            // Route each row the method indexes to its owning shard,
            // assigning global ids in batch order — exactly the dense
            // numbering the unsharded detector would produce.
            let shards = self.shards.load(Ordering::Acquire);
            let mut rows: Vec<Vec<usize>> = vec![Vec::new(); shards];
            let mut ids: Vec<Vec<usize>> = vec![Vec::new(); shards];
            {
                let mut next = meta.next_global.lock().unwrap();
                for (r, &label) in labels.iter().enumerate() {
                    if meta.malicious_only && !label {
                        continue;
                    }
                    let s = shard_for_row(meta.params.seed, shards, matrix.row(r));
                    rows[s].push(r);
                    ids[s].push(*next);
                    *next += 1;
                }
            }
            for (s, pool) in pools.iter().enumerate() {
                if rows[s].is_empty() {
                    continue;
                }
                let mut sub = Matrix::zeros(0, meta.dim);
                let mut sub_labels = Vec::with_capacity(rows[s].len());
                for &r in &rows[s] {
                    sub.push_row(matrix.row(r));
                    sub_labels.push(labels[r]);
                }
                let mut state = pool.state.write().unwrap();
                match &mut state.methods[m] {
                    Some(slot) => {
                        slot.det
                            .append(&EmbeddingView::from_matrix(sub), &sub_labels)
                            .map_err(|e| ServeError::Engine(e.to_string()))?;
                        slot.globals.extend_from_slice(&ids[s]);
                    }
                    empty @ None => {
                        // First rows for this shard: build its
                        // sub-index from scratch (an O(rows) build —
                        // the only construction an append ever runs,
                        // and only for a shard that had nothing).
                        let config = meta.params.backend.config().with_quant(meta.quant);
                        *empty = Some(ShardSlot {
                            det: fit_neighbour_detector(
                                meta.name,
                                &sub,
                                &sub_labels,
                                meta.k,
                                config,
                            ),
                            globals: ids[s].clone(),
                        });
                    }
                }
            }
            absorbed += 1;
        }
        Ok(absorbed)
    }
}

/// A running scoring service. Construct with [`ShardRouter::spawn`]
/// (or through [`crate::Frontend::spawn`], which adds the verdict
/// cache and tenant map); see the module docs for the shape.
pub struct ShardRouter {
    inner: Arc<RouterInner>,
    client: ServiceClient,
    /// Kept to drain (and thereby reject) requests that were already
    /// queued when shutdown fired.
    drain_rx: Receiver<Request>,
    /// Batcher (and refit worker) exit flag. Deliberately separate
    /// from the producer-side close gate: workers must NEVER touch
    /// that `RwLock`, because a producer can hold its read half while
    /// blocked in a full-queue `send` that only a *draining worker*
    /// can unblock — a worker queuing behind shutdown's waiting
    /// `write()` (std `RwLock` blocks new readers then) would deadlock
    /// all three parties.
    stop_batchers: Arc<AtomicBool>,
    batchers: Vec<JoinHandle<()>>,
}

impl ShardRouter {
    /// Spawns the scoring service around a fitted detector set and the
    /// frozen pipeline that embeds arriving lines, splitting the
    /// neighbour detectors across `config.shards` worker pools when
    /// `config.shards > 1`.
    ///
    /// # Errors
    ///
    /// * [`ServeError::StreamStructured`] — a detector cannot serve
    ///   per-line verdicts (e.g. multiline).
    /// * [`ServeError::InvalidConfig`] — bad knobs, or (`shards > 1`)
    ///   a neighbour detector whose fitted index is not sharded
    ///   `config.shards` ways (fit with `IndexConfig::with_shards(n)`,
    ///   or restore a sharded snapshot).
    pub fn spawn(
        pipeline: IdsPipeline,
        engine: FittedEngine,
        config: RouterConfig,
    ) -> Result<ShardRouter, ServeError> {
        Self::spawn_inner(pipeline, engine, config, None)
    }

    /// [`ShardRouter::spawn`] with the online refit lifecycle attached:
    /// appends are logged, served verdicts feed the drift tracker, and
    /// — in background mode — a refit worker re-fits the resident
    /// unsupervised detectors off the accumulated stream and swaps the
    /// new epoch in whenever a trigger fires (neighbour detectors
    /// absorb appends directly and are never refit). Manual mode
    /// ([`LifecycleConfig::manual`]) arms the triggers but leaves
    /// running [`ShardRouter::refit`] to the caller.
    pub fn spawn_with_lifecycle(
        pipeline: IdsPipeline,
        engine: FittedEngine,
        config: RouterConfig,
        lifecycle: LifecycleConfig,
    ) -> Result<ShardRouter, ServeError> {
        Self::spawn_inner(pipeline, engine, config, Some(lifecycle))
    }

    fn spawn_inner(
        pipeline: IdsPipeline,
        engine: FittedEngine,
        config: RouterConfig,
        lifecycle: Option<LifecycleConfig>,
    ) -> Result<ShardRouter, ServeError> {
        config.validate()?;
        for det in engine.detectors() {
            if !det.test_aligned() {
                return Err(ServeError::StreamStructured(det.name().to_string()));
            }
        }
        let method_names: Vec<String> = engine.method_names().iter().map(|&n| n.into()).collect();

        // One shard is no partition: nothing is split, no pool exists.
        let n_pools = if config.shards > 1 { config.shards } else { 0 };
        let mut resident: Vec<Box<dyn Detector>> = Vec::new();
        let mut metas: Vec<ShardedMethodMeta> = Vec::new();
        let mut plan: Vec<Slot> = Vec::new();
        let mut shard_methods: Vec<Vec<Option<ShardSlot>>> =
            (0..n_pools).map(|_| Vec::new()).collect();

        for det in engine.into_detectors() {
            let Some(merge) = det.shard_merge().filter(|_| n_pools > 0) else {
                plan.push(Slot::Resident(resident.len()));
                resident.push(det);
                continue;
            };
            let state = DetectorState::capture(det.as_ref())
                .expect("shard-mergeable detectors are snapshot-capable");
            let split = state.split_shards().map_err(|_| {
                ServeError::InvalidConfig(format!(
                    "method {:?} was not fitted over a sharded index; fit it with \
                     IndexConfig::with_shards({})",
                    det.name(),
                    config.shards
                ))
            })?;
            if split.params.shards != config.shards {
                return Err(ServeError::InvalidConfig(format!(
                    "method {:?} is sharded {} ways but the router was configured for {}",
                    det.name(),
                    split.params.shards,
                    config.shards
                )));
            }
            plan.push(Slot::Sharded(metas.len()));
            metas.push(ShardedMethodMeta {
                name: split.name,
                spec: (det.wants_embeddings(), det.pooling()),
                merge,
                k: split.k,
                params: split.params,
                quant: split.quant,
                dim: split.dim,
                malicious_only: !det.indexes_label(false),
                next_global: Mutex::new(split.globals.iter().map(Vec::len).sum()),
            });
            distribute(split, &mut shard_methods);
        }

        let stop_pools = Arc::new(AtomicBool::new(false));
        let pool_specs: Arc<Vec<ViewSpec>> = Arc::new(metas.iter().map(|m| m.spec).collect());
        // Bounded by in-flight batches: each batcher has at most one
        // scatter outstanding per shard.
        let pool_queue_bound = config.serve.workers * 2;
        let mut pool_workers = Vec::new();
        let pools = spawn_pools(
            shard_methods,
            config.shard_workers,
            pool_queue_bound,
            &pool_specs,
            &stop_pools,
            &mut pool_workers,
        );

        let lifecycle = lifecycle.map(LifecycleState::new).transpose()?;
        let inner = Arc::new(RouterInner {
            pipeline,
            resident: RwLock::new(FittedEngine::from_detectors(resident)),
            metas,
            plan,
            pools: RwLock::new(Arc::new(pools)),
            shards: AtomicUsize::new(config.shards),
            method_names: method_names.clone(),
            counters: Counters::default(),
            append_lock: Mutex::new(()),
            state_epoch: Arc::new(AtomicU64::new(0)),
            lifecycle,
            shard_workers: config.shard_workers,
            pool_queue_bound,
            pool_specs,
            stop_pools,
            pool_workers: Mutex::new(pool_workers),
        });
        let (tx, rx) = bounded::<Request>(config.serve.queue_capacity);
        let gate: Arc<CloseGate> = Arc::new(RwLock::new(false));
        let stop_batchers = Arc::new(AtomicBool::new(false));
        let mut batchers: Vec<JoinHandle<()>> = (0..config.serve.workers)
            .map(|_| {
                let inner = inner.clone();
                let rx = rx.clone();
                let stop = stop_batchers.clone();
                std::thread::spawn(move || batcher_loop(&inner, &rx, &stop, &config.serve))
            })
            .collect();
        if inner
            .lifecycle
            .as_ref()
            .is_some_and(LifecycleState::background)
        {
            let inner = inner.clone();
            let stop = stop_batchers.clone();
            batchers.push(std::thread::spawn(move || refit_loop(&inner, &stop)));
        }
        Ok(ShardRouter {
            inner,
            client: ServiceClient::new(tx, gate, method_names.into()),
            drain_rx: rx,
            stop_batchers,
            batchers,
        })
    }

    /// A cloneable submission handle for producer threads.
    pub fn client(&self) -> ServiceClient {
        self.client.clone()
    }

    /// Names (registration order) the per-line score vectors follow.
    pub fn method_names(&self) -> &[String] {
        &self.inner.method_names
    }

    /// Scores one arriving line with every method (resident and
    /// shard-merged), blocking until the verdict is ready (the line
    /// may share its micro-batch with concurrent arrivals).
    pub fn score_line(&self, line: &str) -> Result<Vec<f32>, ServeError> {
        self.client.score_line(line)
    }

    /// Scores a batch of arriving lines; one score vector per line.
    pub fn score_batch(&self, lines: &[String]) -> Result<Vec<Vec<f32>>, ServeError> {
        self.client.score_batch(lines)
    }

    /// Monotonic micro-batch/line counters.
    pub fn stats(&self) -> crate::ServiceStats {
        self.inner.counters.stats()
    }

    /// Per-shard exemplar counts of a partitioned method (diagnostics;
    /// `None` for resident or unknown methods).
    pub fn shard_row_counts(&self, method: &str) -> Option<Vec<usize>> {
        let m = self
            .inner
            .metas
            .iter()
            .position(|meta| meta.name == method)?;
        Some(
            self.inner
                .pools()
                .iter()
                .map(|pool| {
                    pool.state.read().unwrap().methods[m]
                        .as_ref()
                        .map_or(0, |slot| slot.globals.len())
                })
                .collect(),
        )
    }

    /// Runs one refit now, on the caller's thread: fits fresh
    /// templates of every refittable resident detector on baseline ∪
    /// append-log and swaps them in atomically (see
    /// [`FittedEngine::install_refits`]). In-flight micro-batches
    /// finish on the old epoch; no line is dropped or double-scored
    /// across the swap. Returns the engine epoch after the swap.
    /// Requires a lifecycle ([`ShardRouter::spawn_with_lifecycle`]).
    pub fn refit(&self) -> Result<u64, ServeError> {
        self.inner.run_refit()
    }

    /// The resident engine's detector generation (see
    /// [`FittedEngine::epoch`]): 0 at spawn, +1 per refit swap.
    pub fn engine_epoch(&self) -> u64 {
        self.inner.resident.read().unwrap().epoch()
    }

    /// The detector-state epoch: bumped on every append, refit swap,
    /// and reshard — the counter an attached verdict cache invalidates
    /// by.
    pub fn state_epoch(&self) -> u64 {
        self.inner.state_epoch.load(Ordering::Acquire)
    }

    /// The shared state-epoch counter, for wiring a
    /// [`crate::VerdictCache`] onto the same invalidation source.
    pub(crate) fn state_epoch_handle(&self) -> Arc<AtomicU64> {
        self.inner.state_epoch.clone()
    }

    /// Lifecycle counters and trigger state; `None` when spawned
    /// without a lifecycle.
    pub fn lifecycle_stats(&self) -> Option<LifecycleStats> {
        self.inner.lifecycle.as_ref().map(LifecycleState::stats)
    }

    /// The current shard count (changes only through
    /// [`ShardRouter::reshard`]).
    pub fn shards(&self) -> usize {
        self.inner.shards.load(Ordering::Acquire)
    }

    /// Absorbs freshly-labeled supervision: lines are embedded once
    /// per pooled space, every absorbing resident detector gets
    /// [`Detector::append`] (neighbour methods insert into their live
    /// index — the incremental HNSW path — others keep their fitted
    /// state), and each exemplar of a partitioned method is routed to
    /// its owning shard (the partitioner hash) and inserted under
    /// **that shard's write lock only** — scoring against the other
    /// shards never stalls. Returns how many methods absorbed the
    /// batch.
    ///
    /// Runs on the caller's thread; batchers keep serving the old
    /// state until the brief write locks at the end.
    pub fn append(&self, lines: &[String], labels: &[bool]) -> Result<usize, ServeError> {
        if lines.len() != labels.len() {
            return Err(ServeError::Engine(format!(
                "one label per line required: {} lines, {} labels",
                lines.len(),
                labels.len()
            )));
        }
        if lines.is_empty() {
            return Ok(0);
        }
        let inner = &*self.inner;
        // Embed before taking any lock, and only for the pooled spaces
        // an absorbing consumer reads; the write locks below are then
        // just the index inserts.
        let resident_specs = inner.resident_specs(|d| d.absorbs_appends());
        let views = inner.embed(lines, &resident_specs);
        let absorbed = {
            // Appends serialize with each other (dense id assignment,
            // and per-shard maps must extend in id order) and with
            // reshards (shard ownership must not move mid-batch);
            // readers don't take this lock.
            let _guard = inner.append_lock.lock().unwrap();
            inner.absorb(&views, labels, !resident_specs.is_empty())
        };
        // Bump the shared epoch (cache invalidation, snapshot race
        // detection) strictly after the write locks released — and on
        // failure too: an `Err` from the second detector leaves the
        // first one's inserts in place, so state may have changed.
        inner.state_epoch.fetch_add(1, Ordering::AcqRel);
        let absorbed = absorbed?;
        // Log the batch for the next refit's training set.
        if let Some(lc) = &inner.lifecycle {
            lc.record_appends(lines, labels);
        }
        Ok(absorbed)
    }

    /// Captures the persistable state: resident snapshot-capable
    /// detectors capture as they are, every partitioned method merges
    /// back into one manifest + N shard frames. Returns the snapshot
    /// plus the names of detectors that were not capturable.
    ///
    /// The whole capture runs at a single consistent epoch: appends
    /// and reshards are excluded by the append lock, every resident
    /// detector captures under **one** engine read guard (a refit's
    /// write-locked swap cannot interleave two resident captures), and
    /// the state epoch is checked around the capture — a refit that
    /// landed between the epoch read and the guard acquisition
    /// surfaces as a typed [`ServeError::SnapshotRace`] instead of a
    /// mixed-epoch frame.
    pub fn snapshot(&self) -> Result<(ServiceSnapshot, Vec<String>), ServeError> {
        let inner = &*self.inner;
        // Exclude appends + reshards for a consistent cross-shard
        // view; scoring readers keep serving.
        let _guard = inner.append_lock.lock().unwrap();
        let before = inner.state_epoch.load(Ordering::Acquire);
        let pools = inner.pools();
        let engine = inner.resident.read().unwrap();
        let mut states = Vec::new();
        let mut skipped = Vec::new();
        for slot in &inner.plan {
            match slot {
                Slot::Resident(i) => {
                    let det = &engine.detectors()[*i];
                    match DetectorState::capture(det.as_ref()) {
                        Some(state) => states.push(state),
                        None => skipped.push(det.name().to_string()),
                    }
                }
                Slot::Sharded(m) => states.push(inner.merged_state(&pools, *m).0),
            }
        }
        drop(engine);
        let after = inner.state_epoch.load(Ordering::Acquire);
        if before != after {
            return Err(ServeError::SnapshotRace { before, after });
        }
        Ok((ServiceSnapshot::from_states(states), skipped))
    }

    /// Splits (or merges) the live shard set to `new_shards` without
    /// stopping the service. Appends are excluded for the duration;
    /// scoring continues on the old partition throughout and switches
    /// to the new one atomically — a micro-batch gathers from whichever
    /// pool set it was scattered to, never a mix. A service spawned
    /// with `shards == 1` has no partition to reshape and answers with
    /// a typed [`ServeError::InvalidConfig`].
    ///
    /// Every partitioned method is reassembled
    /// ([`ShardedDetectorState::merge`]), its exemplar rows decoded in
    /// global-id order, and re-fitted under the new partition shape
    /// with the *same* partitioner seed and backend — so on exact
    /// backends the merged verdicts are bit-identical before and after
    /// the split (partition-invariance, `tests/shard_router_parity.rs`),
    /// and global exemplar ids are preserved exactly.
    pub fn reshard(&self, new_shards: usize) -> Result<(), ServeError> {
        let inner = &*self.inner;
        // Excludes appends (ownership must not move mid-batch) and
        // other reshards; scoring readers never take this lock.
        let _guard = inner.append_lock.lock().unwrap();
        let pools = inner.pools();
        if pools.is_empty() {
            return Err(ServeError::InvalidConfig(
                "reshard requires a sharded front-end (spawn with shards > 1)".into(),
            ));
        }
        if new_shards == 0 {
            return Err(ServeError::InvalidConfig(
                "shards must be >= 1 (no partition would own any exemplar)".into(),
            ));
        }
        if new_shards == inner.shards.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut new_methods: Vec<Vec<Option<ShardSlot>>> = (0..new_shards)
            .map(|_| Vec::with_capacity(inner.metas.len()))
            .collect();
        for (m, meta) in inner.metas.iter().enumerate() {
            let (merged, total) = inner.merged_state(&pools, m);
            if total == 0 {
                for methods in &mut new_methods {
                    methods.push(None);
                }
                continue;
            }
            let (rows, labels) = global_rows(&merged, meta.dim, total);
            let config = IndexConfig::sharded(ShardedParams {
                shards: new_shards,
                ..meta.params
            })
            .with_quant(meta.quant);
            let refit = fit_neighbour_detector(meta.name, &rows, &labels, meta.k, config);
            let split = DetectorState::capture(refit.as_ref())
                .expect("freshly fitted neighbour detectors are capturable")
                .split_shards()
                .expect("just fitted over a sharded index");
            distribute(split, &mut new_methods);
        }
        // Spawn the replacement pools and swap them in. Old pool
        // workers drain their in-flight scatters, then exit when the
        // last Arc to the old pool set (and with it the job senders)
        // drops; their handles are joined at shutdown.
        let new_pools = spawn_pools(
            new_methods,
            inner.shard_workers,
            inner.pool_queue_bound,
            &inner.pool_specs,
            &inner.stop_pools,
            &mut inner.pool_workers.lock().unwrap(),
        );
        *inner.pools.write().unwrap() = Arc::new(new_pools);
        inner.shards.store(new_shards, Ordering::Release);
        // The partition changed shape: treat it as a detector-state
        // change (HNSW shard graphs are rebuilt, so verdicts may
        // legitimately differ post-split on approximate backends).
        inner.state_epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Stops accepting requests, finishes in-flight micro-batches, and
    /// joins every batcher and shard worker; requests still queued
    /// (and any caller blocked on them) observe [`ServeError::Closed`].
    /// Dropping the service does the same. Outstanding
    /// [`ServiceClient`] clones stay safe to call — they just get
    /// `Closed` back.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            // The write lock waits out in-flight submissions, then the
            // flag turns every later one away at the gate. Batchers
            // are still running here — a submission blocked on a full
            // queue needs them draining before it releases its read
            // half of the gate.
            let mut closed = self.client.close_gate().write().unwrap();
            if *closed {
                return;
            }
            *closed = true;
        }
        // No new request can enter now; tell the batchers to exit once
        // the queue runs dry and they hit their idle poll. Batchers
        // first (their in-flight batches still need the shard pools),
        // pools second — including any workers spawned for resharded
        // pool sets.
        self.stop_batchers.store(true, Ordering::Release);
        for handle in self.batchers.drain(..) {
            let _ = handle.join();
        }
        self.inner.stop_pools.store(true, Ordering::Release);
        for handle in self.inner.pool_workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // Reject what the batchers left behind: dropping a request
        // drops its reply sender, which surfaces as `Closed` at the
        // blocked caller.
        while self.drain_rx.try_recv().is_ok() {}
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Hands each shard its sub-detector (and local→global id map) of one
/// split method; saved graphs are adopted, never rebuilt.
fn distribute(split: ShardedDetectorState, shard_methods: &mut [Vec<Option<ShardSlot>>]) {
    for ((methods, sub), map) in shard_methods
        .iter_mut()
        .zip(split.states)
        .zip(split.globals)
    {
        methods.push(sub.map(|s| ShardSlot {
            det: s.restore(),
            globals: map,
        }));
    }
}

/// Spawns one worker pool per shard over the given per-shard method
/// slots, pushing the worker handles onto `workers_out`. Used at spawn
/// and again by [`ShardRouter::reshard`] for replacement pool sets.
fn spawn_pools(
    shard_methods: Vec<Vec<Option<ShardSlot>>>,
    shard_workers: usize,
    queue_bound: usize,
    specs: &Arc<Vec<ViewSpec>>,
    stop: &Arc<AtomicBool>,
    workers_out: &mut Vec<JoinHandle<()>>,
) -> Vec<ShardPool> {
    let mut pools = Vec::with_capacity(shard_methods.len());
    for methods in shard_methods {
        let state = Arc::new(RwLock::new(ShardState { methods }));
        let (tx, rx) = bounded::<ShardJob>(queue_bound);
        for _ in 0..shard_workers {
            let rx = rx.clone();
            let state = state.clone();
            let stop = stop.clone();
            let specs = specs.clone();
            workers_out.push(std::thread::spawn(move || {
                pool_loop(&rx, &state, &stop, &specs)
            }));
        }
        pools.push(ShardPool { tx, state });
    }
    pools
}

/// Decodes a merged neighbour state's exemplar rows back into
/// global-id order, plus the per-row labels a re-fit needs (all-true
/// for retrieval, whose index holds only malicious exemplars). The
/// quantized storage decodes losslessly — stored values are already
/// on the quantization grid — so the re-fit re-encodes bit-identical
/// candidates.
fn global_rows(state: &DetectorState, dim: usize, total: usize) -> (Matrix, Vec<bool>) {
    let (index, labels) = match state {
        DetectorState::Retrieval { index, .. } => (index, vec![true; total]),
        DetectorState::VanillaKnn { index, labels, .. } => (index, labels.clone()),
        // Flat states never shard (`split_shards` rejects them), so
        // only neighbour states are ever merged.
        DetectorState::Structural { .. } => {
            unreachable!("structural state is not shard-mergeable")
        }
    };
    let IndexSnapshot::Sharded {
        shards, globals, ..
    } = index
    else {
        unreachable!("merge always produces a sharded manifest");
    };
    let mut rows: Vec<Vec<f32>> = vec![Vec::new(); total];
    for (sub, map) in shards.iter().zip(globals) {
        let data = match sub {
            IndexSnapshot::Exact { data, .. } | IndexSnapshot::Hnsw { data, .. } => data,
            IndexSnapshot::Sharded { .. } => unreachable!("shards do not nest"),
        };
        for (local, &g) in map.iter().enumerate() {
            rows[g] = data.decode_row(local);
        }
    }
    (Matrix::from_fn(total, dim, |r, c| rows[r][c]), labels)
}

/// The background refit worker: polls the lifecycle triggers and runs
/// [`RouterInner::run_refit`] whenever one is armed. A failed refit
/// disarms its trigger (the engine keeps serving the old epoch and the
/// append log stays unconsumed), so a persistently-broken fit logs
/// once per trigger instead of hot-looping.
fn refit_loop(inner: &RouterInner, stop: &AtomicBool) {
    let Some(lc) = inner.lifecycle.as_ref() else {
        return;
    };
    while !stop.load(Ordering::Acquire) {
        if lc.refit_pending() {
            if let Err(e) = inner.run_refit() {
                eprintln!("serve: background refit failed: {e}");
            }
        }
        std::thread::sleep(IDLE_POLL);
    }
}

/// One shard worker: answers scatter jobs with the shard's per-line
/// top-k candidates for every partitioned method, ids mapped to the
/// method's global exemplar space.
fn pool_loop(
    rx: &Receiver<ShardJob>,
    state: &RwLock<ShardState>,
    stop: &AtomicBool,
    specs: &[ViewSpec],
) {
    loop {
        let job = match rx.recv_timeout(IDLE_POLL) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // Contain per-shard scoring panics: dropping the reply sender
        // surfaces as an aborted batch (`Closed`) at the callers
        // instead of wedging the gather.
        let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let state = state.read().unwrap();
            specs
                .iter()
                .zip(&state.methods)
                .map(|(&spec, slot)| match slot {
                    Some(slot) => {
                        let mut cands = slot.det.shard_candidates(&job.views.view_for(spec));
                        for line in &mut cands {
                            for c in line.iter_mut() {
                                c.id = slot.globals[c.id];
                            }
                        }
                        cands
                    }
                    None => vec![Vec::new(); job.views.len()],
                })
                .collect::<ShardAnswer>()
        }));
        match answer {
            Ok(answer) => {
                let _ = job.reply.send((job.shard, answer));
            }
            Err(_) => drop(job),
        }
    }
}

/// One batcher: blocks for a request, coalesces more arrivals within
/// the batch window (up to `max_batch` lines), embeds the micro-batch
/// once per pooled space, scatters to the shard pools, scores resident
/// detectors meanwhile, gathers + merges, and replies per request.
fn batcher_loop(
    inner: &RouterInner,
    rx: &Receiver<Request>,
    stop: &AtomicBool,
    config: &ServeConfig,
) {
    while let Some(requests) = collect_batch(rx, stop, config.max_batch, config.batch_window) {
        let all_lines: Vec<String> = requests
            .iter()
            .flat_map(|r| r.lines.iter().cloned())
            .collect();
        // Contain scoring panics (a detector assert, a poisoned engine
        // lock): the batcher must survive, and dropping the batch drops
        // its reply senders, surfacing `Closed` at the blocked callers
        // instead of wedging the whole service — with `workers: 1` an
        // uncaught unwind here would leave every future request
        // hanging in its reply recv with no error at all.
        let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            score_micro_batch(inner, &all_lines)
        }));
        match scored {
            Ok(Some(scored)) => {
                let mut scored = scored.into_iter();
                for req in requests {
                    let reply: Vec<Vec<f32>> = scored.by_ref().take(req.lines.len()).collect();
                    req.reply.send(reply);
                }
            }
            // A dead pool aborts the batch the same way a panic does.
            Ok(None) | Err(_) => drop(requests),
        }
    }
}

/// Scores one micro-batch end to end; `None` if a shard pool vanished
/// mid-gather (shutdown race or a poisoned shard).
fn score_micro_batch(inner: &RouterInner, lines: &[String]) -> Option<Vec<Vec<f32>>> {
    let views = inner.embed(lines, &inner.resident_specs(|_| true));

    // Pin the pool set for the whole scatter/gather: a reshard that
    // swaps the pools mid-batch cannot mix partitions — this batch
    // completes entirely on the set it scattered to.
    let pools = inner.pools();

    // Scatter to every shard pool (a pool-less service has nobody to
    // hear from, so it creates no gather channel)…
    let gather = if pools.is_empty() {
        None
    } else {
        let (reply_tx, reply_rx) = mpsc::channel();
        for (s, pool) in pools.iter().enumerate() {
            let job = ShardJob {
                views: views.clone(),
                shard: s,
                reply: reply_tx.clone(),
            };
            pool.tx.send(job).ok()?;
        }
        Some(reply_rx)
    };

    // …score the resident detectors while the shards work. One read
    // guard spans the whole pass — the epoch-swap atomicity anchor: a
    // refit's write-locked [`FittedEngine::install_refits`] waits for
    // every in-flight batch, so each batch's resident verdicts come
    // entirely from one detector generation…
    let resident = inner
        .resident
        .read()
        .unwrap()
        .score_each(|det| views.for_detector(det));

    // …gather the shard answers…
    let mut per_shard: Vec<Option<ShardAnswer>> = pools.iter().map(|_| None).collect();
    if let Some(reply_rx) = gather {
        for _ in 0..pools.len() {
            let (s, answer) = reply_rx.recv().ok()?;
            per_shard[s] = Some(answer);
        }
    }

    // …and merge per line per partitioned method.
    let merged: Vec<Vec<f32>> = inner
        .metas
        .iter()
        .enumerate()
        .map(|(m, meta)| {
            (0..lines.len())
                .map(|i| {
                    let lists: Vec<&[ShardCandidate]> = per_shard
                        .iter()
                        .map(|a| a.as_ref().expect("gathered")[m][i].as_slice())
                        .collect();
                    let top = merge_shard_candidates(&lists, meta.merge.k());
                    meta.merge.score(&top)
                })
                .collect()
        })
        .collect();

    // Assemble per-line verdicts in registration order.
    let out: Vec<Vec<f32>> = (0..lines.len())
        .map(|i| {
            inner
                .plan
                .iter()
                .map(|slot| match slot {
                    Slot::Resident(r) => resident.outputs()[*r].scores[i],
                    Slot::Sharded(m) => merged[*m][i],
                })
                .collect()
        })
        .collect();
    if let Some(lc) = &inner.lifecycle {
        lc.observe_scores(observed_means(&out));
    }
    inner.counters.record_batch(lines.len());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RefitSource;
    use anomaly::{PcaMethod, RetrievalMethod, VanillaKnnMethod};
    use cmdline_ids::embed::Pooling;
    use cmdline_ids::engine::{EmbeddingStore, ScoringEngine};
    use cmdline_ids::pipeline::PipelineConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `(batcher + refit threads, pool workers, pools)` of a live service.
    fn threads(service: &ShardRouter) -> (usize, usize, usize) {
        (
            service.batchers.len(),
            service.inner.pool_workers.lock().unwrap().len(),
            service.inner.pools().len(),
        )
    }

    #[test]
    fn one_shard_spawns_only_the_scoring_workers() {
        let mut config = PipelineConfig::fast();
        config.train_size = 300;
        config.test_size = 50;
        let mut rng = StdRng::seed_from_u64(99);
        let dataset = config.generate_dataset(&mut rng);
        let pipeline = IdsPipeline::pretrain(&config, &dataset, &mut rng);
        let train: Vec<String> = dataset.train.iter().map(|r| r.line.clone()).collect();
        let labels: Vec<bool> = (0..train.len()).map(|i| i % 4 == 0).collect();
        let fit = |shards: usize| {
            let view = EmbeddingStore::new(&pipeline).view_of(&train, Pooling::Mean);
            ScoringEngine::new()
                .with_index_config(IndexConfig::Exact.with_shards(shards))
                .register(Box::new(RetrievalMethod::new(1)))
                .register(Box::new(PcaMethod::new(0.95)))
                .register(Box::new(VanillaKnnMethod::new(3)))
                .fit(&view, &labels)
                .expect("detector set fits")
        };
        let config = |shards: usize| RouterConfig {
            shards,
            serve: ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            },
            shard_workers: 2,
        };
        let spawn = |engine, shards| ShardRouter::spawn(pipeline.clone(), engine, config(shards));

        // Unsharded or sharded-index-fitted alike: resident, no pool.
        for fitted_shards in [1, 4] {
            let service = spawn(fit(fitted_shards), 1).expect("spawns");
            assert_eq!(threads(&service), (3, 0, 0));
            assert!(service.shard_row_counts("vanilla-knn").is_none());
        }
        let source = RefitSource::new(train.clone(), labels.clone()).expect("aligned source");
        let service = ShardRouter::spawn_with_lifecycle(
            pipeline.clone(),
            fit(1),
            config(1),
            LifecycleConfig::new(source),
        )
        .expect("spawns");
        assert_eq!(threads(&service), (3 + 1, 0, 0), "background refit worker");

        let service = spawn(fit(4), 4).expect("spawns");
        assert_eq!(threads(&service), (3, 4 * 2, 4));
    }
}
