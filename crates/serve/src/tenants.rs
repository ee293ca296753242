//! Multi-tenant serving: per-tenant exemplar partitions with tiered
//! hot/cold storage under a fixed memory envelope.
//!
//! The paper's premise is per-enterprise behavioural baselines — one
//! exemplar set per tenant, not one global set — but a box cannot
//! hold millions of fitted HNSW graphs resident. This module layers a
//! tenant axis over the existing serving stack and makes residency a
//! *managed* property:
//!
//! * **Per-tenant partitions.** Each tenant owns a private fitted
//!   detector set (retrieval + vanilla-kNN over the configured
//!   [`IndexConfig`]); tenants are routed to one of `groups` lock
//!   domains by the same seeded content-stable FNV-1a hash the
//!   sharded index uses ([`shard_for_row`] over the tenant id's bit
//!   pattern), so every layer that knows `(seed, groups)` agrees on
//!   placement without coordination.
//! * **Tiered storage.** A *hot* tenant holds its fitted engine —
//!   HNSW graphs and all — resident. A *cold* tenant is demoted to a
//!   compact serialized frame: HNSW-backed detectors **drop their
//!   graphs** and keep only the quantized candidate matrix + norms +
//!   build parameters, because the graph is deterministically
//!   reconstructible — `HnswIndex::build_quantized` re-grows the
//!   identical graph from the identical (round-trip-exact) codes,
//!   seed, and draw count (the pinned build ≡ build+insert property).
//!   Everything else falls back to its full [`DetectorState`] frame.
//!   A cold tenant is lazily *promoted* (rebuilt) on first touch.
//! * **A memory envelope.** Every tenant is charged for what its tier
//!   actually holds — [`FittedEngine::resident_bytes`] while hot
//!   (candidate storage + norms + graph adjacency, per the
//!   `candidate_bytes` accounting family), its frame length while
//!   cold — against one configured budget. When the accounted total
//!   exceeds the budget, the least-recently-touched hot tenants are
//!   demoted (LRU eviction) until the total fits or nothing is left
//!   hot (the all-cold floor; [`TenantStats::accounted_bytes`] still
//!   reports it honestly).
//!
//! Bit-identity discipline: a tenant's verdicts — across any
//! interleaving of promotions, demotions, and evictions — are
//! bit-identical to a dedicated single-tenant engine fed the same
//! views (`tests/tenants.rs` pins this by proptest, and the load
//! benchmark's `tenant_churn` verify pass at 2 000 tenants), because
//! demotion either keeps lossless state (i8 codes round-trip exactly;
//! dequantize → requantize reproduces codes and scales) or the full
//! frame, and promotion replays the deterministic construction.

use crate::lifecycle::{DriftConfig, DriftDetector};
use crate::service::{observed_means, PooledViews};
use anomaly::{DetectorState, RetrievalDetector, RetrievalMethod, VanillaKnn, VanillaKnnMethod};
use cmdline_ids::engine::{Detector, DetectorError, EmbeddingView, FittedEngine, IndexConfig};
use cmdline_ids::pipeline::IdsPipeline;
use index::persist::{ByteReader, ByteWriter, IndexSnapshot, PersistError};
use index::{shard_for_row, HnswIndex, HnswParams, DEFAULT_SHARD_SEED};
use linalg::quant::QuantizedMatrix;
use linalg::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A tenant identity — the routing and cache key the serving stack
/// threads beside every tenant-scoped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Why a tenant-scoped operation failed.
#[derive(Debug)]
pub enum TenantError {
    /// No tenant with this id exists (create it first).
    Unknown(u64),
    /// A tenant with this id already exists.
    Duplicate(u64),
    /// A raw-line API was called on a service spawned without a
    /// pipeline ([`TenantService::new`] — use the `_view` variants).
    NoPipeline,
    /// Fitting or appending a tenant's detector set failed.
    Engine(String),
    /// The tenant configuration can never serve.
    InvalidConfig(String),
    /// A tenant frame failed to decode (promotion, map restore).
    Persist(PersistError),
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::Unknown(id) => write!(f, "unknown tenant {id}"),
            TenantError::Duplicate(id) => write!(f, "tenant {id} already exists"),
            TenantError::NoPipeline => {
                write!(f, "service has no pipeline; use the view-based API")
            }
            TenantError::Engine(msg) => write!(f, "tenant engine error: {msg}"),
            TenantError::InvalidConfig(msg) => write!(f, "invalid tenant config: {msg}"),
            TenantError::Persist(e) => write!(f, "bad tenant frame: {e}"),
        }
    }
}

impl std::error::Error for TenantError {}

impl From<PersistError> for TenantError {
    fn from(e: PersistError) -> Self {
        TenantError::Persist(e)
    }
}

impl From<DetectorError> for TenantError {
    fn from(e: DetectorError) -> Self {
        TenantError::Engine(e.to_string())
    }
}

/// Shape of a [`TenantService`]: routing, per-tenant detector config,
/// and the memory envelope.
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Lock domains tenants are routed across (the shard-group axis;
    /// the `--shards` knob of `examples/multi_tenant.rs`).
    pub groups: usize,
    /// Seed of the content-stable routing hash. Defaults to the
    /// sharded index's [`DEFAULT_SHARD_SEED`] so tenant placement and
    /// row placement speak the same hash family.
    pub seed: u64,
    /// Index backend every tenant's detectors are fitted over
    /// (backend + quantization; `IndexConfig::hnsw()` +
    /// `Quantization::I8` is the tiering sweet spot — resident graphs
    /// when hot, graph-dropped i8 codes when cold).
    pub index: IndexConfig,
    /// Neighbours the retrieval detector averages (paper: 1).
    pub retrieval_k: usize,
    /// Neighbours the vanilla-kNN detector votes over.
    pub knn_k: usize,
    /// The memory envelope in bytes: when accounted tenant state
    /// exceeds this, least-recently-touched hot tenants are demoted.
    pub mem_budget: usize,
    /// Per-tenant drift tracking while hot ([`DriftDetector`] over the
    /// tenant's served score stream). `None` disables it.
    pub drift: Option<DriftConfig>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            groups: 4,
            seed: DEFAULT_SHARD_SEED,
            index: IndexConfig::Exact,
            retrieval_k: 1,
            knn_k: 3,
            mem_budget: 64 << 20,
            drift: None,
        }
    }
}

impl TenantConfig {
    fn validate(&self) -> Result<(), TenantError> {
        if self.groups == 0 {
            return Err(TenantError::InvalidConfig(
                "tenant routing needs at least one group".into(),
            ));
        }
        if self.retrieval_k == 0 || self.knn_k == 0 {
            return Err(TenantError::InvalidConfig(
                "neighbour counts must be >= 1".into(),
            ));
        }
        if self.mem_budget == 0 {
            return Err(TenantError::InvalidConfig(
                "memory budget must be >= 1 byte".into(),
            ));
        }
        if let Some(drift) = self.drift {
            DriftDetector::new(drift)
                .map_err(|e| TenantError::InvalidConfig(e.to_string()))
                .map(drop)?;
        }
        Ok(())
    }
}

/// A hot tenant's resident state: the fitted engine plus its drift
/// tracker (drift is hot-tier state — demotion drops it, promotion
/// starts a fresh reference window).
struct HotTenant {
    engine: FittedEngine,
    drift: Option<DriftDetector>,
}

/// Which tier a tenant's state currently lives in.
enum TierState {
    Hot(Box<HotTenant>),
    /// The serialized frame ([`write_tenant_frame`]); `Arc` so
    /// snapshots can share it without copying.
    Cold(Arc<[u8]>),
}

/// One tenant's slot in its routing group.
struct TenantSlot {
    state: TierState,
    /// The tenant's detector-state epoch: bumped per absorbed append,
    /// validated by tenant-scoped verdict-cache lookups
    /// ([`crate::VerdictCache::lookup_batch_tenant`]).
    epoch: u64,
    /// Lines of supervision absorbed since creation.
    appends: u64,
    /// Accounted bytes of the *current* tier state.
    bytes: usize,
}

impl TenantSlot {
    fn hot_mut(&mut self) -> &mut HotTenant {
        match &mut self.state {
            TierState::Hot(hot) => hot,
            TierState::Cold(_) => unreachable!("slot promoted before use"),
        }
    }

    fn is_hot(&self) -> bool {
        matches!(self.state, TierState::Hot(_))
    }
}

/// Recency + accounting state, one lock for the whole map. Group
/// locks are never acquired while this is held (always group →
/// ledger), so the two lock families cannot deadlock.
struct Ledger {
    /// Monotonic logical clock; every touch stamps its tenant.
    clock: u64,
    /// Accounted bytes across every tenant, both tiers.
    bytes: usize,
    /// `tenant → last-touch stamp`, **hot tenants only** — exactly
    /// the eviction candidates, so picking a victim is one scan of
    /// the hot set, not of all tenants.
    touch: HashMap<u64, u64>,
}

/// Monotonic counters plus the current shape of a [`TenantService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenants resident in the map (both tiers).
    pub tenants: usize,
    /// Tenants currently holding fitted engines.
    pub hot: usize,
    /// Tenants currently demoted to serialized frames.
    pub cold: usize,
    /// Accounted bytes across every tenant, both tiers.
    pub accounted_bytes: usize,
    /// The configured memory envelope.
    pub budget: usize,
    /// Cold → hot rebuilds (lazy, on first touch).
    pub promotions: usize,
    /// Hot → cold serializations (explicit demotes + evictions).
    pub demotions: usize,
    /// Demotions forced by the memory budget.
    pub evictions: usize,
}

/// The tenant map: per-tenant exemplar partitions behind group locks,
/// with tiered residency managed against a fixed memory budget. See
/// the module docs for the tiering contract.
pub struct TenantService {
    pipeline: Option<IdsPipeline>,
    config: TenantConfig,
    groups: Vec<RwLock<HashMap<u64, TenantSlot>>>,
    ledger: Mutex<Ledger>,
    promotions: AtomicUsize,
    demotions: AtomicUsize,
    evictions: AtomicUsize,
}

impl TenantService {
    /// A tenant map serving pre-embedded views only (the `_view` API
    /// family): many tenants without an encoder pass per tenant.
    pub fn new(config: TenantConfig) -> Result<Self, TenantError> {
        Self::build(None, config)
    }

    /// A tenant map that embeds raw command lines through `pipeline`
    /// (the serving path: [`TenantService::score`] /
    /// [`TenantService::append`]).
    pub fn with_pipeline(pipeline: IdsPipeline, config: TenantConfig) -> Result<Self, TenantError> {
        Self::build(Some(pipeline), config)
    }

    fn build(pipeline: Option<IdsPipeline>, config: TenantConfig) -> Result<Self, TenantError> {
        config.validate()?;
        Ok(TenantService {
            pipeline,
            config,
            groups: (0..config.groups)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            ledger: Mutex::new(Ledger {
                clock: 0,
                bytes: 0,
                touch: HashMap::new(),
            }),
            promotions: AtomicUsize::new(0),
            demotions: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        })
    }

    /// The configuration this map was built with.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// Method names every tenant's verdict vectors follow, in
    /// registration order.
    pub fn method_names(&self) -> Vec<String> {
        vec!["retrieval".into(), "vanilla-knn".into()]
    }

    /// The routing group owning `tenant`: the sharded index's seeded
    /// content-stable FNV-1a ([`shard_for_row`]) over the id's 64-bit
    /// pattern, so placement is stable across processes and restarts.
    pub fn group_of(&self, tenant: TenantId) -> usize {
        let bits = [
            f32::from_bits(tenant.0 as u32),
            f32::from_bits((tenant.0 >> 32) as u32),
        ];
        shard_for_row(self.config.seed, self.config.groups, &bits)
    }

    // --- tenant lifecycle -------------------------------------------

    /// Creates a tenant by embedding its labeled baseline through the
    /// pipeline and fitting a private detector set.
    pub fn create_tenant(
        &self,
        tenant: TenantId,
        lines: &[String],
        labels: &[bool],
    ) -> Result<(), TenantError> {
        let pipeline = self.pipeline.as_ref().ok_or(TenantError::NoPipeline)?;
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let specs = detector_templates(&self.config);
        let views = PooledViews::build_specs(
            pipeline,
            specs.iter().map(|d| (d.wants_embeddings(), d.pooling())),
            &refs,
        );
        self.create_with(tenant, specs, labels, |det| views.for_detector(det))
    }

    /// Creates a tenant from an already-embedded labeled baseline.
    pub fn create_tenant_from_view(
        &self,
        tenant: TenantId,
        view: &EmbeddingView,
        labels: &[bool],
    ) -> Result<(), TenantError> {
        let specs = detector_templates(&self.config);
        self.create_with(tenant, specs, labels, |_| view.clone())
    }

    fn create_with(
        &self,
        tenant: TenantId,
        mut detectors: Vec<Box<dyn Detector>>,
        labels: &[bool],
        view_for: impl Fn(&dyn Detector) -> EmbeddingView,
    ) -> Result<(), TenantError> {
        for det in &mut detectors {
            let view = view_for(det.as_ref());
            det.fit(&view, labels)?;
        }
        let engine = FittedEngine::from_detectors(detectors);
        let bytes = engine.resident_bytes();
        let hot = HotTenant {
            engine,
            drift: self.make_drift(),
        };
        {
            let mut group = self.groups[self.group_of(tenant)].write().unwrap();
            if group.contains_key(&tenant.0) {
                return Err(TenantError::Duplicate(tenant.0));
            }
            group.insert(
                tenant.0,
                TenantSlot {
                    state: TierState::Hot(Box::new(hot)),
                    epoch: 0,
                    appends: 0,
                    bytes,
                },
            );
        }
        self.touch_and_account(tenant, bytes as i64);
        self.enforce_budget();
        Ok(())
    }

    fn make_drift(&self) -> Option<DriftDetector> {
        self.config
            .drift
            .map(|c| DriftDetector::new(c).expect("drift config validated at construction"))
    }

    // --- scoring and appends ----------------------------------------

    /// Scores a batch of raw lines against `tenant`'s partition:
    /// embeds once per pooled space the tenant's detectors read
    /// (exactly the dedicated service's path, so verdicts are
    /// bit-identical to it on exact backends), promoting the tenant
    /// first if it is cold. Returns one score vector per line,
    /// methods in registration order.
    pub fn score(&self, tenant: TenantId, lines: &[String]) -> Result<Vec<Vec<f32>>, TenantError> {
        let pipeline = self.pipeline.as_ref().ok_or(TenantError::NoPipeline)?;
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        self.with_hot(tenant, |slot| {
            let hot = slot.hot_mut();
            let views = PooledViews::build_specs(
                pipeline,
                hot.engine
                    .detectors()
                    .iter()
                    .map(|d| (d.wants_embeddings(), d.pooling())),
                &refs,
            );
            let run = hot.engine.score_each(|det| views.for_detector(det));
            let out = transpose(run.outputs(), lines.len());
            observe_drift(hot, &out);
            Ok(out)
        })
    }

    /// [`TenantService::score`] over a pre-embedded view (every
    /// detector reads the same view).
    pub fn score_view(
        &self,
        tenant: TenantId,
        view: &EmbeddingView,
    ) -> Result<Vec<Vec<f32>>, TenantError> {
        self.with_hot(tenant, |slot| {
            let hot = slot.hot_mut();
            let run = hot.engine.score_each(|_| view.clone());
            let out = transpose(run.outputs(), view.len());
            observe_drift(hot, &out);
            Ok(out)
        })
    }

    /// Absorbs freshly-labeled supervision into `tenant`'s partition
    /// (promoting it first), bumping the tenant's detector-state
    /// epoch so tenant-scoped cached verdicts stop hitting. Returns
    /// how many detectors absorbed the batch.
    pub fn append(
        &self,
        tenant: TenantId,
        lines: &[String],
        labels: &[bool],
    ) -> Result<usize, TenantError> {
        let pipeline = self.pipeline.as_ref().ok_or(TenantError::NoPipeline)?;
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        self.with_hot(tenant, |slot| {
            let hot = slot.hot_mut();
            let views = PooledViews::build_specs(
                pipeline,
                hot.engine
                    .detectors()
                    .iter()
                    .filter(|d| d.absorbs_appends())
                    .map(|d| (d.wants_embeddings(), d.pooling())),
                &refs,
            );
            let absorbed = hot
                .engine
                .append_each(labels, |det| views.for_detector(det))
                .map_err(|e| TenantError::Engine(e.to_string()))?;
            slot.epoch += 1;
            slot.appends += labels.len() as u64;
            Ok(absorbed)
        })
    }

    /// [`TenantService::append`] over a pre-embedded view.
    pub fn append_view(
        &self,
        tenant: TenantId,
        view: &EmbeddingView,
        labels: &[bool],
    ) -> Result<usize, TenantError> {
        self.with_hot(tenant, |slot| {
            let absorbed = slot
                .hot_mut()
                .engine
                .append_each(labels, |_| view.clone())
                .map_err(|e| TenantError::Engine(e.to_string()))?;
            slot.epoch += 1;
            slot.appends += labels.len() as u64;
            Ok(absorbed)
        })
    }

    /// Promotes `tenant` if cold, runs `f` on its hot slot, then
    /// refreshes accounting (byte delta + recency stamp) and enforces
    /// the budget. The group write lock is held across promotion and
    /// `f` — per-tenant operations are atomic; the ledger is only
    /// locked after the group lock is released.
    fn with_hot<R>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&mut TenantSlot) -> Result<R, TenantError>,
    ) -> Result<R, TenantError> {
        let (res, delta) = {
            let mut group = self.groups[self.group_of(tenant)].write().unwrap();
            let slot = group
                .get_mut(&tenant.0)
                .ok_or(TenantError::Unknown(tenant.0))?;
            if let TierState::Cold(frame) = &slot.state {
                let engine = read_tenant_frame(frame)?;
                slot.state = TierState::Hot(Box::new(HotTenant {
                    engine,
                    drift: self.make_drift(),
                }));
                self.promotions.fetch_add(1, Ordering::Relaxed);
            }
            let res = f(slot);
            // Account even when `f` failed: the promotion above (and
            // any partial append) already changed residency.
            let now = slot.hot_mut().engine.resident_bytes();
            let delta = now as i64 - slot.bytes as i64;
            slot.bytes = now;
            (res, delta)
        };
        self.touch_and_account(tenant, delta);
        self.enforce_budget();
        res
    }

    fn touch_and_account(&self, tenant: TenantId, delta: i64) {
        let mut ledger = self.ledger.lock().unwrap();
        ledger.clock += 1;
        let stamp = ledger.clock;
        ledger.bytes = (ledger.bytes as i64 + delta).max(0) as usize;
        ledger.touch.insert(tenant.0, stamp);
    }

    // --- tiering ----------------------------------------------------

    /// Whether `tenant` currently holds a fitted engine.
    pub fn is_hot(&self, tenant: TenantId) -> Result<bool, TenantError> {
        let group = self.groups[self.group_of(tenant)].read().unwrap();
        group
            .get(&tenant.0)
            .map(TenantSlot::is_hot)
            .ok_or(TenantError::Unknown(tenant.0))
    }

    /// The tenant's detector-state epoch (for tenant-scoped verdict
    /// caching).
    pub fn epoch_of(&self, tenant: TenantId) -> Result<u64, TenantError> {
        let group = self.groups[self.group_of(tenant)].read().unwrap();
        group
            .get(&tenant.0)
            .map(|s| s.epoch)
            .ok_or(TenantError::Unknown(tenant.0))
    }

    /// Demotes `tenant` to its serialized cold frame now. Returns
    /// `false` if it was already cold. (The budget enforcer calls
    /// this; it is public so tests and operators can shed a tenant
    /// deliberately.)
    pub fn demote(&self, tenant: TenantId) -> Result<bool, TenantError> {
        let delta = {
            let mut group = self.groups[self.group_of(tenant)].write().unwrap();
            let slot = group
                .get_mut(&tenant.0)
                .ok_or(TenantError::Unknown(tenant.0))?;
            let TierState::Hot(hot) = &slot.state else {
                drop(group);
                self.ledger.lock().unwrap().touch.remove(&tenant.0);
                return Ok(false);
            };
            let frame: Arc<[u8]> = write_tenant_frame(&hot.engine, true)?.into();
            let now = frame.len();
            let delta = now as i64 - slot.bytes as i64;
            slot.bytes = now;
            slot.state = TierState::Cold(frame);
            delta
        };
        self.demotions.fetch_add(1, Ordering::Relaxed);
        let mut ledger = self.ledger.lock().unwrap();
        ledger.bytes = (ledger.bytes as i64 + delta).max(0) as usize;
        ledger.touch.remove(&tenant.0);
        Ok(true)
    }

    /// Demotes least-recently-touched hot tenants until the accounted
    /// total fits the budget or nothing is left hot. Runs after every
    /// accounting change; convergent because each round removes its
    /// victim from the hot set.
    fn enforce_budget(&self) {
        loop {
            let victim = {
                let ledger = self.ledger.lock().unwrap();
                if ledger.bytes <= self.config.mem_budget {
                    return;
                }
                ledger
                    .touch
                    .iter()
                    .min_by_key(|&(id, stamp)| (*stamp, *id))
                    .map(|(&id, _)| id)
            };
            let Some(victim) = victim else {
                // All-cold floor above the budget: nothing left to
                // shed. Stats report the overage honestly.
                return;
            };
            match self.demote(TenantId(victim)) {
                Ok(true) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Already cold (raced another demote) or vanished —
                // `demote` dropped it from the hot set either way, so
                // the loop still shrinks.
                Ok(false) | Err(TenantError::Unknown(_)) => {}
                // Serialization failed; stop shedding rather than
                // spinning on the same victim.
                Err(_) => return,
            }
        }
    }

    /// Accounted bytes across every tenant, both tiers.
    pub fn accounted_bytes(&self) -> usize {
        self.ledger.lock().unwrap().bytes
    }

    /// Whether the tenant's hot drift tracker has fired (`None` when
    /// the tenant is cold or drift tracking is disabled).
    pub fn drift_fired(&self, tenant: TenantId) -> Result<Option<bool>, TenantError> {
        let group = self.groups[self.group_of(tenant)].read().unwrap();
        let slot = group.get(&tenant.0).ok_or(TenantError::Unknown(tenant.0))?;
        Ok(match &slot.state {
            TierState::Hot(hot) => hot.drift.as_ref().map(DriftDetector::fired),
            TierState::Cold(_) => None,
        })
    }

    /// Counters and current shape.
    pub fn stats(&self) -> TenantStats {
        let (mut tenants, mut hot) = (0usize, 0usize);
        for group in &self.groups {
            let group = group.read().unwrap();
            tenants += group.len();
            hot += group.values().filter(|s| s.is_hot()).count();
        }
        TenantStats {
            tenants,
            hot,
            cold: tenants - hot,
            accounted_bytes: self.accounted_bytes(),
            budget: self.config.mem_budget,
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    // --- persistence ------------------------------------------------

    /// Captures the whole tenant map as one snapshot. Hot tenants are
    /// serialized at **full fidelity** (graphs included, unlike
    /// demotion's graph-drop) so a restore-then-touch adopts the
    /// saved graph without a construction pass; cold tenants reuse
    /// their existing frames as-is.
    pub fn snapshot(&self) -> Result<TenantMapSnapshot, TenantError> {
        let mut entries = Vec::new();
        for group in &self.groups {
            let group = group.read().unwrap();
            for (&id, slot) in group.iter() {
                let frame = match &slot.state {
                    TierState::Hot(hot) => write_tenant_frame(&hot.engine, false)?.into(),
                    TierState::Cold(frame) => Arc::clone(frame),
                };
                entries.push(TenantEntry {
                    id,
                    epoch: slot.epoch,
                    appends: slot.appends,
                    frame,
                });
            }
        }
        entries.sort_by_key(|e| e.id);
        Ok(TenantMapSnapshot { entries })
    }

    /// Restores a snapshot into a fresh map with **every tenant
    /// cold** — zero construction passes, zero decode work beyond
    /// frame lengths; each tenant rebuilds lazily on first touch
    /// (asserted against [`index::construction_passes`] in
    /// `tests/tenants.rs`).
    pub fn restore(
        snapshot: TenantMapSnapshot,
        pipeline: Option<IdsPipeline>,
        config: TenantConfig,
    ) -> Result<Self, TenantError> {
        let service = Self::build(pipeline, config)?;
        let mut total = 0usize;
        for entry in snapshot.entries {
            let mut group = service.groups[service.group_of(TenantId(entry.id))]
                .write()
                .unwrap();
            if group.contains_key(&entry.id) {
                return Err(TenantError::Duplicate(entry.id));
            }
            let bytes = entry.frame.len();
            total += bytes;
            group.insert(
                entry.id,
                TenantSlot {
                    state: TierState::Cold(entry.frame),
                    epoch: entry.epoch,
                    appends: entry.appends,
                    bytes,
                },
            );
        }
        service.ledger.lock().unwrap().bytes = total;
        Ok(service)
    }
}

/// The unfitted per-tenant detector set (registration order pins the
/// verdict-vector layout: retrieval, then vanilla-kNN).
fn detector_templates(config: &TenantConfig) -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(RetrievalMethod::with_index(
            config.retrieval_k,
            config.index,
        )),
        Box::new(VanillaKnnMethod::with_index(config.knn_k, config.index)),
    ]
}

/// Transposes method-major engine output into line-major verdicts —
/// the same loop the dedicated service runs, so the two layouts are
/// identical by construction.
fn transpose(outputs: &[cmdline_ids::engine::MethodScores], n_lines: usize) -> Vec<Vec<f32>> {
    let mut out = vec![Vec::with_capacity(outputs.len()); n_lines];
    for method in outputs {
        debug_assert_eq!(method.scores.len(), n_lines);
        for (line, &s) in out.iter_mut().zip(&method.scores) {
            line.push(s);
        }
    }
    out
}

fn observe_drift(hot: &mut HotTenant, verdicts: &[Vec<f32>]) {
    if let Some(drift) = &mut hot.drift {
        for mean in observed_means(verdicts) {
            drift.observe(mean);
        }
    }
}

// --- the tenant frame codec ----------------------------------------
//
// frame := n_detectors:usize | detector*
// detector := tag:u8 | body
//   tag 0: a full `DetectorState` frame (graphs included)
//   tag 1: graph-dropped retrieval  — k | HnswParams | Exact snapshot
//   tag 2: graph-dropped vanilla-kNN — k | labels | HnswParams | Exact
//
// Graph-drop applies only when the rebuild is provably identical: an
// HNSW index with no tombstones whose level-RNG draw count equals its
// row count (one draw per row — i.e. never compacted), so
// `build_quantized` over the round-trip-exact candidate matrix
// replays the same draws from the same seed and re-grows the same
// graph (the pinned build ≡ build+insert property). Anything else
// keeps its full frame.

const FRAME_FULL: u8 = 0;
const FRAME_DROPPED_RETRIEVAL: u8 = 1;
const FRAME_DROPPED_KNN: u8 = 2;

fn put_hnsw_params(w: &mut ByteWriter, p: &HnswParams) {
    w.put_usize(p.m);
    w.put_usize(p.ef_construction);
    w.put_usize(p.ef_search);
    w.put_u64(p.seed);
    w.put_f32(p.compact_ratio);
}

fn get_hnsw_params(r: &mut ByteReader) -> Result<HnswParams, PersistError> {
    Ok(HnswParams {
        m: r.get_usize()?,
        ef_construction: r.get_usize()?,
        ef_search: r.get_usize()?,
        seed: r.get_u64()?,
        compact_ratio: r.get_f32()?,
    })
}

/// Whether a captured HNSW graph may be dropped and deterministically
/// re-grown (see the codec comment above).
fn droppable(tombstone: &[bool], draws: u64, rows: usize) -> bool {
    !tombstone.iter().any(|&t| t) && draws == rows as u64
}

/// Serializes a tenant's fitted engine. `drop_graphs` selects the
/// demotion encoding (graph-dropped HNSW where provably rebuildable);
/// map snapshots pass `false` to keep full fidelity.
fn write_tenant_frame(engine: &FittedEngine, drop_graphs: bool) -> Result<Vec<u8>, TenantError> {
    let mut w = ByteWriter::new();
    let detectors = engine.detectors();
    w.put_usize(detectors.len());
    for det in detectors {
        let state = DetectorState::capture(det.as_ref()).ok_or_else(|| {
            TenantError::Engine(format!("detector '{}' is not serializable", det.name()))
        })?;
        match state {
            DetectorState::Retrieval {
                k,
                index:
                    IndexSnapshot::Hnsw {
                        data,
                        norms,
                        params,
                        tombstone,
                        draws,
                        ..
                    },
            } if drop_graphs && droppable(&tombstone, draws, data.rows()) => {
                w.put_u8(FRAME_DROPPED_RETRIEVAL);
                w.put_usize(k);
                put_hnsw_params(&mut w, &params);
                IndexSnapshot::Exact { data, norms }.write(&mut w);
            }
            DetectorState::VanillaKnn {
                k,
                labels,
                index:
                    IndexSnapshot::Hnsw {
                        data,
                        norms,
                        params,
                        tombstone,
                        draws,
                        ..
                    },
            } if drop_graphs && droppable(&tombstone, draws, data.rows()) => {
                w.put_u8(FRAME_DROPPED_KNN);
                w.put_usize(k);
                w.put_bools(&labels);
                put_hnsw_params(&mut w, &params);
                IndexSnapshot::Exact { data, norms }.write(&mut w);
            }
            state => {
                w.put_u8(FRAME_FULL);
                state.write(&mut w);
            }
        }
    }
    Ok(w.into_bytes())
}

/// Re-grows an HNSW index from a graph-dropped frame: decode the
/// round-trip-exact candidate matrix and replay the deterministic
/// construction (same seed, same draws, same codes ⇒ same graph).
fn regrow_hnsw(r: &mut ByteReader) -> Result<(HnswIndex, usize), PersistError> {
    let params = get_hnsw_params(r)?;
    let (data, norms) = match IndexSnapshot::read(r)? {
        IndexSnapshot::Exact { data, norms } => (data, norms),
        _ => {
            return Err(PersistError::Corrupt(
                "graph-dropped frame must hold an exact snapshot",
            ))
        }
    };
    let quant = data.quantization();
    let rows = data.rows();
    let matrix = decode_matrix(&data);
    Ok((
        HnswIndex::build_quantized(matrix, norms, params, quant),
        rows,
    ))
}

fn decode_matrix(data: &QuantizedMatrix) -> Matrix {
    let (rows, cols) = (data.rows(), data.cols());
    let mut flat = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        flat.extend(data.decode_row(r));
    }
    Matrix::from_vec(rows, cols, flat)
}

/// Deserializes a tenant frame back into a fitted engine (the
/// promotion path).
fn read_tenant_frame(frame: &[u8]) -> Result<FittedEngine, TenantError> {
    let mut r = ByteReader::new(frame);
    let n = r.get_usize()?;
    if n.saturating_mul(2) > frame.len() {
        return Err(PersistError::Truncated.into());
    }
    let mut detectors: Vec<Box<dyn Detector>> = Vec::with_capacity(n);
    for _ in 0..n {
        detectors.push(match r.get_u8()? {
            FRAME_FULL => DetectorState::read(&mut r)?.restore(),
            FRAME_DROPPED_RETRIEVAL => {
                let k = r.get_usize()?;
                if k == 0 {
                    return Err(PersistError::Corrupt("k must be positive").into());
                }
                let (index, rows) = regrow_hnsw(&mut r)?;
                if rows == 0 {
                    return Err(PersistError::Corrupt("empty exemplar index").into());
                }
                Box::new(RetrievalMethod::from_fitted(RetrievalDetector::from_index(
                    Box::new(index),
                    k,
                )))
            }
            FRAME_DROPPED_KNN => {
                let k = r.get_usize()?;
                if k == 0 {
                    return Err(PersistError::Corrupt("k must be positive").into());
                }
                let labels = r.get_bools()?;
                let (index, rows) = regrow_hnsw(&mut r)?;
                if rows == 0 || rows != labels.len() {
                    return Err(PersistError::Corrupt("label count != row count").into());
                }
                Box::new(VanillaKnnMethod::from_fitted(VanillaKnn::from_parts(
                    Box::new(index),
                    labels,
                    k,
                )))
            }
            tag => return Err(PersistError::BadTag(tag).into()),
        });
    }
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes after tenant frame").into());
    }
    Ok(FittedEngine::from_detectors(detectors))
}

// --- whole-map persistence -----------------------------------------

const MAP_MAGIC: [u8; 4] = *b"CTNT";
const MAP_VERSION: u32 = 1;

struct TenantEntry {
    id: u64,
    epoch: u64,
    appends: u64,
    frame: Arc<[u8]>,
}

/// A serialized tenant map: every tenant's id, epoch, append count,
/// and state frame. Restoring loads all tenants cold
/// ([`TenantService::restore`]).
pub struct TenantMapSnapshot {
    entries: Vec<TenantEntry>,
}

impl TenantMapSnapshot {
    /// Tenants in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no tenants.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encodes the map as one binary frame
    /// (`magic | version | n | (id epoch appends frame)*`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for b in MAP_MAGIC {
            w.put_u8(b);
        }
        w.put_u32(MAP_VERSION);
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_u64(e.id);
            w.put_u64(e.epoch);
            w.put_u64(e.appends);
            w.put_bytes(&e.frame);
        }
        w.into_bytes()
    }

    /// Decodes a [`TenantMapSnapshot::to_bytes`] frame. Total: every
    /// malformed input is a typed [`PersistError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::new(bytes);
        for expect in MAP_MAGIC {
            if r.get_u8()? != expect {
                return Err(PersistError::BadMagic);
            }
        }
        let version = r.get_u32()?;
        if version != MAP_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let n = r.get_usize()?;
        if n.saturating_mul(32) > r.remaining() {
            return Err(PersistError::Truncated);
        }
        let entries = (0..n)
            .map(|_| {
                Ok(TenantEntry {
                    id: r.get_u64()?,
                    epoch: r.get_u64()?,
                    appends: r.get_u64()?,
                    frame: r.get_bytes()?.into(),
                })
            })
            .collect::<Result<Vec<_>, PersistError>>()?;
        if r.remaining() != 0 {
            return Err(PersistError::Corrupt("trailing bytes after tenant map"));
        }
        Ok(TenantMapSnapshot { entries })
    }
}
