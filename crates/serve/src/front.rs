//! The scoring service's public face: one [`ShardRouter`] with an
//! optional verdict cache and tenant map in front.
//!
//! [`Frontend::spawn`] is the constructor callers use — `shards == 1`
//! keeps every detector resident, `shards > 1` feeds that many shard
//! pools from the same scoring loop — and [`Frontend`] is the single
//! place the [`VerdictCache`] is threaded into the scoring and append
//! paths. The TCP front-end (`serve::net`) serves through an
//! `Arc<Frontend>`, so the wire path and the in-process path share one
//! cache discipline and stay bit-identical.

use crate::cache::{merge_verdicts, CacheStats, VerdictCache};
use crate::lifecycle::{LifecycleConfig, LifecycleStats};
use crate::service::{ServeConfig, ServeError, ServiceClient, ServiceStats};
use crate::snapshot::ServiceSnapshot;
use crate::tenants::{TenantError, TenantId, TenantService};
use crate::{RouterConfig, ShardRouter};
use cmdline_ids::engine::FittedEngine;
use cmdline_ids::pipeline::IdsPipeline;
use std::sync::Arc;

/// How many times [`Frontend::snapshot`] retries a capture that raced
/// an append or refit swap before surfacing the typed
/// [`ServeError::SnapshotRace`] to the caller.
const SNAPSHOT_RETRIES: usize = 4;

/// A running scoring service ([`ShardRouter`], zero or more shard
/// pools) with an optional exact-match [`VerdictCache`] in front of
/// the scoring path.
///
/// The cached scoring path is strictly layered: cache lookups happen
/// before submission, only the misses travel through the micro-batching
/// workers, and the per-line verdict vector is reassembled from hits +
/// fresh scores in input order. On exact backends a cache hit returns
/// the same bytes the scoring path produced earlier, so cache-on and
/// cache-off verdicts are bit-identical (`tests/verdict_cache.rs`);
/// every [`Frontend::append`] bumps the cache epoch, so a stale
/// verdict is never served across a detector-state change.
pub struct Frontend {
    service: ShardRouter,
    cache: Option<Arc<VerdictCache>>,
    tenants: Option<Arc<TenantService>>,
}

impl From<ShardRouter> for Frontend {
    fn from(service: ShardRouter) -> Self {
        Frontend {
            service,
            cache: None,
            tenants: None,
        }
    }
}

impl Frontend {
    /// Spawns the service over `shards` exemplar partitions (one
    /// worker per shard pool; `shards == 1` keeps every detector
    /// resident and spawns no pool).
    pub fn spawn(
        pipeline: IdsPipeline,
        engine: FittedEngine,
        shards: usize,
        serve: ServeConfig,
    ) -> Result<Frontend, ServeError> {
        Ok(ShardRouter::spawn(pipeline, engine, router_config(shards, serve))?.into())
    }

    /// [`Frontend::spawn`] with the online refit lifecycle attached
    /// (see [`ShardRouter::spawn_with_lifecycle`]).
    pub fn spawn_with_lifecycle(
        pipeline: IdsPipeline,
        engine: FittedEngine,
        shards: usize,
        serve: ServeConfig,
        lifecycle: LifecycleConfig,
    ) -> Result<Frontend, ServeError> {
        let config = router_config(shards, serve);
        Ok(ShardRouter::spawn_with_lifecycle(pipeline, engine, config, lifecycle)?.into())
    }

    /// Attaches an exact-match verdict cache holding at most
    /// `capacity` lines. Rejects `capacity == 0` with a typed
    /// [`ServeError::InvalidConfig`] (a zero-entry cache can never
    /// hit), matching the config-validation convention.
    ///
    /// The cache's invalidation epoch *is* the service's
    /// detector-state counter ([`VerdictCache::with_shared_epoch`]):
    /// the service bumps it on every append and every refit swap, so
    /// cache invalidation needs no separate bump here and cannot miss
    /// a state change.
    pub fn with_cache(mut self, capacity: usize) -> Result<Frontend, ServeError> {
        if capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "verdict cache capacity must be >= 1 (a zero-entry cache can never hit)".into(),
            ));
        }
        let epoch = self.service.state_epoch_handle();
        self.cache = Some(Arc::new(VerdictCache::with_shared_epoch(capacity, epoch)));
        Ok(self)
    }

    /// The attached verdict cache, if any.
    pub fn cache(&self) -> Option<&Arc<VerdictCache>> {
        self.cache.as_ref()
    }

    /// Attaches a [`TenantService`] so tenant-scoped wire requests
    /// ([`Frontend::score_tenant`] / [`Frontend::append_tenant`]) have
    /// somewhere to go. The tenant map is independent of the global
    /// detector set — it carries its own partitions, tiers, and
    /// budget — but shares this front-end's verdict cache under
    /// tenant-scoped keys.
    pub fn with_tenants(mut self, tenants: Arc<TenantService>) -> Frontend {
        self.tenants = Some(tenants);
        self
    }

    /// The attached tenant map, if any.
    pub fn tenants(&self) -> Option<&Arc<TenantService>> {
        self.tenants.as_ref()
    }

    /// Scores a batch of lines against `tenant`'s private partition,
    /// through the verdict cache when one is attached. Cache entries
    /// are keyed under the tenant's namespace and validated against
    /// the tenant's own detector-state epoch, so two tenants with
    /// byte-identical lines can never serve each other's verdicts
    /// (`tests/tenants.rs` pins cache-on ≡ cache-off per tenant).
    pub fn score_tenant(
        &self,
        tenant: TenantId,
        lines: &[String],
    ) -> Result<Vec<Vec<f32>>, TenantError> {
        let svc = self.tenants.as_ref().ok_or_else(no_tenant_service)?;
        let Some(cache) = &self.cache else {
            return svc.score(tenant, lines);
        };
        if lines.is_empty() {
            return Ok(Vec::new());
        }
        let epoch = svc.epoch_of(tenant)?;
        let hits = cache.lookup_batch_tenant(tenant.0, lines, epoch);
        let pending = match split_hits(hits, lines, epoch) {
            Submission::AllHits(verdicts) => return Ok(verdicts),
            Submission::InFlight(pending) => pending,
        };
        let miss_scores = svc.score(tenant, &pending.miss_lines)?;
        let current = svc.epoch_of(tenant)?;
        cache.insert_batch_tenant(
            tenant.0,
            pending
                .miss_lines
                .iter()
                .zip(miss_scores.iter().map(Vec::as_slice)),
            pending.epoch,
            current,
        );
        Ok(merge_verdicts(
            pending.hits,
            &pending.miss_positions,
            miss_scores,
        ))
    }

    /// Absorbs freshly-labeled supervision into `tenant`'s partition.
    /// The tenant's epoch bump invalidates its cached verdicts without
    /// touching any other tenant's entries.
    pub fn append_tenant(
        &self,
        tenant: TenantId,
        lines: &[String],
        labels: &[bool],
    ) -> Result<usize, TenantError> {
        let svc = self.tenants.as_ref().ok_or_else(no_tenant_service)?;
        svc.append(tenant, lines, labels)
    }

    /// A cloneable *uncached* submission handle straight onto the
    /// micro-batching queue — the baseline the cached path is measured
    /// (and parity-tested) against.
    pub fn client(&self) -> ServiceClient {
        self.service.client()
    }

    /// Names (registration order) the per-line score vectors follow.
    pub fn method_names(&self) -> &[String] {
        self.service.method_names()
    }

    /// Scores one arriving line through the cache (when attached) and
    /// the micro-batching workers.
    pub fn score_line(&self, line: &str) -> Result<Vec<f32>, ServeError> {
        let mut scores = self.score_batch(std::slice::from_ref(&line.to_string()))?;
        Ok(scores.pop().expect("one reply per line"))
    }

    /// Scores a batch of lines: cache hits are answered immediately,
    /// only the misses travel to the workers, and the reply is
    /// reassembled in input order. Without a cache this is exactly
    /// [`ServiceClient::score_batch`].
    pub fn score_batch(&self, lines: &[String]) -> Result<Vec<Vec<f32>>, ServeError> {
        let Some(cache) = &self.cache else {
            return self.client().score_batch(lines);
        };
        let (hits, epoch) = cache.lookup_batch(lines);
        match split_hits(hits, lines, epoch) {
            Submission::AllHits(verdicts) => Ok(verdicts),
            Submission::InFlight(pending) => {
                let miss_scores = self.client().score_batch(pending.miss_lines())?;
                Ok(self.complete_cached(pending, miss_scores))
            }
        }
    }

    /// The cache-lookup half of a net scoring request, run on the
    /// connection's reader thread. Nothing is submitted here: the
    /// caller registers the returned [`CachedSubmission`] under its
    /// wire id *first* and only then submits
    /// [`CachedSubmission::miss_lines`] on its tagged reply route —
    /// otherwise a fast worker could complete before the id is
    /// registered and the completion would find nobody waiting.
    pub(crate) fn prepare_scored(&self, lines: Vec<String>) -> Submission {
        let Some(cache) = &self.cache else {
            let n = lines.len();
            return Submission::InFlight(CachedSubmission {
                hits: vec![None; n],
                miss_positions: (0..n).collect(),
                miss_lines: lines,
                epoch: 0,
                cached: false,
            });
        };
        let (hits, epoch) = cache.lookup_batch(&lines);
        split_hits(hits, &lines, epoch)
    }

    /// Finishes a [`Self::prepare_scored`] round: inserts the fresh
    /// miss scores (under the epoch captured at lookup) and merges
    /// hits + misses back into input order.
    pub(crate) fn complete_cached(
        &self,
        pending: CachedSubmission,
        miss_scores: Vec<Vec<f32>>,
    ) -> Vec<Vec<f32>> {
        if pending.cached {
            if let Some(cache) = &self.cache {
                cache.insert_batch(
                    pending
                        .miss_lines
                        .iter()
                        .zip(miss_scores.iter().map(Vec::as_slice)),
                    pending.epoch,
                );
            }
        }
        merge_verdicts(pending.hits, &pending.miss_positions, miss_scores)
    }

    /// Absorbs freshly-labeled supervision into the detector set (see
    /// [`ShardRouter::append`]). The service bumps the shared
    /// detector-state epoch once the append lands — or fails part-way
    /// — so every cached verdict computed against the pre-append state
    /// stops hitting immediately (O(1) invalidation through
    /// [`VerdictCache::with_shared_epoch`]).
    pub fn append(&self, lines: &[String], labels: &[bool]) -> Result<usize, ServeError> {
        self.service.append(lines, labels)
    }

    /// Runs one epoch-swapped refit now, on the caller's thread (see
    /// [`ShardRouter::refit`]). Returns the engine epoch after the
    /// swap.
    pub fn refit(&self) -> Result<u64, ServeError> {
        self.service.refit()
    }

    /// The resident engine's detector generation: 0 at spawn, +1 per
    /// refit swap.
    pub fn engine_epoch(&self) -> u64 {
        self.service.engine_epoch()
    }

    /// The detector-state epoch: bumped on every append, refit swap
    /// and reshard — what an attached verdict cache invalidates by.
    pub fn state_epoch(&self) -> u64 {
        self.service.state_epoch()
    }

    /// Lifecycle counters and trigger state; `None` when spawned
    /// without a lifecycle.
    pub fn lifecycle_stats(&self) -> Option<LifecycleStats> {
        self.service.lifecycle_stats()
    }

    /// Splits the live shard set to `new_shards` without stopping the
    /// service (see [`ShardRouter::reshard`]). Typed
    /// [`ServeError::InvalidConfig`] on a service spawned with
    /// `shards == 1`.
    pub fn reshard(&self, new_shards: usize) -> Result<(), ServeError> {
        self.service.reshard(new_shards)
    }

    /// Captures the persistable detector state at one consistent epoch
    /// (see [`ShardRouter::snapshot`]).
    /// Returns the snapshot plus the names of detectors that were not
    /// capturable. A capture that races an append or refit swap is
    /// retried a few times before the typed
    /// [`ServeError::SnapshotRace`] surfaces — under sustained writes
    /// the caller decides whether to back off or pause appends.
    pub fn snapshot(&self) -> Result<(ServiceSnapshot, Vec<String>), ServeError> {
        let mut last = ServeError::Closed;
        for _ in 0..=SNAPSHOT_RETRIES {
            match self.service.snapshot() {
                Err(e @ ServeError::SnapshotRace { .. }) => last = e,
                other => return other,
            }
        }
        Err(last)
    }

    /// Monotonic counters with the verdict-cache overlay: the
    /// service's batch/line counts plus this cache's hit/miss and
    /// invalidation-epoch counters (zero when no cache is attached).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.service.stats();
        if let Some(cache) = &self.cache {
            let c: CacheStats = cache.stats();
            stats.cache_hits = c.hits;
            stats.cache_misses = c.misses;
            stats.epoch = c.epoch;
        }
        stats
    }

    /// Stops accepting requests and joins every worker (see
    /// [`ShardRouter::shutdown`]).
    pub fn shutdown(self) {
        self.service.shutdown()
    }
}

/// The shard shape [`Frontend::spawn`] asks for: one worker per pool.
fn router_config(shards: usize, serve: ServeConfig) -> RouterConfig {
    RouterConfig {
        shards,
        serve,
        shard_workers: 1,
    }
}

/// Splits a cache lookup over `lines` into the verdict it already
/// completes or the misses still to score, remembering the `epoch`
/// the lookup ran under for the later insert.
fn split_hits(hits: Vec<Option<Vec<f32>>>, lines: &[String], epoch: u64) -> Submission {
    let miss_positions: Vec<usize> = hits
        .iter()
        .enumerate()
        .filter_map(|(i, h)| h.is_none().then_some(i))
        .collect();
    if miss_positions.is_empty() {
        return Submission::AllHits(hits.into_iter().map(|h| h.expect("all hits")).collect());
    }
    let miss_lines: Vec<String> = miss_positions.iter().map(|&i| lines[i].clone()).collect();
    Submission::InFlight(CachedSubmission {
        hits,
        miss_positions,
        miss_lines,
        epoch,
        cached: true,
    })
}

fn no_tenant_service() -> TenantError {
    TenantError::InvalidConfig(
        "front-end has no tenant service attached (Frontend::with_tenants)".into(),
    )
}

/// What a [`Frontend::prepare_scored`] lookup resolved to.
pub(crate) enum Submission {
    /// Every line hit the cache: the verdict is complete and nothing
    /// needs submitting.
    AllHits(Vec<Vec<f32>>),
    /// Some lines missed: register this state, submit
    /// [`CachedSubmission::miss_lines`], and finish with
    /// [`Frontend::complete_cached`] when their scores land.
    InFlight(CachedSubmission),
}

/// The in-flight state of one cached (or cache-less) net submission:
/// which positions hit, which lines still need scoring, and the epoch
/// the lookup ran under. Held by the connection under its wire id
/// until the workers reply.
pub(crate) struct CachedSubmission {
    hits: Vec<Option<Vec<f32>>>,
    miss_positions: Vec<usize>,
    miss_lines: Vec<String>,
    epoch: u64,
    cached: bool,
}

impl CachedSubmission {
    /// The lines that missed the cache, in input order — what the
    /// caller submits to the micro-batching workers.
    pub(crate) fn miss_lines(&self) -> &[String] {
        &self.miss_lines
    }
}
