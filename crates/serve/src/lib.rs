//! The streaming scoring service: the online counterpart of the batch
//! [`ScoringEngine`](cmdline_ids::engine::ScoringEngine) protocol.
//!
//! The paper's evaluation is offline — fit on a labeled training
//! split, score a de-duplicated test split once. Production
//! supervision does not arrive that way: command lines stream in
//! continuously and each wants a verdict *now*, from a detector set
//! that is already fitted and whose exemplar indexes are already
//! built. This crate keeps that state resident in **one scoring
//! service** ([`ShardRouter`], normally spawned through
//! [`Frontend::spawn`]) — one request queue, one micro-batching loop,
//! one `append`, one `refit`, one `snapshot` — that feeds zero or more
//! shard pools, and adds the things the offline path never needed:
//!
//! * **Micro-batched line scoring** — requests enter a bounded
//!   channel; batcher threads coalesce arrivals within a configurable
//!   window so the encoder's batched forward and the index's batched
//!   queries stay hot even when every caller submits one line. On the
//!   exact backend, streamed scores are **bit-identical** to the
//!   one-shot batch run (`tests/online_offline_parity.rs`) because the
//!   batched forward is bit-identical per line regardless of batch
//!   composition.
//! * **Live supervision absorption** ([`Frontend::append`]) —
//!   freshly-labeled exemplars insert into the resident neighbour
//!   indexes through the incremental HNSW insert path instead of
//!   forcing a rebuild.
//! * **Cold-start persistence** ([`ServiceSnapshot`]) — the fitted
//!   neighbour detectors (params + built graphs + candidate norms)
//!   serialize to a binary frame; a restarting service adopts the
//!   saved graphs without re-running the O(n·ef_construction)
//!   construction pass (asserted against
//!   [`index::construction_passes`]).
//! * **0..N shard pools** ([`RouterConfig::shards`]) — with
//!   `shards == 1` every detector is resident and a micro-batch is
//!   scored on the batcher thread that formed it: no pool thread, no
//!   scatter/gather channel. With `shards == N > 1` and neighbour
//!   detectors fitted over a sharded index
//!   (`IndexConfig::with_shards(n)`), the same loop splits them into N
//!   per-shard worker pools behind the same [`ServiceClient`]
//!   protocol: each micro-batch is embedded once, scattered to every
//!   shard, and the per-shard top-k candidates are merged back under
//!   the exact scan's total order — bit-identical to the pool-less
//!   service on exact shards (`tests/shard_router_parity.rs`), with
//!   `append` write-locking only the owning shard and snapshots framed
//!   as a manifest + N shard frames.
//! * **Zipf-aware verdict caching** ([`Frontend`], [`VerdictCache`]) —
//!   real log traffic is Zipf-heavy: a small hot head of *identical*
//!   command lines dominates arrivals. An exact-match bounded-LRU
//!   cache in front of the scoring path answers the hot head without
//!   tokenize+embed+scan; an epoch counter bumped on every absorbed
//!   `append` invalidates the whole cache in O(1), and hits are
//!   bit-identical to the uncached path (`tests/verdict_cache.rs`).
//! * **A real network front-end** ([`NetServer`], [`NetClient`]) — a
//!   length-prefixed TCP framing of the same protocol
//!   (`serve::wire`, hand-rolled in the `index::persist` codec
//!   style), with thread-per-connection readers feeding the existing
//!   micro-batching workers and connection-level pipelining so many
//!   in-flight requests share one socket. Loopback throughput and the
//!   cache win are the load benchmark's `wire_cold` and
//!   `wire_zipf_hot` workloads.
//! * **Online detector lifecycle** ([`LifecycleConfig`], epoch-swapped
//!   refit) — the paper's unsupervised detectors assume periodically
//!   re-fitted baselines. A lifecycle-enabled service logs every
//!   absorbed append, watches the served score distribution with a
//!   deterministic PSI tracker ([`DriftDetector`]), and — on a drift
//!   or append-count trigger — re-fits fresh seeded templates of the
//!   refittable detectors off baseline ∪ append-log, swapping the new
//!   epoch in under one brief write lock while in-flight micro-batches
//!   finish on the old one. Refit-under-load is bit-identical to a
//!   stop-the-world refit on exact backends (`tests/lifecycle.rs`),
//!   and the same state-epoch counter that invalidates the verdict
//!   cache on appends is bumped on every swap.
//!   A pooled service can also be reshaped live:
//!   [`ShardRouter::reshard`] splits the shard set without stopping
//!   the service.
//! * **Multi-tenant serving under a memory envelope**
//!   ([`TenantService`]) — per-tenant exemplar partitions routed to
//!   lock groups by the seeded content-stable shard hash, with tiered
//!   hot/cold storage: hot tenants keep fitted HNSW graphs resident,
//!   cold tenants are demoted to compact graph-dropped frames
//!   (deterministically rebuilt on first touch — bit-identical by the
//!   pinned seeded-construction property) and LRU-evicted against a
//!   configurable byte budget. The wire protocol carries tenant-tagged
//!   requests under a versioned frame header, and the verdict cache
//!   keys tenant entries separately with per-tenant epochs, so two
//!   tenants submitting identical lines can never cross-serve
//!   (`tests/tenants.rs`; at 2 000 tenants, the load benchmark's
//!   `tenant_churn` workload).

mod cache;
mod front;
mod lifecycle;
mod net;
mod router;
mod service;
mod snapshot;
mod tenants;
pub mod wire;

pub use cache::{CacheStats, VerdictCache};
pub use front::Frontend;
pub use lifecycle::{DriftConfig, DriftDetector, LifecycleConfig, LifecycleStats, RefitSource};
pub use net::{NetClient, NetConfig, NetServer, DEFAULT_MAX_FRAME};
pub use router::{RouterConfig, ShardRouter};
pub use service::{ServeConfig, ServeError, ServiceClient, ServiceStats};
pub use snapshot::{ServiceSnapshot, SnapshotError};
pub use tenants::{
    TenantConfig, TenantError, TenantId, TenantMapSnapshot, TenantService, TenantStats,
};
pub use wire::NetError;
