//! The exact-match verdict cache for Zipf-heavy traffic.
//!
//! The decisive property of real log ingestion (what the load
//! benchmark's `wire_zipf_hot` workload models): arrivals follow a Zipf
//! law, so a small hot head of *identical* command lines dominates the
//! stream. Scoring is a pure function of (raw line, fitted detector
//! state) — so once a line's verdict is known, re-scoring it buys
//! nothing until the detector state changes. This cache keeps the hot
//! head's verdicts resident:
//!
//! * **Exact-match only.** The key is the raw line itself (the map
//!   hashes it, but equality is on the full string): two lines that
//!   differ in one byte are different keys, so a hit returns *exactly*
//!   the bytes the scoring path produced earlier — the bit-identity
//!   guarantee needs no tolerance argument.
//! * **Epoch invalidation, O(1).** Every absorbed `append`/refit bumps
//!   a monotonic epoch counter. Entries remember the epoch they were
//!   scored under; a lookup only hits when the entry's epoch equals
//!   the current one, so one counter increment invalidates the whole
//!   cache without touching a single entry. Stale entries found by a
//!   lookup are removed on the spot; the rest are recycled by LRU
//!   eviction.
//! * **Bounded LRU.** At most `capacity` verdicts are resident; an
//!   insert over capacity evicts the least-recently-used entry, so the
//!   cache holds (an approximation of) the Zipf head and the cold tail
//!   streams through without growing memory.
//!
//! The insert path takes the epoch that was *captured before scoring
//! started* ([`VerdictCache::lookup_batch`] returns it): if an append
//! bumped the epoch while the batch was in flight, the insert is
//! dropped, so a verdict computed against pre-append state can never
//! be served after the append (`tests/verdict_cache.rs`).
//!
//! **Tenant axis.** A verdict is a function of (raw line, fitted
//! detector state), and under multi-tenant serving the detector state
//! differs per tenant — so the cache key carries an optional
//! `TenantId` beside the line. The global (single-engine) front-end
//! keys under `None` with the shared state epoch; tenant-scoped
//! lookups ([`VerdictCache::lookup_batch_tenant`]) key under
//! `Some(id)` and validate against that tenant's *own* epoch, so two
//! tenants submitting byte-identical lines can never cross-serve each
//! other's verdicts (`tests/tenants.rs`). The LRU recency list stays
//! global: capacity bounds total residency, not per-tenant residency.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel for "no node" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// Monotonic cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to the scoring path (includes
    /// stale-epoch entries, which are misses by definition).
    pub misses: usize,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: usize,
    /// Entries currently resident.
    pub len: usize,
    /// Capacity bound.
    pub capacity: usize,
    /// Current invalidation epoch.
    pub epoch: u64,
}

struct Node {
    /// `None` = the front-end's global (single-engine) namespace;
    /// `Some(id)` = a tenant partition. Two tenants submitting the
    /// same raw line occupy *different* entries — verdicts are a
    /// function of (line, tenant state), so the tenant is part of the
    /// cache key and a hit can never cross-serve another tenant's
    /// verdict (`tests/tenants.rs`).
    tenant: Option<u64>,
    key: String,
    scores: Vec<f32>,
    epoch: u64,
    prev: usize,
    next: usize,
}

/// The LRU state under the lock: a slab of nodes threaded into a
/// doubly-linked recency list plus a tenant → (line → slot) map.
/// Everything is O(1): get (+ move to front), insert, evict-tail.
/// The recency list is global across tenants, so the capacity bound
/// holds the *overall* Zipf head — a busy tenant's hot lines displace
/// an idle tenant's cold ones.
struct Lru {
    map: HashMap<Option<u64>, HashMap<String, usize>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Lru {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    fn slot(&self, tenant: Option<u64>, line: &str) -> Option<usize> {
        self.map.get(&tenant).and_then(|m| m.get(line)).copied()
    }

    /// Entries currently resident (across every tenant).
    fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let tenant = self.nodes[i].tenant;
        let key = std::mem::take(&mut self.nodes[i].key);
        if let Some(m) = self.map.get_mut(&tenant) {
            m.remove(&key);
            // Drop emptied tenant sub-maps so a long-departed tenant
            // costs nothing once its entries age out.
            if m.is_empty() {
                self.map.remove(&tenant);
            }
        }
        self.nodes[i].scores = Vec::new();
        self.free.push(i);
    }
}

/// A bounded, epoch-invalidated, exact-match verdict cache. Shared
/// (`Arc`) between the scoring front-end that consults it and the
/// append path that bumps its epoch; all methods take `&self`.
pub struct VerdictCache {
    inner: Mutex<Lru>,
    capacity: usize,
    epoch: Arc<AtomicU64>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl VerdictCache {
    /// A cache holding at most `capacity` verdicts, with its own
    /// private epoch counter (callers bump it via
    /// [`Self::bump_epoch`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — config layers reject that shape
    /// with a typed error before construction ([`crate::NetConfig`],
    /// [`crate::Frontend::with_cache`]).
    pub fn new(capacity: usize) -> Self {
        Self::with_shared_epoch(capacity, Arc::new(AtomicU64::new(0)))
    }

    /// A cache whose invalidation epoch *is* the given shared counter.
    /// The serving stack hands in its detector-state epoch — bumped on
    /// every absorbed append **and** every refit swap — so a post-swap
    /// lookup can never hit a pre-swap verdict without the front-end
    /// having to remember to bump anything.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (see [`Self::new`]).
    pub fn with_shared_epoch(capacity: usize, epoch: Arc<AtomicU64>) -> Self {
        assert!(capacity > 0, "verdict cache capacity must be >= 1");
        VerdictCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
            capacity,
            epoch,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// The current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Invalidates every resident verdict in O(1): entries written
    /// under earlier epochs stop hitting immediately. Called by the
    /// front-end after an `append`/refit completes.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Looks up a batch of lines under one lock round-trip. Returns
    /// the per-line verdicts (`None` = miss) plus the epoch the
    /// lookup ran under — the caller must hand that epoch back to
    /// [`Self::insert_batch`] so in-flight appends drop the insert.
    pub fn lookup_batch(&self, lines: &[String]) -> (Vec<Option<Vec<f32>>>, u64) {
        let epoch = self.epoch();
        (self.lookup_inner(None, lines, epoch), epoch)
    }

    /// [`Self::lookup_batch`] scoped to a tenant partition: only
    /// entries written for `tenant` under exactly `epoch` (the
    /// tenant's *own* detector-state epoch, bumped per absorbed
    /// append) can hit. Hand the same epoch to
    /// [`Self::insert_batch_tenant`].
    pub fn lookup_batch_tenant(
        &self,
        tenant: u64,
        lines: &[String],
        epoch: u64,
    ) -> Vec<Option<Vec<f32>>> {
        self.lookup_inner(Some(tenant), lines, epoch)
    }

    fn lookup_inner(
        &self,
        tenant: Option<u64>,
        lines: &[String],
        epoch: u64,
    ) -> Vec<Option<Vec<f32>>> {
        let mut lru = self.inner.lock().unwrap();
        let mut hits = 0usize;
        let out: Vec<Option<Vec<f32>>> = lines
            .iter()
            .map(|line| match lru.slot(tenant, line) {
                Some(i) if lru.nodes[i].epoch == epoch => {
                    hits += 1;
                    lru.unlink(i);
                    lru.push_front(i);
                    Some(lru.nodes[i].scores.clone())
                }
                Some(i) => {
                    // Stale epoch: the entry can never hit again —
                    // reclaim its slot now instead of waiting for LRU
                    // drift to flush it.
                    lru.remove(i);
                    None
                }
                None => None,
            })
            .collect();
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(lines.len() - hits, Ordering::Relaxed);
        out
    }

    /// Convenience single-line lookup (records one hit or miss).
    pub fn lookup(&self, line: &str) -> Option<Vec<f32>> {
        let (mut out, _) = self.lookup_batch(std::slice::from_ref(&line.to_string()));
        out.pop().unwrap()
    }

    /// Inserts freshly-scored verdicts under the epoch captured at
    /// lookup time. If an append bumped the epoch while the batch was
    /// being scored, the whole insert is dropped — a pre-append
    /// verdict must never be resident under the post-append epoch.
    pub fn insert_batch<'a>(
        &self,
        entries: impl Iterator<Item = (&'a String, &'a [f32])>,
        epoch: u64,
    ) {
        let current = self.epoch();
        self.insert_inner(None, entries, epoch, current);
    }

    /// [`Self::insert_batch`] scoped to a tenant partition. `epoch` is
    /// the tenant epoch captured at lookup time; `current` is the
    /// tenant's epoch *now* — if an append to this tenant landed while
    /// the batch was scoring, the two differ and the insert is
    /// dropped, exactly like the shared-epoch path.
    pub fn insert_batch_tenant<'a>(
        &self,
        tenant: u64,
        entries: impl Iterator<Item = (&'a String, &'a [f32])>,
        epoch: u64,
        current: u64,
    ) {
        self.insert_inner(Some(tenant), entries, epoch, current);
    }

    fn insert_inner<'a>(
        &self,
        tenant: Option<u64>,
        entries: impl Iterator<Item = (&'a String, &'a [f32])>,
        epoch: u64,
        current: u64,
    ) {
        let mut lru = self.inner.lock().unwrap();
        if current != epoch {
            return;
        }
        let mut evictions = 0usize;
        for (line, scores) in entries {
            if let Some(i) = lru.slot(tenant, line) {
                lru.nodes[i].scores = scores.to_vec();
                lru.nodes[i].epoch = epoch;
                lru.unlink(i);
                lru.push_front(i);
                continue;
            }
            if lru.len() >= self.capacity {
                let tail = lru.tail;
                debug_assert_ne!(tail, NIL);
                lru.remove(tail);
                evictions += 1;
            }
            let node = Node {
                tenant,
                key: line.clone(),
                scores: scores.to_vec(),
                epoch,
                prev: NIL,
                next: NIL,
            };
            let i = match lru.free.pop() {
                Some(i) => {
                    lru.nodes[i] = node;
                    i
                }
                None => {
                    lru.nodes.push(node);
                    lru.nodes.len() - 1
                }
            };
            lru.push_front(i);
            lru.map.entry(tenant).or_default().insert(line.clone(), i);
        }
        self.evictions.fetch_add(evictions, Ordering::Relaxed);
    }

    /// Entries currently resident (across every tenant).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Monotonic hit/miss/eviction counters plus the current shape.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
            epoch: self.epoch(),
        }
    }
}

/// Reassembles a full per-line verdict vector from cache hits plus the
/// scoring path's answers for the misses. `miss_scores[j]` is the
/// verdict for the line at `miss_positions[j]`; every other position
/// must hold a hit. Shared by the in-process cached path
/// ([`crate::Frontend::score_batch`]) and the net writer's completion
/// path, so the two assemble bit-identically by construction.
pub(crate) fn merge_verdicts(
    hits: Vec<Option<Vec<f32>>>,
    miss_positions: &[usize],
    miss_scores: Vec<Vec<f32>>,
) -> Vec<Vec<f32>> {
    debug_assert_eq!(miss_positions.len(), miss_scores.len());
    let mut out: Vec<Option<Vec<f32>>> = hits;
    for (&pos, scores) in miss_positions.iter().zip(miss_scores) {
        debug_assert!(out[pos].is_none());
        out[pos] = Some(scores);
    }
    out.into_iter()
        .map(|v| v.expect("every line is a hit or a scored miss"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: usize) -> String {
        format!("cmd --arg {i}")
    }

    #[test]
    fn hit_returns_exact_scores_and_miss_falls_through() {
        let cache = VerdictCache::new(4);
        let lines = vec![line(1), line(2)];
        let (hits, epoch) = cache.lookup_batch(&lines);
        assert!(hits.iter().all(Option::is_none));
        cache.insert_batch(
            lines
                .iter()
                .zip([[0.25f32].as_slice(), [0.5f32].as_slice()]),
            epoch,
        );
        assert_eq!(cache.lookup(&line(1)), Some(vec![0.25]));
        assert_eq!(cache.lookup(&line(2)), Some(vec![0.5]));
        assert_eq!(cache.lookup(&line(3)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 3));
    }

    #[test]
    fn epoch_bump_invalidates_everything_at_once() {
        let cache = VerdictCache::new(4);
        let lines = vec![line(1)];
        let (_, epoch) = cache.lookup_batch(&lines);
        cache.insert_batch(lines.iter().zip([[1.0f32].as_slice()]), epoch);
        assert!(cache.lookup(&line(1)).is_some());
        cache.bump_epoch();
        assert_eq!(cache.lookup(&line(1)), None, "stale epoch must miss");
        // The stale entry was reclaimed on lookup, not just skipped.
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn in_flight_insert_against_a_bumped_epoch_is_dropped() {
        let cache = VerdictCache::new(4);
        let lines = vec![line(1)];
        let (_, epoch) = cache.lookup_batch(&lines);
        cache.bump_epoch(); // append lands while the batch is scoring
        cache.insert_batch(lines.iter().zip([[1.0f32].as_slice()]), epoch);
        assert_eq!(cache.len(), 0, "pre-append verdict must not be cached");
    }

    #[test]
    fn lru_evicts_the_coldest_entry_at_capacity() {
        let cache = VerdictCache::new(2);
        for i in 0..2 {
            let lines = vec![line(i)];
            let (_, e) = cache.lookup_batch(&lines);
            cache.insert_batch(lines.iter().zip([[i as f32].as_slice()]), e);
        }
        // Touch line(0) so line(1) is the LRU tail.
        assert!(cache.lookup(&line(0)).is_some());
        let lines = vec![line(2)];
        let (_, e) = cache.lookup_batch(&lines);
        cache.insert_batch(lines.iter().zip([[2.0f32].as_slice()]), e);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&line(0)).is_some(), "hot entry survives");
        assert_eq!(cache.lookup(&line(1)), None, "cold entry evicted");
        assert!(cache.lookup(&line(2)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn tenants_never_cross_serve_identical_lines() {
        let cache = VerdictCache::new(8);
        let lines = vec![line(1)];
        cache.insert_batch_tenant(7, lines.iter().zip([[0.25f32].as_slice()]), 3, 3);
        // Same raw line: tenant 7 hits under its epoch, tenant 8 and
        // the global namespace miss.
        assert_eq!(
            cache.lookup_batch_tenant(7, &lines, 3),
            vec![Some(vec![0.25])]
        );
        assert_eq!(cache.lookup_batch_tenant(8, &lines, 3), vec![None]);
        assert_eq!(cache.lookup(&line(1)), None);
        // And the global namespace holding the line does not leak into
        // a tenant partition.
        let (_, e) = cache.lookup_batch(&lines);
        cache.insert_batch(lines.iter().zip([[0.5f32].as_slice()]), e);
        assert_eq!(
            cache.lookup_batch_tenant(8, &lines, 0),
            vec![None],
            "global entry must not serve a tenant lookup"
        );
    }

    #[test]
    fn tenant_epoch_mismatch_misses_and_reclaims() {
        let cache = VerdictCache::new(8);
        let lines = vec![line(1)];
        cache.insert_batch_tenant(7, lines.iter().zip([[1.0f32].as_slice()]), 3, 3);
        assert_eq!(cache.lookup_batch_tenant(7, &lines, 4), vec![None]);
        assert_eq!(cache.len(), 0, "stale tenant entry reclaimed on lookup");
        // An insert whose tenant epoch moved mid-flight is dropped.
        cache.insert_batch_tenant(7, lines.iter().zip([[1.0f32].as_slice()]), 3, 4);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn merge_verdicts_reassembles_in_order() {
        let hits = vec![Some(vec![1.0]), None, Some(vec![3.0]), None];
        let merged = merge_verdicts(hits, &[1, 3], vec![vec![2.0], vec![4.0]]);
        assert_eq!(merged, vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
    }
}
