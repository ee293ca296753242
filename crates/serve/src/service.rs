//! The scoring service's request protocol: its queue knobs and typed
//! errors, the queued request and its reply routes, the client handle
//! producers submit through, micro-batch formation, and the embedding
//! views one micro-batch shares. The service that drains the queue is
//! [`crate::ShardRouter`].

use cmdline_ids::embed::{embed_lines, Pooling};
use cmdline_ids::engine::{EmbeddingView, EngineError};
use cmdline_ids::pipeline::IdsPipeline;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

/// Queue and micro-batching knobs of the scoring service
/// ([`crate::ShardRouter`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded request-queue capacity: producers block (back-pressure)
    /// instead of piling up unbounded memory when scoring falls
    /// behind.
    pub queue_capacity: usize,
    /// Maximum lines coalesced into one scoring micro-batch.
    pub max_batch: usize,
    /// How long a worker waits for more arrivals before scoring a
    /// partial batch. `Duration::ZERO` disables coalescing (every
    /// request scores alone).
    pub batch_window: Duration,
    /// Scoring worker threads draining the queue.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 64,
            batch_window: Duration::from_millis(2),
            workers: 2,
        }
    }
}

impl ServeConfig {
    /// Rejects configurations that cannot serve: a zero-capacity
    /// queue (every submission would block forever), zero workers
    /// (nothing drains the queue), or a zero-line micro-batch window
    /// (a worker could never take the first request of a batch).
    /// Checked at spawn so misconfiguration is a typed
    /// [`ServeError::InvalidConfig`] instead of a deadlock discovered
    /// in production. `batch_window == 0` stays valid — it is the
    /// documented "score every request alone" mode.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be >= 1 (a zero-capacity queue blocks every submission)"
                    .into(),
            ));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "workers must be >= 1 (nothing would drain the request queue)".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be >= 1 (a worker could never accept a request)".into(),
            ));
        }
        Ok(())
    }
}

/// Why a service call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A registered detector is stream-structured
    /// (`test_aligned() == false`, e.g. multiline): its scores index a
    /// different sample set than the arriving lines, so it cannot
    /// serve per-line verdicts.
    StreamStructured(String),
    /// The service has shut down (workers gone before replying).
    Closed,
    /// Absorbing a supervision batch failed.
    Engine(String),
    /// The configuration can never serve (zero queue capacity, zero
    /// workers, zero micro-batch budget, or a shard shape that does
    /// not match the fitted detectors) — rejected at spawn instead of
    /// deadlocking or panicking downstream.
    InvalidConfig(String),
    /// A snapshot capture raced a detector-state change (a refit epoch
    /// swap, an append): the state epoch moved between the start and
    /// end of the capture, so the frames could pair pre- and post-swap
    /// state. The capture is discarded instead of persisted — retry
    /// for a quiescent window (captures are fast relative to refits,
    /// so a bounded retry converges; [`crate::Frontend::snapshot`]
    /// does this).
    SnapshotRace {
        /// State epoch when the capture started.
        before: u64,
        /// State epoch when the capture finished.
        after: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::StreamStructured(name) => write!(
                f,
                "method {name:?} is stream-structured and cannot score arriving lines"
            ),
            ServeError::Closed => write!(f, "scoring service is shut down"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::InvalidConfig(why) => write!(f, "invalid serve configuration: {why}"),
            ServeError::SnapshotRace { before, after } => write!(
                f,
                "snapshot raced a detector-state change (state epoch {before} -> {after}); \
                 retry for a quiescent capture"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e.to_string())
    }
}

/// One queued scoring request: the caller's lines plus the reply
/// route its scores come back on.
pub(crate) struct Request {
    pub(crate) lines: Vec<String>,
    pub(crate) reply: Reply,
}

/// What a net connection's writer thread consumes: either a response
/// frame already encoded by the reader (control plane, verdict-cache
/// all-hit fast path) or a micro-batch completion from the scoring
/// workers, tagged with the wire request id it answers.
pub(crate) enum ConnReply {
    /// Pre-encoded response frame, written verbatim.
    Frame(Vec<u8>),
    /// Scores for request `id`; `None` means the batch was aborted
    /// (worker panic or shutdown drain) and the connection must answer
    /// with a typed error instead of leaving the id dangling.
    Scored(u64, Option<Vec<Vec<f32>>>),
}

/// A tagged completion route into one net connection's writer. Unlike
/// the in-process one-shot channel — where dropping the sender is
/// itself the abort signal — a net connection multiplexes many
/// in-flight requests over one channel, so an abort must be *sent*:
/// dropping an unanswered `NetReply` (batch panic, shutdown drain)
/// delivers `Scored(id, None)` from `Drop`, and the writer turns it
/// into a typed error frame rather than a forever-pending request.
pub(crate) struct NetReply {
    tx: mpsc::Sender<ConnReply>,
    id: u64,
    sent: bool,
}

impl NetReply {
    pub(crate) fn new(tx: mpsc::Sender<ConnReply>, id: u64) -> Self {
        NetReply {
            tx,
            id,
            sent: false,
        }
    }
}

impl Drop for NetReply {
    fn drop(&mut self) {
        if !self.sent {
            let _ = self.tx.send(ConnReply::Scored(self.id, None));
        }
    }
}

/// Where a request's scores go: an in-process caller blocked on a
/// one-shot receiver, or a net connection's multiplexed writer.
pub(crate) enum Reply {
    /// In-process caller ([`ServiceClient::score_batch`]).
    Oneshot(mpsc::Sender<Vec<Vec<f32>>>),
    /// Pipelined wire request (`serve::net`).
    Net(NetReply),
}

impl Reply {
    /// Delivers the scores. A receiver that gave up is not an error
    /// for the batch.
    pub(crate) fn send(self, scores: Vec<Vec<f32>>) {
        match self {
            Reply::Oneshot(tx) => {
                let _ = tx.send(scores);
            }
            Reply::Net(mut r) => {
                r.sent = true;
                let _ = r.tx.send(ConnReply::Scored(r.id, Some(scores)));
            }
        }
    }
}

/// Monotonic service counters (drained micro-batches and lines, plus
/// — when a verdict cache fronts the scoring path — its hit/miss and
/// invalidation-epoch counters), for benches and monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Micro-batches scored so far.
    pub batches: usize,
    /// Lines scored so far (cache hits never reach the workers, so
    /// they are not counted here).
    pub lines: usize,
    /// Verdict-cache hits (0 when no cache is attached).
    pub cache_hits: usize,
    /// Verdict-cache misses (0 when no cache is attached).
    pub cache_misses: usize,
    /// Verdict-cache invalidation epoch: bumped on every absorbed
    /// `append`/refit, so a changing value is the proof that cached
    /// verdicts cannot outlive the detector state that produced them.
    pub epoch: u64,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) batches: AtomicUsize,
    pub(crate) lines: AtomicUsize,
}

impl Counters {
    pub(crate) fn record_batch(&self, lines: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.lines.fetch_add(lines, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ServiceStats {
        ServiceStats {
            batches: self.batches.load(Ordering::Relaxed),
            lines: self.lines.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            epoch: 0,
        }
    }
}

/// Per-line mean across methods — the one-dimensional verdict stream
/// the drift tracker watches.
pub(crate) fn observed_means(verdicts: &[Vec<f32>]) -> impl Iterator<Item = f32> + '_ {
    verdicts.iter().map(|v| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f32>() / v.len() as f32
        }
    })
}

/// What one consumer of a micro-batch's views needs: whether it reads
/// the embedding matrix at all, and in which pooled space.
pub(crate) type ViewSpec = (bool, Pooling);

/// The embedding views one micro-batch needs: at most one encoder pass
/// per pooled space any consumer reads, plus a lines-only view for
/// methods that embed under their own encoder. Views nothing reads
/// are not built. Cheap to clone (every view is `Arc`-backed), which
/// is how the service hands one embedded batch to every shard pool
/// without re-encoding.
#[derive(Clone)]
pub(crate) struct PooledViews {
    n_lines: usize,
    mean: Option<EmbeddingView>,
    cls: Option<EmbeddingView>,
    lines_only: Option<EmbeddingView>,
}

impl PooledViews {
    /// Views for an explicit set of consumers — resident detectors and
    /// per-shard pools alike, so an append can ask only for the pooled
    /// spaces its absorbing detectors read.
    pub(crate) fn build_specs(
        pipeline: &IdsPipeline,
        specs: impl Iterator<Item = ViewSpec>,
        lines: &[&str],
    ) -> Self {
        let mut wants = [false; 2];
        let mut wants_lines_only = false;
        for (wants_embeddings, pooling) in specs {
            if wants_embeddings {
                wants[matches!(pooling, Pooling::Cls) as usize] = true;
            } else {
                wants_lines_only = true;
            }
        }
        let embed = |pooling: Pooling| {
            let matrix = embed_lines(
                pipeline.encoder(),
                pipeline.tokenizer(),
                lines,
                pipeline.max_len(),
                pooling,
            );
            EmbeddingView::new(lines.iter().map(|s| s.to_string()).collect(), matrix)
        };
        PooledViews {
            n_lines: lines.len(),
            mean: wants[0].then(|| embed(Pooling::Mean)),
            cls: wants[1].then(|| embed(Pooling::Cls)),
            lines_only: wants_lines_only
                .then(|| EmbeddingView::lines_only(lines.iter().map(|s| s.to_string()).collect())),
        }
    }

    /// Lines in the micro-batch these views embed.
    pub(crate) fn len(&self) -> usize {
        self.n_lines
    }

    /// The view a consumer with the given [`ViewSpec`] reads.
    pub(crate) fn view_for(&self, spec: ViewSpec) -> EmbeddingView {
        let (wants_embeddings, pooling) = spec;
        if !wants_embeddings {
            return self
                .lines_only
                .as_ref()
                .expect("lines-only view built")
                .clone();
        }
        match pooling {
            Pooling::Mean => self.mean.as_ref().expect("mean view built").clone(),
            Pooling::Cls => self.cls.as_ref().expect("cls view built").clone(),
        }
    }

    pub(crate) fn for_detector(&self, det: &dyn cmdline_ids::engine::Detector) -> EmbeddingView {
        self.view_for((det.wants_embeddings(), det.pooling()))
    }
}

/// The shutdown gate: submissions take the read lock for the
/// check-and-send, [`crate::ShardRouter::shutdown`] flips the flag under
/// the write lock — so no request can slip into the queue after the
/// workers were told to stop (it would hang unanswered).
pub(crate) type CloseGate = RwLock<bool>;

/// A cloneable submission handle onto a running scoring service
/// ([`crate::ShardRouter`]); producers are agnostic to whether
/// verdicts come from resident detectors alone or a merged shard
/// fan-out. Hand one to each producer thread. Outlives the service
/// safely: calls after shutdown return [`ServeError::Closed`].
#[derive(Clone)]
pub struct ServiceClient {
    tx: Sender<Request>,
    gate: Arc<CloseGate>,
    method_names: Arc<[String]>,
}

impl ServiceClient {
    /// Wires a client onto the service's front queue.
    pub(crate) fn new(
        tx: Sender<Request>,
        gate: Arc<CloseGate>,
        method_names: Arc<[String]>,
    ) -> Self {
        ServiceClient {
            tx,
            gate,
            method_names,
        }
    }

    /// The shutdown gate this client submits through (the owning
    /// service flips it at shutdown).
    pub(crate) fn close_gate(&self) -> &Arc<CloseGate> {
        &self.gate
    }

    /// Names (registration order) the per-line score vectors follow.
    pub fn method_names(&self) -> &[String] {
        &self.method_names
    }

    /// Scores one arriving line with every resident detector;
    /// blocks until the verdict is ready (the line may share its
    /// micro-batch with concurrent arrivals).
    pub fn score_line(&self, line: &str) -> Result<Vec<f32>, ServeError> {
        let mut scores = self.score_batch(std::slice::from_ref(&line.to_string()))?;
        Ok(scores.pop().expect("one reply per line"))
    }

    /// Scores a batch of arriving lines; one score vector per line, in
    /// input order.
    pub fn score_batch(&self, lines: &[String]) -> Result<Vec<Vec<f32>>, ServeError> {
        if lines.is_empty() {
            return Ok(Vec::new());
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        self.submit(lines.to_vec(), Reply::Oneshot(reply_tx))?;
        reply_rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Enqueues a scoring request with an explicit reply route — the
    /// shared submission primitive behind [`Self::score_batch`] (one-
    /// shot reply) and the net front-end's pipelined readers (tagged
    /// [`Reply::Net`] completions).
    pub(crate) fn submit(&self, lines: Vec<String>, reply: Reply) -> Result<(), ServeError> {
        // Hold the gate across the send: shutdown cannot mark the
        // service closed while a submission is mid-flight, so every
        // enqueued request is either answered by a worker or
        // explicitly dropped (→ `Closed`) by the shutdown drain.
        let closed = self.gate.read().unwrap();
        if *closed {
            return Err(ServeError::Closed);
        }
        self.tx
            .send(Request { lines, reply })
            .map_err(|_| ServeError::Closed)
    }
}

/// How long an idle worker sleeps between shutdown-flag checks.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(25);

/// Moves already-queued requests into `requests` while their lines
/// fit within `budget` (one channel lock total); returns the line
/// count taken. Requests are atomic — one whose lines exceed the
/// remaining budget stays queued for the next batch, so a drain never
/// blows past `max_batch` (a micro-batch can still overshoot by at
/// most one request: its first, or a straggler accepted blind from
/// `recv_timeout`, must be taken whatever their size).
fn drain_queued(rx: &Receiver<Request>, requests: &mut Vec<Request>, budget: usize) -> usize {
    if budget == 0 {
        return 0;
    }
    let mut taken = 0usize;
    rx.try_recv_while(requests, |req| {
        if taken + req.lines.len() > budget {
            return false;
        }
        taken += req.lines.len();
        true
    });
    taken
}

/// Blocks for a request and coalesces more arrivals within the batch
/// window (up to `max_batch` lines) into one micro-batch. Returns
/// `None` when the worker should exit (stop flag observed while idle,
/// or the queue disconnected).
pub(crate) fn collect_batch(
    rx: &Receiver<Request>,
    stop: &AtomicBool,
    max_batch: usize,
    batch_window: Duration,
) -> Option<Vec<Request>> {
    let first = loop {
        match rx.recv_timeout(IDLE_POLL) {
            Ok(req) => break req,
            Err(RecvTimeoutError::Timeout) => {
                // Lock-free by design — see `ShardRouter::stop_batchers`.
                if stop.load(Ordering::Acquire) {
                    return None;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    };
    let mut requests = vec![first];
    let mut n_lines = requests[0].lines.len();
    if !batch_window.is_zero() {
        // Fast path: whatever is already queued joins the batch in
        // one lock round-trip (the common case once the service is
        // saturated — while this worker scored the previous batch,
        // producers refilled the queue).
        n_lines += drain_queued(rx, &mut requests, max_batch - n_lines.min(max_batch));
        // Slow path: the queue ran dry with batch budget left —
        // wait out the window for stragglers.
        let deadline = Instant::now() + batch_window;
        while n_lines < max_batch {
            let now = Instant::now();
            let wait = deadline.saturating_duration_since(now);
            if wait.is_zero() {
                break;
            }
            match rx.recv_timeout(wait) {
                Ok(req) => {
                    n_lines += req.lines.len();
                    requests.push(req);
                    n_lines += drain_queued(rx, &mut requests, max_batch - n_lines.min(max_batch));
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    Some(requests)
}
