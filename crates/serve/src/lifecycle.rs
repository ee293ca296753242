//! The online detector lifecycle: drift-triggered background refits.
//!
//! The serving layer absorbs supervision into neighbour indexes
//! incrementally (`Detector::append`), but the unsupervised methods
//! (PCA, isolation forest, one-class SVM) keep the fitted state of
//! their original training set forever — their behavioural baseline
//! goes stale as the append stream accumulates. This module holds the
//! pieces that keep them fresh without stopping the service:
//!
//! * [`RefitSource`] — the baseline training set a refit starts from;
//!   every refit fits on `baseline ∪ appended-so-far`, which is
//!   exactly what a stop-the-world refit would fit on (the parity
//!   anchor of `tests/lifecycle.rs`).
//! * [`DriftConfig`] / [`DriftDetector`] — a deterministic
//!   population-stability statistic over the per-line mean verdict
//!   stream. The first `window` scores freeze a reference histogram;
//!   the most recent `window` scores form the comparison window; the
//!   PSI-style statistic is 0 exactly when the two windows have
//!   identical bin occupancy and grows without bound as they separate.
//!   No RNG anywhere: the same score sequence produces bit-identical
//!   statistics and firing decisions (`tests/drift.rs` proptests).
//! * [`LifecycleState`] — the shared bookkeeping the scoring service
//!   ([`crate::ShardRouter`]) threads its scoring/append paths
//!   through: the append log, the drift tracker, and the refit trigger
//!   flags the background worker polls.
//!
//! The refit itself lives on the service (it owns the engine lock);
//! this module only decides *when* and supplies *what to fit on*.

use crate::service::ServeError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The baseline training set background refits start from: the lines
/// and supervision labels the resident engine was originally fitted
/// on. Each refit fits `baseline ∪ append-log-prefix`, so a refit
/// under load converges to the same state a stop-the-world refit over
/// the same history produces.
#[derive(Debug, Clone)]
pub struct RefitSource {
    lines: Vec<String>,
    labels: Vec<bool>,
}

impl RefitSource {
    /// A baseline of `lines` with one supervision label per line.
    pub fn new(lines: Vec<String>, labels: Vec<bool>) -> Result<Self, ServeError> {
        if lines.len() != labels.len() {
            return Err(ServeError::InvalidConfig(format!(
                "refit source needs one label per line: {} lines, {} labels",
                lines.len(),
                labels.len()
            )));
        }
        if lines.is_empty() {
            return Err(ServeError::InvalidConfig(
                "refit source must hold at least one baseline line (detectors cannot fit on an \
                 empty set)"
                    .into(),
            ));
        }
        Ok(RefitSource { lines, labels })
    }

    /// Baseline lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Baseline labels, aligned with [`RefitSource::lines`].
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }
}

/// When the lifecycle fires a refit.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Scores per comparison side: the first `window` observed scores
    /// freeze the reference distribution, the most recent `window`
    /// form the current one.
    pub window: usize,
    /// Histogram bins the stability statistic compares occupancy over
    /// (reference-quantile edges).
    pub bins: usize,
    /// Fire a refit when the stability statistic exceeds this. The
    /// statistic is 0 for identical windows and roughly
    /// `2·ln(window)`-scale under complete separation; the PSI
    /// folklore thresholds (0.1 = drifting, 0.25 = shifted) are a
    /// reasonable starting range.
    pub threshold: f32,
    /// Also fire once this many lines have been appended since the
    /// last refit (0 disables the count trigger) — the backstop for
    /// baselines that grow a lot without shifting the score
    /// distribution.
    pub append_threshold: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 256,
            bins: 8,
            threshold: 0.25,
            append_threshold: 512,
        }
    }
}

impl DriftConfig {
    /// Rejects shapes that cannot track drift: fewer than 2 bins (one
    /// bin always has identical occupancy), a window smaller than the
    /// bin count (quantile edges would collapse), or a non-positive
    /// threshold (the statistic is 0 on identical windows, so the
    /// trigger would fire on no drift at all).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.bins < 2 {
            return Err(ServeError::InvalidConfig(
                "drift bins must be >= 2 (one bin cannot separate distributions)".into(),
            ));
        }
        if self.window < self.bins {
            return Err(ServeError::InvalidConfig(format!(
                "drift window ({}) must be >= bins ({}) so quantile edges are distinct",
                self.window, self.bins
            )));
        }
        if self.threshold.is_nan() || self.threshold <= 0.0 {
            return Err(ServeError::InvalidConfig(
                "drift threshold must be > 0 (the statistic is 0 on identical windows)".into(),
            ));
        }
        Ok(())
    }
}

/// Proportion floor for empty histogram bins: keeps the PSI log term
/// finite while making "all mass moved into bins the reference never
/// occupied" score ~ln(1/EPS) per unit of moved mass — far above any
/// sane threshold, which is what makes the "always fires past the
/// threshold on complete separation" proptest a theorem rather than a
/// tuning accident.
const PSI_EPS: f64 = 1e-6;

/// A deterministic score-distribution-shift tracker (population
/// stability index over reference-quantile bins).
///
/// Feed it the per-line mean verdict of every scored micro-batch
/// ([`DriftDetector::observe`]); once both windows are full,
/// [`DriftDetector::statistic`] is the PSI between the frozen
/// reference window and the rolling current window, and
/// [`DriftDetector::fired`] compares it to the configured threshold.
/// Everything is a pure function of the observed sequence — no RNG,
/// no clock — so two trackers fed the same scores agree bit-for-bit.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    /// The frozen reference window (first `window` scores observed
    /// since construction or the last [`DriftDetector::reset`]).
    reference: Vec<f32>,
    /// Upper bin edges over the reference (length `bins - 1`),
    /// computed once when the reference freezes.
    edges: Vec<f32>,
    /// Reference bin occupancy, counted once at freeze.
    ref_counts: Vec<usize>,
    /// The rolling current window (most recent `window` scores after
    /// the reference froze).
    current: VecDeque<f32>,
    /// Current-window bin occupancy, maintained incrementally.
    cur_counts: Vec<usize>,
}

impl DriftDetector {
    /// A tracker with no observations yet.
    pub fn new(config: DriftConfig) -> Result<Self, ServeError> {
        config.validate()?;
        Ok(DriftDetector {
            config,
            reference: Vec::with_capacity(config.window),
            edges: Vec::new(),
            ref_counts: vec![0; config.bins],
            current: VecDeque::with_capacity(config.window),
            cur_counts: vec![0; config.bins],
        })
    }

    /// The configuration this tracker runs under.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// The bin a score falls into: the first edge it does not exceed,
    /// else the last bin. Total order on f32 bit patterns is not
    /// needed — NaN scores land in the last bin deterministically.
    fn bin(&self, score: f32) -> usize {
        self.edges
            .iter()
            .position(|&e| score <= e)
            .unwrap_or(self.config.bins - 1)
    }

    /// Records one per-line verdict score.
    pub fn observe(&mut self, score: f32) {
        if self.reference.len() < self.config.window {
            self.reference.push(score);
            if self.reference.len() == self.config.window {
                self.freeze_reference();
            }
            return;
        }
        if self.current.len() == self.config.window {
            let old = self.current.pop_front().expect("window non-empty");
            let b = self.bin(old);
            self.cur_counts[b] -= 1;
        }
        let b = self.bin(score);
        self.cur_counts[b] += 1;
        self.current.push_back(score);
    }

    /// Records a batch of per-line verdict scores, in order —
    /// equivalent to observing each one (`tests/drift.rs` pins that).
    pub fn observe_batch(&mut self, scores: &[f32]) {
        for &s in scores {
            self.observe(s);
        }
    }

    /// Quantile edges + occupancy over the just-completed reference.
    fn freeze_reference(&mut self) {
        let mut sorted = self.reference.clone();
        sorted.sort_by(f32::total_cmp);
        let n = sorted.len();
        let bins = self.config.bins;
        self.edges = (1..bins)
            .map(|j| sorted[(j * n / bins).min(n - 1)])
            .collect();
        self.ref_counts = vec![0; bins];
        let reference = std::mem::take(&mut self.reference);
        for &s in &reference {
            let b = self.bin(s);
            self.ref_counts[b] += 1;
        }
        self.reference = reference;
    }

    /// Scores observed so far (reference + current).
    pub fn observations(&self) -> usize {
        self.reference.len() + self.current.len()
    }

    /// The population stability index between the frozen reference and
    /// the rolling current window; `None` until both windows are full.
    /// Identical bin occupancy gives exactly 0.0.
    pub fn statistic(&self) -> Option<f32> {
        if self.reference.len() < self.config.window || self.current.len() < self.config.window {
            return None;
        }
        let n = self.config.window as f64;
        let mut psi = 0.0f64;
        for (&r, &c) in self.ref_counts.iter().zip(&self.cur_counts) {
            if r == c {
                // Equal occupancy contributes exactly zero — this
                // early-out is what makes "identical distribution →
                // statistic == 0.0" bit-exact rather than a rounding
                // accident.
                continue;
            }
            let p = r as f64 / n;
            let q = c as f64 / n;
            psi += (q - p) * ((q + PSI_EPS) / (p + PSI_EPS)).ln();
        }
        Some(psi as f32)
    }

    /// Whether the statistic exceeds the configured threshold.
    pub fn fired(&self) -> bool {
        self.statistic().is_some_and(|s| s > self.config.threshold)
    }

    /// Forgets everything: the next `window` scores freeze a new
    /// reference. Called after a refit swap — the post-refit verdict
    /// distribution is the new baseline.
    pub fn reset(&mut self) {
        self.reference.clear();
        self.edges.clear();
        self.ref_counts = vec![0; self.config.bins];
        self.current.clear();
        self.cur_counts = vec![0; self.config.bins];
    }
}

/// How a front-end runs its lifecycle.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// The baseline training set refits start from.
    pub source: RefitSource,
    /// Trigger thresholds.
    pub drift: DriftConfig,
    /// `true` spawns a background worker that runs a refit whenever a
    /// trigger fires; `false` only marks the trigger pending — the
    /// caller drives refits explicitly (the deterministic harness
    /// mode, and the mode for operators who want refits on their own
    /// schedule via `refit()`).
    pub background: bool,
}

impl LifecycleConfig {
    /// A background lifecycle over `source` with default triggers.
    pub fn new(source: RefitSource) -> Self {
        LifecycleConfig {
            source,
            drift: DriftConfig::default(),
            background: true,
        }
    }

    /// Replaces the trigger thresholds.
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = drift;
        self
    }

    /// Manual-trigger mode: drift/append triggers mark a refit pending
    /// but only an explicit `refit()` call runs one.
    pub fn manual(mut self) -> Self {
        self.background = false;
        self
    }
}

/// Counters and trigger state of a running lifecycle, for tests,
/// benches, and monitoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleStats {
    /// Refits completed (epoch swaps installed).
    pub refits: usize,
    /// Lines recorded in the append log since spawn.
    pub appends_logged: usize,
    /// Lines appended since the last refit consumed the log prefix.
    pub appends_since_refit: usize,
    /// The current drift statistic (`None` until both windows fill).
    pub drift_statistic: Option<f32>,
    /// Whether a trigger has fired and a refit is pending.
    pub refit_pending: bool,
}

/// The shared lifecycle bookkeeping a front-end threads its paths
/// through: scoring observes verdicts into the drift tracker, appends
/// record into the log, and the refit procedure (on the front-end,
/// which owns the engine locks) takes its training set and completion
/// callbacks from here.
pub(crate) struct LifecycleState {
    source: RefitSource,
    background: bool,
    /// Every appended (line, label) since spawn, in arrival order. A
    /// refit consumes a prefix; later appends stay for the next one.
    log: Mutex<Vec<(String, bool)>>,
    drift: Mutex<DriftDetector>,
    /// Set by a trigger, cleared by the refit that answers it.
    pending: AtomicBool,
    /// Log length the last refit's training set covered.
    consumed: AtomicUsize,
    refits: AtomicUsize,
    /// Serializes refits (two concurrent refits would race their
    /// install order and double-bump epochs for one logical refit).
    pub(crate) refit_lock: Mutex<()>,
}

impl LifecycleState {
    pub(crate) fn new(config: LifecycleConfig) -> Result<Self, ServeError> {
        let drift = DriftDetector::new(config.drift)?;
        Ok(LifecycleState {
            source: config.source,
            background: config.background,
            log: Mutex::new(Vec::new()),
            drift: Mutex::new(drift),
            pending: AtomicBool::new(false),
            consumed: AtomicUsize::new(0),
            refits: AtomicUsize::new(0),
            refit_lock: Mutex::new(()),
        })
    }

    pub(crate) fn background(&self) -> bool {
        self.background
    }

    /// Records an absorbed append batch and arms the append-count
    /// trigger when the since-refit total crosses the threshold.
    pub(crate) fn record_appends(&self, lines: &[String], labels: &[bool]) {
        let since = {
            let mut log = self.log.lock().unwrap();
            log.extend(lines.iter().cloned().zip(labels.iter().copied()));
            log.len() - self.consumed.load(Ordering::Acquire)
        };
        let threshold = {
            let drift = self.drift.lock().unwrap();
            drift.config().append_threshold
        };
        if threshold > 0 && since >= threshold {
            self.pending.store(true, Ordering::Release);
        }
    }

    /// Feeds per-line verdict scores to the drift tracker and arms the
    /// drift trigger when the statistic crosses the threshold.
    pub(crate) fn observe_scores(&self, per_line: impl Iterator<Item = f32>) {
        let mut drift = self.drift.lock().unwrap();
        for s in per_line {
            drift.observe(s);
        }
        if drift.fired() {
            self.pending.store(true, Ordering::Release);
        }
    }

    /// Whether a trigger has fired since the last refit.
    pub(crate) fn refit_pending(&self) -> bool {
        self.pending.load(Ordering::Acquire)
    }

    /// The training set for the next refit: baseline ∪ the append-log
    /// prefix as of now, plus the prefix length (handed back to
    /// [`LifecycleState::finish_refit`] once the swap lands).
    pub(crate) fn take_training(&self) -> (Vec<String>, Vec<bool>, usize) {
        let log = self.log.lock().unwrap();
        let prefix = log.len();
        let mut lines = self.source.lines.clone();
        let mut labels = self.source.labels.clone();
        lines.extend(log.iter().map(|(l, _)| l.clone()));
        labels.extend(log.iter().map(|(_, b)| *b));
        (lines, labels, prefix)
    }

    /// Aborts a failed refit: the trigger is disarmed and the drift
    /// tracker restarts (so a broken fit cannot hot-loop a background
    /// worker), but the append log stays unconsumed for the next
    /// attempt.
    pub(crate) fn fail_refit(&self) {
        self.drift.lock().unwrap().reset();
        self.pending.store(false, Ordering::Release);
    }

    /// Completes a refit: the log prefix is consumed, the trigger is
    /// disarmed, and the drift tracker restarts against the post-swap
    /// verdict distribution.
    pub(crate) fn finish_refit(&self, consumed_prefix: usize) {
        self.consumed.store(consumed_prefix, Ordering::Release);
        self.drift.lock().unwrap().reset();
        self.pending.store(false, Ordering::Release);
        self.refits.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn stats(&self) -> LifecycleStats {
        let (appends_logged, appends_since_refit) = {
            let log = self.log.lock().unwrap();
            let consumed = self.consumed.load(Ordering::Acquire);
            (log.len(), log.len() - consumed)
        };
        LifecycleStats {
            refits: self.refits.load(Ordering::Acquire),
            appends_logged,
            appends_since_refit,
            drift_statistic: self.drift.lock().unwrap().statistic(),
            refit_pending: self.refit_pending(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: usize, bins: usize, threshold: f32) -> DriftConfig {
        DriftConfig {
            window,
            bins,
            threshold,
            append_threshold: 0,
        }
    }

    #[test]
    fn statistic_is_none_until_both_windows_fill() {
        let mut d = DriftDetector::new(config(8, 4, 0.25)).unwrap();
        for i in 0..15 {
            assert_eq!(d.statistic(), None, "after {i} observations");
            d.observe(i as f32 * 0.1);
        }
        d.observe(1.5);
        assert!(d.statistic().is_some());
    }

    #[test]
    fn identical_window_scores_exactly_zero() {
        let mut d = DriftDetector::new(config(8, 4, 0.25)).unwrap();
        let scores: Vec<f32> = (0..8).map(|i| (i as f32).sin()).collect();
        d.observe_batch(&scores);
        d.observe_batch(&scores);
        assert_eq!(d.statistic(), Some(0.0));
        assert!(!d.fired());
    }

    #[test]
    fn complete_separation_fires() {
        let mut d = DriftDetector::new(config(8, 4, 3.0)).unwrap();
        d.observe_batch(&[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]);
        d.observe_batch(&[10.0; 8]);
        assert!(d.statistic().unwrap() > 3.0, "{:?}", d.statistic());
        assert!(d.fired());
    }

    #[test]
    fn reset_restarts_the_reference() {
        let mut d = DriftDetector::new(config(4, 2, 0.25)).unwrap();
        d.observe_batch(&[0.0, 0.1, 0.2, 0.3]);
        d.observe_batch(&[5.0, 5.0, 5.0, 5.0]);
        assert!(d.fired());
        d.reset();
        assert_eq!(d.statistic(), None);
        assert_eq!(d.observations(), 0);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        assert!(DriftDetector::new(config(8, 1, 0.25)).is_err());
        assert!(DriftDetector::new(config(2, 4, 0.25)).is_err());
        assert!(DriftDetector::new(config(8, 4, 0.0)).is_err());
        assert!(RefitSource::new(vec!["a".into()], vec![]).is_err());
        assert!(RefitSource::new(vec![], vec![]).is_err());
    }
}
