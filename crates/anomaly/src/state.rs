//! Serializable fitted-detector state for serving snapshots.
//!
//! A long-lived scoring service wants to cold-start with its exemplar
//! indexes already built. [`DetectorState`] captures the fitted state
//! of the methods whose state *is* an index — retrieval and vanilla
//! kNN, the two neighbour-based detectors — as detector params plus an
//! [`IndexSnapshot`] (graph, candidate matrix, norms). Methods that
//! re-fit cheaply from data (PCA, iforest, OCSVM) or that own a tuned
//! encoder (classification, reconstruction) are deliberately out of
//! scope: the former refit in milliseconds, the latter are the
//! pipeline's to persist.

use crate::detector::Detector;
use crate::structural::{FittedStructural, StructuralDetector};
use crate::{RetrievalDetector, RetrievalMethod, VanillaKnn, VanillaKnnMethod};
use index::persist::{ByteReader, ByteWriter, PersistError};
use index::{
    IndexConfig, IndexSnapshot, Quantization, QuantizedMatrix, ShardBackend, ShardedParams,
};
use linalg::Matrix;
use serde::{Deserialize, Serialize};
use shell_parser::STRUCTURAL_DIM;

const TAG_RETRIEVAL: u8 = 0;
const TAG_VANILLA_KNN: u8 = 1;
const TAG_STRUCTURAL: u8 = 2;

/// Candidate-row count of a decoded index snapshot.
fn index_rows(index: &IndexSnapshot) -> usize {
    index.rows()
}

/// An empty index snapshot of the given backend shape and storage
/// format — the frame a shard that holds no rows (yet) contributes to
/// a sharded manifest. Carrying the format matters: an exemplar later
/// routed to the empty shard must quantize the way its siblings do.
fn empty_snapshot(backend: ShardBackend, dim: usize, quant: Quantization) -> IndexSnapshot {
    match backend {
        ShardBackend::Exact => IndexSnapshot::Exact {
            data: QuantizedMatrix::empty(quant, dim),
            norms: Vec::new(),
        },
        ShardBackend::Hnsw(params) => IndexSnapshot::Hnsw {
            data: QuantizedMatrix::empty(quant, dim),
            norms: Vec::new(),
            params,
            links: Vec::new(),
            entry: 0,
            top_level: 0,
            tombstone: Vec::new(),
            draws: 0,
        },
    }
}

/// Fits a fresh neighbour detector of the kind a captured state names
/// ([`DetectorState::name`], [`ShardedDetectorState::name`]) over
/// `rows` — how a serving layer rebuilds a partition it is reshaping
/// or starts a shard that held no rows. `labels` holds one entry per
/// row; retrieval indexes only the `true` ones, as at any fit.
///
/// # Panics
///
/// Panics on a name that is not a neighbour method: a new
/// shard-mergeable method must get its arm here rather than be
/// re-fitted as one of the others.
pub fn fit_neighbour_detector(
    name: &str,
    rows: &Matrix,
    labels: &[bool],
    k: usize,
    config: IndexConfig,
) -> Box<dyn Detector> {
    match name {
        "retrieval" => Box::new(RetrievalMethod::from_fitted(RetrievalDetector::fit_with(
            rows, labels, k, config, None,
        ))),
        "vanilla-knn" => Box::new(VanillaKnnMethod::from_fitted(VanillaKnn::fit_with(
            rows, labels, k, config, None,
        ))),
        other => panic!("{other:?} is not a neighbour method"),
    }
}

/// The serializable fitted state of one snapshot-capable detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DetectorState {
    /// [`RetrievalMethod`]: `k` plus the malicious-exemplar index.
    Retrieval {
        /// Neighbours averaged per score.
        k: usize,
        /// The built exemplar index.
        index: IndexSnapshot,
    },
    /// [`VanillaKnnMethod`]: `k`, per-id labels, and the full index.
    VanillaKnn {
        /// Neighbours voted over.
        k: usize,
        /// Per-id labels aligned with the index rows.
        labels: Vec<bool>,
        /// The built training-set index.
        index: IndexSnapshot,
    },
    /// [`StructuralDetector`]: benign feature moments plus malicious
    /// exemplar feature vectors — no index, just flat statistics.
    Structural {
        /// Benign per-feature means (length [`STRUCTURAL_DIM`]).
        mean: Vec<f64>,
        /// Benign Welford M2 accumulators (length [`STRUCTURAL_DIM`]).
        m2: Vec<f64>,
        /// Benign lines absorbed.
        benign_count: u64,
        /// Malicious exemplar rows, flattened ([`STRUCTURAL_DIM`] each).
        exemplars: Vec<f32>,
        /// Exemplars ever inserted (round-robin overwrite position).
        inserted: u64,
    },
}

impl DetectorState {
    /// Captures a fitted detector's state. Returns `None` when the
    /// detector is not snapshot-capable (see the module docs) or not
    /// fitted yet.
    pub fn capture(detector: &dyn Detector) -> Option<DetectorState> {
        if let Some(m) = detector.as_any().downcast_ref::<RetrievalMethod>() {
            let fitted = m.fitted()?;
            return Some(DetectorState::Retrieval {
                k: fitted.k(),
                index: IndexSnapshot::capture(fitted.index())?,
            });
        }
        if let Some(m) = detector.as_any().downcast_ref::<VanillaKnnMethod>() {
            let fitted = m.fitted()?;
            return Some(DetectorState::VanillaKnn {
                k: fitted.k(),
                labels: fitted.labels().to_vec(),
                index: IndexSnapshot::capture(fitted.index())?,
            });
        }
        if let Some(m) = detector.as_any().downcast_ref::<StructuralDetector>() {
            let fitted = m.fitted()?;
            return Some(DetectorState::Structural {
                mean: fitted.mean().to_vec(),
                m2: fitted.m2().to_vec(),
                benign_count: fitted.benign_count(),
                exemplars: fitted.exemplars().iter().flatten().copied().collect(),
                inserted: fitted.inserted(),
            });
        }
        None
    }

    /// Rebuilds a fitted, ready-to-score detector. HNSW-backed states
    /// adopt the saved graph without a construction pass.
    pub fn restore(self) -> Box<dyn Detector> {
        match self {
            DetectorState::Retrieval { k, index } => Box::new(RetrievalMethod::from_fitted(
                RetrievalDetector::from_index(index.restore(), k),
            )),
            DetectorState::VanillaKnn { k, labels, index } => Box::new(
                VanillaKnnMethod::from_fitted(VanillaKnn::from_parts(index.restore(), labels, k)),
            ),
            DetectorState::Structural {
                mean,
                m2,
                benign_count,
                exemplars,
                inserted,
            } => {
                let mean: [f64; STRUCTURAL_DIM] =
                    mean.try_into().expect("structural state: mean length");
                let m2: [f64; STRUCTURAL_DIM] = m2.try_into().expect("structural state: m2 length");
                let rows = exemplars
                    .chunks_exact(STRUCTURAL_DIM)
                    .map(|c| {
                        let mut row = [0.0f32; STRUCTURAL_DIM];
                        row.copy_from_slice(c);
                        row
                    })
                    .collect();
                Box::new(StructuralDetector::from_fitted(
                    FittedStructural::from_parts(mean, m2, benign_count, rows, inserted),
                ))
            }
        }
    }

    /// The method name the restored detector will report.
    pub fn name(&self) -> &'static str {
        match self {
            DetectorState::Retrieval { .. } => "retrieval",
            DetectorState::VanillaKnn { .. } => "vanilla-knn",
            DetectorState::Structural { .. } => "structural",
        }
    }

    /// Whether this state's index payload is quantized — encoding it
    /// emits V2-only index tags, so a composite frame embedding it
    /// must bump its own version (see
    /// [`IndexSnapshot::has_quantized_payload`]).
    pub fn has_quantized_payload(&self) -> bool {
        match self {
            DetectorState::Retrieval { index, .. } | DetectorState::VanillaKnn { index, .. } => {
                index.has_quantized_payload()
            }
            DetectorState::Structural { .. } => false,
        }
    }

    /// Appends the state to an open binary frame.
    pub fn write(&self, w: &mut ByteWriter) {
        match self {
            DetectorState::Retrieval { k, index } => {
                w.put_u8(TAG_RETRIEVAL);
                w.put_usize(*k);
                index.write(w);
            }
            DetectorState::VanillaKnn { k, labels, index } => {
                w.put_u8(TAG_VANILLA_KNN);
                w.put_usize(*k);
                w.put_bools(labels);
                index.write(w);
            }
            DetectorState::Structural {
                mean,
                m2,
                benign_count,
                exemplars,
                inserted,
            } => {
                w.put_u8(TAG_STRUCTURAL);
                w.put_usize(mean.len());
                // f64 moments as raw bits: restores bit-identically, so
                // a cold-started service scores exactly like the donor.
                for v in mean {
                    w.put_u64(v.to_bits());
                }
                for v in m2 {
                    w.put_u64(v.to_bits());
                }
                w.put_u64(*benign_count);
                w.put_f32s(exemplars);
                w.put_u64(*inserted);
            }
        }
    }

    /// Splits a sharded-fitted neighbour state into per-shard
    /// sub-states — the distribution step of `serve::ShardRouter`:
    /// each shard's worker pool restores its own sub-state (adopting
    /// saved HNSW graphs, zero construction passes) and serves its
    /// partition independently.
    ///
    /// Returns `Err(self)` unchanged (boxed — the state can hold whole
    /// index graphs) when the state's index is not sharded (fit with
    /// `IndexConfig::with_shards(n)` first).
    pub fn split_shards(self) -> Result<ShardedDetectorState, Box<DetectorState>> {
        match self {
            DetectorState::Retrieval {
                k,
                index:
                    IndexSnapshot::Sharded {
                        params,
                        quant,
                        dim,
                        shards,
                        globals,
                    },
            } => {
                let states = shards
                    .into_iter()
                    .map(|sub| {
                        (sub.rows() > 0).then_some(DetectorState::Retrieval { k, index: sub })
                    })
                    .collect();
                Ok(ShardedDetectorState {
                    name: "retrieval",
                    k,
                    params,
                    quant,
                    dim,
                    states,
                    globals,
                })
            }
            DetectorState::VanillaKnn {
                k,
                labels,
                index:
                    IndexSnapshot::Sharded {
                        params,
                        quant,
                        dim,
                        shards,
                        globals,
                    },
            } => {
                let states = shards
                    .into_iter()
                    .zip(&globals)
                    .map(|(sub, map)| {
                        (sub.rows() > 0).then(|| DetectorState::VanillaKnn {
                            k,
                            labels: map.iter().map(|&g| labels[g]).collect(),
                            index: sub,
                        })
                    })
                    .collect();
                Ok(ShardedDetectorState {
                    name: "vanilla-knn",
                    k,
                    params,
                    quant,
                    dim,
                    states,
                    globals,
                })
            }
            other => Err(Box::new(other)),
        }
    }

    /// Reads a state written by [`DetectorState::write`].
    pub fn read(r: &mut ByteReader<'_>) -> Result<DetectorState, PersistError> {
        match r.get_u8()? {
            TAG_RETRIEVAL => {
                let k = r.get_usize()?;
                if k == 0 {
                    return Err(PersistError::Corrupt("k must be positive"));
                }
                let index = IndexSnapshot::read(r)?;
                // Both fitted detectors require a non-empty index
                // (asserted by their constructors); reject it here so
                // a corrupt frame errors instead of panicking restore.
                if index_rows(&index) == 0 {
                    return Err(PersistError::Corrupt("empty exemplar index"));
                }
                Ok(DetectorState::Retrieval { k, index })
            }
            TAG_VANILLA_KNN => {
                let k = r.get_usize()?;
                if k == 0 {
                    return Err(PersistError::Corrupt("k must be positive"));
                }
                let labels = r.get_bools()?;
                let index = IndexSnapshot::read(r)?;
                if index_rows(&index) == 0 {
                    return Err(PersistError::Corrupt("empty training index"));
                }
                if index_rows(&index) != labels.len() {
                    return Err(PersistError::Corrupt("label count != row count"));
                }
                Ok(DetectorState::VanillaKnn { k, labels, index })
            }
            TAG_STRUCTURAL => {
                let dim = r.get_usize()?;
                if dim != STRUCTURAL_DIM {
                    return Err(PersistError::Corrupt("structural feature dim mismatch"));
                }
                let mut mean = Vec::with_capacity(dim);
                for _ in 0..dim {
                    mean.push(f64::from_bits(r.get_u64()?));
                }
                let mut m2 = Vec::with_capacity(dim);
                for _ in 0..dim {
                    m2.push(f64::from_bits(r.get_u64()?));
                }
                let benign_count = r.get_u64()?;
                let exemplars = r.get_f32s()?;
                if exemplars.len() % dim != 0 {
                    return Err(PersistError::Corrupt("ragged structural exemplars"));
                }
                let inserted = r.get_u64()?;
                if inserted < (exemplars.len() / dim) as u64 {
                    return Err(PersistError::Corrupt("inserted < resident exemplars"));
                }
                Ok(DetectorState::Structural {
                    mean,
                    m2,
                    benign_count,
                    exemplars,
                    inserted,
                })
            }
            tag => Err(PersistError::BadTag(tag)),
        }
    }
}

/// A neighbour detector's fitted state, split per shard — the unit a
/// shard router distributes across worker pools and reassembles for
/// snapshots ([`ShardedDetectorState::merge`] is the exact inverse of
/// [`DetectorState::split_shards`]).
#[derive(Debug, Clone)]
pub struct ShardedDetectorState {
    /// Method name the states restore to (`"retrieval"` /
    /// `"vanilla-knn"`).
    pub name: &'static str,
    /// Neighbour count of the method.
    pub k: usize,
    /// Partition shape (shard count, partitioner seed, backend).
    pub params: ShardedParams,
    /// Candidate storage format of the partition (needed to frame
    /// empty shards so later appends quantize consistently).
    pub quant: Quantization,
    /// Embedding dimensionality (needed to frame empty shards).
    pub dim: usize,
    /// One sub-state per shard; `None` for shards holding no rows.
    pub states: Vec<Option<DetectorState>>,
    /// Per-shard local→global id maps.
    pub globals: Vec<Vec<usize>>,
}

impl ShardedDetectorState {
    /// Reassembles the combined [`DetectorState`] (a sharded manifest
    /// plus N shard frames) from the per-shard states.
    ///
    /// # Panics
    ///
    /// Panics if a sub-state's method disagrees with `name`, or map
    /// and state shapes disagree — these are programming errors in the
    /// router, not decode-time corruption.
    pub fn merge(self) -> DetectorState {
        assert_eq!(self.states.len(), self.params.shards, "one state per shard");
        assert_eq!(self.globals.len(), self.params.shards, "one map per shard");
        let total: usize = self.globals.iter().map(Vec::len).sum();
        let mut labels_global = vec![false; total];
        let mut shards = Vec::with_capacity(self.states.len());
        for (state, map) in self.states.into_iter().zip(&self.globals) {
            match state {
                None => {
                    assert!(map.is_empty(), "empty shard with a non-empty id map");
                    shards.push(empty_snapshot(self.params.backend, self.dim, self.quant));
                }
                Some(DetectorState::Retrieval { k, index }) => {
                    assert_eq!(self.name, "retrieval", "sub-state method mismatch");
                    assert_eq!(k, self.k, "sub-state k mismatch");
                    assert_eq!(index.rows(), map.len(), "id map length != shard rows");
                    shards.push(index);
                }
                Some(DetectorState::VanillaKnn { k, labels, index }) => {
                    assert_eq!(self.name, "vanilla-knn", "sub-state method mismatch");
                    assert_eq!(k, self.k, "sub-state k mismatch");
                    assert_eq!(index.rows(), map.len(), "id map length != shard rows");
                    for (&g, &l) in map.iter().zip(&labels) {
                        labels_global[g] = l;
                    }
                    shards.push(index);
                }
                Some(other) => panic!("non-neighbour sub-state {:?} in shard merge", other.name()),
            }
        }
        let index = IndexSnapshot::Sharded {
            params: self.params,
            quant: self.quant,
            dim: self.dim,
            shards,
            globals: self.globals,
        };
        if self.name == "vanilla-knn" {
            DetectorState::VanillaKnn {
                k: self.k,
                labels: labels_global,
                index,
            }
        } else {
            DetectorState::Retrieval { k: self.k, index }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmbeddingView, PcaMethod};

    fn toy() -> (EmbeddingView, Vec<bool>) {
        let rows: Vec<Vec<f32>> = vec![
            vec![1.0, 0.05, 0.0],
            vec![0.9, -0.05, 0.1],
            vec![0.0, 1.0, 0.0],
            vec![0.1, 0.9, 0.0],
            vec![-0.05, 1.0, 0.1],
        ];
        let m = Matrix::from_fn(5, 3, |r, c| rows[r][c]);
        (
            EmbeddingView::from_matrix(m),
            vec![true, true, false, false, false],
        )
    }

    #[test]
    fn round_trip_preserves_scores_for_both_methods_and_backends() {
        let (view, labels) = toy();
        for config in [IndexConfig::Exact, IndexConfig::hnsw()] {
            let mut dets: Vec<Box<dyn Detector>> = vec![
                Box::new(RetrievalMethod::with_index(1, config)),
                Box::new(VanillaKnnMethod::with_index(3, config)),
            ];
            for det in &mut dets {
                det.fit(&view, &labels).unwrap();
                let want = det.score_batch(&view);
                let state = DetectorState::capture(det.as_ref()).expect("snapshot-capable");
                let mut w = ByteWriter::new();
                state.write(&mut w);
                let bytes = w.into_bytes();
                let mut r = ByteReader::new(&bytes);
                let restored = DetectorState::read(&mut r).unwrap().restore();
                assert_eq!(restored.name(), det.name());
                assert_eq!(restored.score_batch(&view), want, "{}", det.name());
            }
        }
    }

    #[test]
    fn unfitted_and_unsupported_detectors_are_not_capturable() {
        assert!(DetectorState::capture(&RetrievalMethod::new(1)).is_none());
        assert!(DetectorState::capture(&PcaMethod::new(0.95)).is_none());
    }

    #[test]
    fn sharded_states_round_trip_and_split_merge_is_lossless() {
        let (view, labels) = toy();
        for config in [
            IndexConfig::Exact.with_shards(3),
            IndexConfig::hnsw().with_shards(3),
        ] {
            let mut dets: Vec<Box<dyn Detector>> = vec![
                Box::new(RetrievalMethod::with_index(1, config)),
                Box::new(VanillaKnnMethod::with_index(3, config)),
            ];
            for det in &mut dets {
                det.fit(&view, &labels).unwrap();
                let want = det.score_batch(&view);
                let state = DetectorState::capture(det.as_ref()).expect("snapshot-capable");

                // Codec round trip of the sharded frame.
                let mut w = ByteWriter::new();
                state.write(&mut w);
                let bytes = w.into_bytes();
                let restored = DetectorState::read(&mut ByteReader::new(&bytes))
                    .unwrap()
                    .restore();
                assert_eq!(restored.score_batch(&view), want, "{}", det.name());

                // Split → merge is the identity on scores: the router's
                // distribution and snapshot-reassembly paths cannot
                // drift from the resident state.
                let split = DetectorState::read(&mut ByteReader::new(&bytes))
                    .unwrap()
                    .split_shards()
                    .expect("sharded state splits");
                assert_eq!(split.params.shards, 3);
                assert_eq!(
                    split.states.iter().flatten().count(),
                    split.globals.iter().filter(|m| !m.is_empty()).count()
                );
                let remerged = split.merge().restore();
                assert_eq!(remerged.score_batch(&view), want, "{}", det.name());
            }
        }
    }

    #[test]
    fn unsharded_states_refuse_to_split() {
        let (view, labels) = toy();
        let mut det = RetrievalMethod::new(1);
        det.fit(&view, &labels).unwrap();
        let state = DetectorState::capture(&det).unwrap();
        assert!(state.split_shards().is_err());
    }

    #[test]
    fn structural_state_round_trips_bit_identically() {
        let lines: Vec<String> = [
            "ls -la /var/log",
            "grep -r pattern src/",
            "cat /etc/hosts",
            "tar -czf backup.tar.gz /srv/app",
            "printf aGk= | base64 -d | bash",
            "eval $(echo d2hvYW1p | base64 -d)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let labels = vec![false, false, false, false, true, true];
        let view = EmbeddingView::lines_only(lines.clone());
        let mut det = StructuralDetector::new();
        det.fit(&view, &labels).unwrap();
        let want = det.score_batch(&view);

        let state = DetectorState::capture(&det).expect("snapshot-capable");
        assert_eq!(state.name(), "structural");
        assert!(!state.has_quantized_payload());
        let mut w = ByteWriter::new();
        state.write(&mut w);
        let bytes = w.into_bytes();
        let decoded = DetectorState::read(&mut ByteReader::new(&bytes)).unwrap();
        assert!(
            decoded.clone().split_shards().is_err(),
            "flat state cannot shard"
        );
        let restored = decoded.restore();
        assert_eq!(restored.name(), "structural");
        assert_eq!(restored.score_batch(&view), want);
    }

    #[test]
    fn structural_read_rejects_corrupt_frames() {
        let view = EmbeddingView::lines_only(vec!["ls".into(), "nc -e /bin/sh".into()]);
        let mut det = StructuralDetector::new();
        det.fit(&view, &[false, true]).unwrap();
        let state = DetectorState::capture(&det).unwrap();
        let mut w = ByteWriter::new();
        state.write(&mut w);
        let mut bytes = w.into_bytes();
        // Truncation mid-frame must error, not panic.
        bytes.truncate(bytes.len() / 2);
        assert!(DetectorState::read(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn appends_survive_a_round_trip() {
        let (view, labels) = toy();
        let mut det = RetrievalMethod::new(1);
        det.fit(&view, &labels).unwrap();
        let extra = EmbeddingView::from_matrix(Matrix::from_rows(&[&[0.7, 0.7, 0.0]]));
        assert_eq!(det.append(&extra, &[true]), Ok(true));
        assert_eq!(det.n_exemplars(), Some(3));
        let state = DetectorState::capture(&det).unwrap();
        let restored = state.restore();
        assert_eq!(restored.score_batch(&view), det.score_batch(&view));
    }
}
