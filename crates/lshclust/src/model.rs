//! The serving artifact: [`FittedModel`] — frozen centroids plus an LSH
//! index built **over the centroids**, ready to answer `predict` queries.
//!
//! Training (`Clusterer::fit`) uses the paper's index over the *items* to
//! accelerate the assignment loop; serving inverts the construction. The
//! trained centroids themselves are hashed into a frozen
//! [`CentroidIndex`], so an unseen item is assigned by MinHashing/SimHashing
//! it once, probing the centroid buckets for a shortlist of candidate
//! clusters, and searching only that shortlist — per-query cost independent
//! of `k`, exactly the property the paper establishes for the fit loop (and
//! the reusable-centroid-index view taken by the cluster-closures line of
//! work). An empty shortlist falls back to full search, so `predict` is
//! total. Every query — single, batched or served — goes through one path,
//! which validates it (modality, shape, finite coordinates) before any
//! hashing.
//!
//! The artifact round-trips through two **versioned envelopes**, sniffed
//! apart by their leading bytes at every load site:
//!
//! - **v1 JSON** ([`FittedModel::save`] / [`FittedModel::to_json`]) — the
//!   pinned default: human-readable, stores only the spec and the
//!   centroids, and rebuilds the index by re-hashing every centroid on
//!   load.
//! - **v2 flat binary** ([`FittedModel::save_v2`] / [`FittedModel::to_bytes`])
//!   — a little-endian sectioned layout that additionally persists the flat
//!   item-major band-key buffers, so load refills the index buckets by
//!   *copying* instead of re-hashing — the difference that matters at
//!   large `k`.
//!
//! Either way a reloaded model answers every query identically.
//!
//! ```
//! use lshclust::{ClusterSpec, Clusterer, DatasetBuilder, Lsh};
//!
//! let mut b = DatasetBuilder::anonymous(3);
//! for row in [["a", "b", "c"], ["a", "b", "d"], ["x", "y", "z"], ["x", "y", "w"]] {
//!     b.push_str_row(&row, None).unwrap();
//! }
//! let dataset = b.finish();
//! let spec = ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 8, rows: 2 }).seed(1);
//! let run = Clusterer::new(spec).fit(&dataset).unwrap();
//!
//! // The run owns a servable model: persist, reload, answer queries.
//! let json = run.model.to_json();
//! let model = lshclust::FittedModel::from_json(&json).unwrap();
//! let fresh = model.predict_str_row(&["a", "b", "q"]).unwrap();
//! assert_eq!(fresh, run.assignments[0]);
//! ```

use crate::envelope::{self, corrupt};
use crate::spec::{ClusterSpec, Lsh, StreamOptions};
use lshclust_categorical::dissimilarity::matching;
use lshclust_categorical::{AttrId, ClusterId, Dataset, Schema, ValueId, NOT_PRESENT};
use lshclust_core::centroid_index::{CentroidIndex, CentroidRows, IndexScratch, ModeQuery, Salts};
use lshclust_core::parallel::chunked_map;
use lshclust_core::streaming::StreamingMhKModes;
use lshclust_kmodes::assign::{best_cluster_among, best_cluster_full};
use lshclust_kmodes::kmeans::{sq_euclidean, NumericDataset};
use lshclust_kmodes::kprototypes::{MixedDataset, Prototypes};
use lshclust_kmodes::modes::Modes;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::cell::RefCell;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Envelope marker of the JSON model artifact.
pub const MODEL_FORMAT: &str = "lshclust-model";
/// Version of the JSON envelope ([`FittedModel::save`] /
/// [`FittedModel::to_json`] — the pinned default format).
pub const MODEL_VERSION: u64 = 1;
/// Version of the flat binary envelope ([`FittedModel::save_v2`] /
/// [`FittedModel::to_bytes`]).
pub const MODEL_VERSION_V2: u64 = 2;

// Serving indexes decorrelate their hash families from the fit-time item
// index, which already decorrelates from init sampling ("modelm" /
// "models").
const INDEX_SALTS: Salts = Salts {
    minhash: 0x6d6f_6465_6c6d,
    simhash: 0x6d6f_6465_6c73,
};

/// Why a serving operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// Reading or writing the artifact file failed.
    Io(String),
    /// The artifact is not parseable JSON (or violates the payload schema).
    Json(String),
    /// The artifact parsed but its envelope is not one this build accepts
    /// (wrong `format` marker or unsupported `version`).
    Envelope(String),
    /// A v2 binary artifact is structurally damaged: truncated, bit-flipped,
    /// or internally inconsistent (a section length disagreeing with its own
    /// shape header, a band-key buffer disagreeing with the spec, …).
    Corrupt(String),
    /// The query modality does not match the model (e.g. numeric points
    /// against a categorical model).
    WrongModality {
        /// The model's modality.
        expected: &'static str,
        /// The query's modality.
        got: &'static str,
    },
    /// A query row/point has the wrong arity or dimensionality.
    ShapeMismatch {
        /// What was being validated ("attributes", "dimensions").
        what: &'static str,
        /// The model's shape.
        expected: usize,
        /// The query's shape.
        got: usize,
    },
    /// The input dataset was interned under dictionaries that disagree
    /// with the model's training schema, so its `ValueId`s do not align.
    IncompatibleEncoding {
        /// Name of the first attribute whose dictionaries disagree.
        attr: String,
    },
    /// A streaming hand-off was attempted before any cluster existed.
    EmptyModel,
    /// A query point has a NaN or infinite coordinate, which has no nearest
    /// centroid.
    NonFinite {
        /// Index of the first non-finite coordinate.
        dimension: usize,
    },
    /// A loaded artifact stores a NaN or infinite centroid mean, which has
    /// no distance to any query.
    NonFiniteCentroid {
        /// The cluster whose mean it is.
        cluster: usize,
        /// The coordinate within that mean.
        dimension: usize,
    },
    /// A loaded mixed artifact stores a NaN or infinite mixing weight γ.
    NonFiniteGamma,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "model artifact I/O failed: {e}"),
            ModelError::Json(e) => write!(f, "model artifact is not valid JSON: {e}"),
            ModelError::Envelope(e) => write!(f, "model envelope rejected: {e}"),
            ModelError::Corrupt(e) => write!(f, "model artifact is corrupt: {e}"),
            ModelError::WrongModality { expected, got } => {
                write!(f, "{expected} model cannot serve {got} queries")
            }
            ModelError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(f, "query has {got} {what}, model expects {expected}"),
            ModelError::IncompatibleEncoding { attr } => write!(
                f,
                "input encoding disagrees with the training schema on attribute `{attr}`; \
                 re-encode rows with FittedModel::encode_row"
            ),
            ModelError::EmptyModel => write!(f, "cannot build a model with zero clusters"),
            ModelError::NonFinite { dimension } => {
                write!(f, "query coordinate {dimension} is not a finite number")
            }
            ModelError::NonFiniteCentroid { cluster, dimension } => write!(
                f,
                "centroid {cluster} has a non-finite mean at coordinate {dimension}"
            ),
            ModelError::NonFiniteGamma => write!(f, "the mixing weight γ is not a finite number"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A trained, persistable, servable clustering model: the originating
/// [`ClusterSpec`], the frozen centroids, and an LSH index over those
/// centroids for shortlisted assignment of unseen items.
///
/// Obtained from [`crate::ClusterRun::model`] after a fit, from
/// [`FittedModel::from_streaming`] as a streaming hand-off, or from
/// [`FittedModel::load`] / [`FittedModel::from_json`].
#[derive(Clone)]
pub struct FittedModel {
    spec: ClusterSpec,
    /// The mode part and its training schema (categorical and mixed
    /// models). The schema is shared with the training dataset, never
    /// copied from it.
    modes: Option<(Arc<Schema>, Modes)>,
    /// The mean part (numeric and mixed models).
    means: Option<Means>,
    /// The resolved mixing weight γ (mixed models).
    gamma: Option<f64>,
    /// The index over the centroids; `None` under [`Lsh::None`], where
    /// every predict is a full search.
    index: Option<CentroidIndex>,
}

/// `k × dim` centroid means, row-major.
#[derive(Clone)]
struct Means {
    dim: usize,
    values: Vec<f64>,
}

impl Means {
    fn k(&self) -> usize {
        self.values.len() / self.dim
    }

    #[inline]
    fn row(&self, c: usize) -> &[f64] {
        &self.values[c * self.dim..(c + 1) * self.dim]
    }
}

/// Modality name of a model or query with these parts.
fn modality_of(modes: bool, means: bool) -> &'static str {
    match (modes, means) {
        (true, false) => "categorical",
        (false, true) => "numeric",
        _ => "mixed",
    }
}

/// Argmin over candidate clusters, ties to the lowest cluster id — the
/// exact tie-break rule of every fit path; `predict == assignments` on
/// converged runs depends on all modalities sharing it.
fn argmin_among(
    candidates: &[ClusterId],
    mut distance: impl FnMut(usize) -> f64,
) -> Option<ClusterId> {
    let mut best: Option<(ClusterId, f64)> = None;
    for &c in candidates {
        let d = distance(c.idx());
        let replace = match best {
            None => true,
            Some((bc, bd)) => d < bd || (d == bd && c < bc),
        };
        if replace {
            best = Some((c, d));
        }
    }
    best.map(|(c, _)| c)
}

/// Full-search argmin over `0..k` (id order, only strictly better replaces —
/// the same lowest-id tie-break as [`argmin_among`]).
fn argmin_full(k: usize, mut distance: impl FnMut(usize) -> f64) -> ClusterId {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for c in 0..k {
        let d = distance(c);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    ClusterId(best as u32)
}

impl FittedModel {
    // ---- construction (fit side) ------------------------------------------

    pub(crate) fn categorical(spec: ClusterSpec, schema: Arc<Schema>, modes: Modes) -> Self {
        Self::assemble(spec, Some((schema, modes)), None, None)
    }

    pub(crate) fn numeric(spec: ClusterSpec, dim: usize, centroids: Vec<f64>) -> Self {
        let means = Means {
            dim,
            values: centroids,
        };
        Self::assemble(spec, None, Some(means), None)
    }

    pub(crate) fn mixed(
        spec: ClusterSpec,
        schema: Arc<Schema>,
        prototypes: &Prototypes,
        gamma: f64,
    ) -> Self {
        let means = Means {
            dim: prototypes.dim(),
            values: prototypes.means.clone(),
        };
        let modes = Some((schema, prototypes.modes.clone()));
        Self::assemble(spec, modes, Some(means), Some(gamma))
    }

    /// A model over these centroid parts, its index hashed from them.
    fn assemble(
        spec: ClusterSpec,
        modes: Option<(Arc<Schema>, Modes)>,
        means: Option<Means>,
        gamma: Option<f64>,
    ) -> Self {
        let mut model = Self {
            spec,
            modes,
            means,
            gamma,
            index: None,
        };
        let scheme = model
            .spec
            .lsh
            .index_scheme(model.modes.is_some(), model.means.is_some());
        if !scheme.is_none() {
            let index =
                CentroidIndex::build(scheme, model.spec.seed, INDEX_SALTS, model.centroid_rows());
            model.index = Some(index);
        }
        model
    }

    /// The centroids as flat buffers, as the index hashes them (and as
    /// `Sim::hierarchy` starts its leaves from).
    pub(crate) fn centroid_rows(&self) -> CentroidRows<'_> {
        CentroidRows {
            k: self.k(),
            modes: self
                .modes
                .as_ref()
                .map(|(schema, modes)| (&**schema, modes.values())),
            means: self.means.as_ref().map(|m| (m.dim, &m.values[..])),
        }
    }

    /// Streaming hand-off: snapshots the clusters a [`StreamingMhKModes`]
    /// has discovered so far into a frozen, servable categorical model. The
    /// stream keeps running independently; call again for a fresher model.
    pub fn from_streaming(stream: &StreamingMhKModes) -> Result<Self, ModelError> {
        if stream.n_clusters() == 0 {
            return Err(ModelError::EmptyModel);
        }
        let config = stream.config();
        let spec = ClusterSpec::new(stream.n_clusters())
            .lsh(Lsh::MinHash {
                bands: config.banding.bands(),
                rows: config.banding.rows(),
            })
            .seed(config.seed)
            .stream(StreamOptions {
                distance_threshold: Some(config.distance_threshold),
                max_clusters: config.max_clusters,
            });
        // The stream keeps interning, so the model takes a snapshot.
        Ok(Self::categorical(
            spec,
            Arc::new(stream.schema().clone()),
            stream.snapshot_modes(),
        ))
    }

    // ---- inspection -------------------------------------------------------

    /// The spec the model was trained under.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of clusters served.
    pub fn k(&self) -> usize {
        match (&self.modes, &self.means) {
            (Some((_, modes)), _) => modes.k(),
            (None, Some(means)) => means.k(),
            (None, None) => 0,
        }
    }

    /// The model's input modality: `"categorical"`, `"numeric"` or
    /// `"mixed"`.
    pub fn modality(&self) -> &'static str {
        modality_of(self.modes.is_some(), self.means.is_some())
    }

    /// The training schema (categorical and mixed models).
    pub fn schema(&self) -> Option<&Schema> {
        self.shared_schema().map(|schema| &**schema)
    }

    /// The training schema as the shared allocation (categorical and mixed
    /// models): a batch [`Dataset`] built over it passes the encoding check
    /// of [`Self::predict`] without comparing a single value.
    pub fn shared_schema(&self) -> Option<&Arc<Schema>> {
        self.modes.as_ref().map(|(schema, _)| schema)
    }

    /// Numeric dimensionality (numeric and mixed models).
    pub fn dim(&self) -> Option<usize> {
        self.means.as_ref().map(|m| m.dim)
    }

    /// Whether a centroid LSH index is serving shortlists (false ⇒ every
    /// `predict` is a full search).
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// The resolved mixing weight γ (mixed models).
    pub fn gamma(&self) -> Option<f64> {
        self.gamma
    }

    /// Overrides the serving thread count ([`Self::predict`] fans batches
    /// over it) without retraining — serving hardware rarely matches the
    /// training box. `0` clamps to `1`, matching the spec-boundary rule.
    /// Persisted with the model on a subsequent [`Self::save`].
    pub fn set_threads(&mut self, threads: usize) {
        self.spec.threads = threads.max(1);
    }

    // ---- centroid accessors (crate) ---------------------------------------

    pub(crate) fn warm_modes(&self) -> Option<&Modes> {
        match (&self.modes, &self.means) {
            (Some((_, modes)), None) => Some(modes),
            _ => None,
        }
    }

    pub(crate) fn warm_means(&self) -> Option<(usize, &[f64])> {
        match (&self.modes, &self.means) {
            (None, Some(means)) => Some((means.dim, &means.values)),
            _ => None,
        }
    }

    pub(crate) fn warm_prototypes(&self) -> Option<(Prototypes, f64)> {
        match (&self.modes, &self.means, self.gamma) {
            (Some((_, modes)), Some(means), Some(gamma)) => Some((
                Prototypes::from_parts(modes.clone(), means.values.clone(), means.dim),
                gamma,
            )),
            _ => None,
        }
    }

    // ---- predict ----------------------------------------------------------

    /// Batched assignment of any supported input — a categorical
    /// [`Dataset`], a [`NumericDataset`], or a [`MixedDataset`] — fanned
    /// over the spec's `threads` (1 ⇒ inline, no spawning). A NaN or
    /// infinite coordinate anywhere in the batch is
    /// [`ModelError::NonFinite`].
    ///
    /// ```
    /// use lshclust::{ClusterSpec, Clusterer, Lsh, NumericDataset};
    ///
    /// let train = NumericDataset::new(1, vec![0.0, 0.2, 0.4, 9.0, 9.2, 9.4]);
    /// let spec = ClusterSpec::new(2).lsh(Lsh::SimHash { bands: 8, rows: 2 });
    /// let run = Clusterer::new(spec).fit(&train).unwrap();
    ///
    /// // A fresh batch is assigned by probing the centroid index; the
    /// // result lines up with the training partition.
    /// let batch = NumericDataset::new(1, vec![0.1, 9.1]);
    /// let clusters = run.model.predict(&batch).unwrap();
    /// assert_eq!(clusters[0], run.assignments[0]);
    /// assert_eq!(clusters[1], run.assignments[3]);
    /// ```
    pub fn predict<I: PredictInput>(&self, input: I) -> Result<Vec<ClusterId>, ModelError> {
        input.predict_with(self)
    }

    /// Assigns one encoded categorical row. Values must be encoded under
    /// the model's schema (see [`Self::encode_row`] for raw strings).
    pub fn predict_one(&self, row: &[ValueId]) -> Result<ClusterId, ModelError> {
        self.assign_one(Some(row), None)
    }

    /// Assigns one numeric point ([`ModelError::NonFinite`] for a NaN or
    /// infinite coordinate).
    pub fn predict_point(&self, point: &[f64]) -> Result<ClusterId, ModelError> {
        self.assign_one(None, Some(point))
    }

    /// Assigns one mixed item (encoded categorical part + numeric part;
    /// [`ModelError::NonFinite`] for a NaN or infinite coordinate).
    pub fn predict_mixed_one(
        &self,
        row: &[ValueId],
        point: &[f64],
    ) -> Result<ClusterId, ModelError> {
        self.assign_one(Some(row), Some(point))
    }

    /// Encodes a raw string row under the model's training schema. Values
    /// never seen during training encode as [`NOT_PRESENT`], which matches
    /// no mode value (one mismatch per unseen cell).
    pub fn encode_row(&self, row: &[&str]) -> Result<Vec<ValueId>, ModelError> {
        let schema = self.schema().ok_or(ModelError::WrongModality {
            expected: self.modality(),
            got: "categorical",
        })?;
        check_shape("attributes", schema.n_attrs(), row.len())?;
        Ok(row
            .iter()
            .enumerate()
            .map(|(a, s)| {
                schema
                    .dictionary(AttrId(a as u32))
                    .get(s)
                    .unwrap_or(NOT_PRESENT)
            })
            .collect())
    }

    /// Assigns one raw string row (categorical models): encodes under the
    /// training schema, then [`Self::predict_one`].
    pub fn predict_str_row(&self, row: &[&str]) -> Result<ClusterId, ModelError> {
        let encoded = self.encode_row(row)?;
        self.predict_one(&encoded)
    }

    // ---- the query path (crate) -------------------------------------------
    //
    // Every predict — the public single-item calls, batches over datasets,
    // and the `serve::ModelServer` workers, which reuse one scratch across a
    // whole micro-batch — goes through `assign`.

    /// One query scratch for this model (empty without an index).
    pub(crate) fn scratch(&self) -> IndexScratch {
        self.index
            .as_ref()
            .map_or_else(IndexScratch::default, CentroidIndex::scratch)
    }

    /// [`Self::assign`] for the single-item predicts, on this thread's
    /// reused scratch: it is replaced only by a model it does not fit (more
    /// clusters, or another hash family), so a stream of single calls
    /// allocates none.
    fn assign_one(
        &self,
        row: Option<&[ValueId]>,
        point: Option<&[f64]>,
    ) -> Result<ClusterId, ModelError> {
        thread_local! {
            static SCRATCH: RefCell<IndexScratch> = RefCell::default();
        }
        let Some(index) = &self.index else {
            return self.assign(row, point, &mut IndexScratch::default());
        };
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            if !index.fits(scratch) {
                *scratch = index.scratch();
            }
            self.assign(row, point, scratch)
        })
    }

    /// Assigns one query — an encoded row, a point, or both — against
    /// caller-held scratch: validates it, shortlists it through the index,
    /// scores the shortlist, and searches every cluster when the shortlist
    /// is empty or there is no index.
    pub(crate) fn assign(
        &self,
        row: Option<&[ValueId]>,
        point: Option<&[f64]>,
        scratch: &mut IndexScratch,
    ) -> Result<ClusterId, ModelError> {
        self.check_query(row.map(<[ValueId]>::len), None, point.map(<[f64]>::len))?;
        if let Some(dimension) = point.and_then(|p| p.iter().position(|x| !x.is_finite())) {
            return Err(ModelError::NonFinite { dimension });
        }
        let candidates: &[ClusterId] = match &self.index {
            Some(index) => {
                let modes = row.zip(self.schema()).map(|(r, s)| ModeQuery::Row(s, r));
                index.shortlist(modes, point, scratch)
            }
            None => &[],
        };
        Ok(self
            .best_among(row, point, candidates)
            .unwrap_or_else(|| self.best_full(row, point)))
    }

    /// Rejects a query whose modality or shape disagrees with the model, in
    /// that order; `encoding` is a batch's categorical schema, checked
    /// against the training schema between the two shape checks.
    fn check_query(
        &self,
        attrs: Option<usize>,
        encoding: Option<&Arc<Schema>>,
        dims: Option<usize>,
    ) -> Result<(), ModelError> {
        if attrs.is_some() != self.modes.is_some() || dims.is_some() != self.means.is_some() {
            return Err(ModelError::WrongModality {
                expected: self.modality(),
                got: modality_of(attrs.is_some(), dims.is_some()),
            });
        }
        if let (Some(got), Some(schema)) = (attrs, self.shared_schema()) {
            check_shape("attributes", schema.n_attrs(), got)?;
            if let Some(input) = encoding {
                check_encoding(schema, input)?;
            }
        }
        if let (Some(got), Some(dim)) = (dims, self.dim()) {
            check_shape("dimensions", dim, got)?;
        }
        Ok(())
    }

    /// Assigns `n` items of a validated batch, fanned over the spec's
    /// threads with one scratch per thread.
    fn assign_batch<'d>(
        &self,
        n: usize,
        item: impl Fn(usize) -> (Option<&'d [ValueId]>, Option<&'d [f64]>) + Sync,
    ) -> Result<Vec<ClusterId>, ModelError> {
        chunked_map(
            n,
            self.spec.threads,
            || self.scratch(),
            |i, scratch| {
                let (row, point) = item(i as usize);
                Some(self.assign(row, point, scratch))
            },
        )
        .into_iter()
        .map(|slot| slot.expect("chunked_map fills every slot"))
        .collect()
    }

    /// The best candidate (`None` for an empty shortlist). Mode-only models
    /// use the K-Modes kernel's bounded search; every path ties to the
    /// lowest cluster id.
    fn best_among(
        &self,
        row: Option<&[ValueId]>,
        point: Option<&[f64]>,
        candidates: &[ClusterId],
    ) -> Option<ClusterId> {
        match (row, &self.modes, point) {
            (Some(row), Some((_, modes)), None) => {
                best_cluster_among(row, modes, candidates).map(|(c, _)| c)
            }
            _ => argmin_among(candidates, |c| self.distance(row, point, c)),
        }
    }

    /// Exhaustive search over all `k` clusters.
    fn best_full(&self, row: Option<&[ValueId]>, point: Option<&[f64]>) -> ClusterId {
        match (row, &self.modes, point) {
            (Some(row), Some((_, modes)), None) => best_cluster_full(row, modes).0,
            _ => argmin_full(self.k(), |c| self.distance(row, point, c)),
        }
    }

    /// The fit kernels' distance to centroid `c`: matching dissimilarity on
    /// the mode part plus γ × squared Euclidean on the mean part (γ = 1
    /// when there is no mode part).
    #[inline]
    fn distance(&self, row: Option<&[ValueId]>, point: Option<&[f64]>, c: usize) -> f64 {
        let cat = match (row, &self.modes) {
            (Some(row), Some((_, modes))) => f64::from(matching(row, modes.mode(c))),
            _ => 0.0,
        };
        let num = match (point, &self.means) {
            (Some(point), Some(means)) => sq_euclidean(point, means.row(c)),
            _ => 0.0,
        };
        cat + self.gamma.unwrap_or(1.0) * num
    }

    // ---- persistence ------------------------------------------------------

    /// Serializes the model as its versioned JSON envelope (pretty-printed;
    /// stable byte-for-byte across save → load → save).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("model envelope serializes")
    }

    /// Parses a model from its JSON envelope, rebuilding the centroid index
    /// deterministically (a reloaded model answers every query identically).
    pub fn from_json(text: &str) -> Result<Self, ModelError> {
        let value = serde_json::parse(text).map_err(|e| ModelError::Json(e.to_string()))?;
        let format = value.get("format").and_then(Value::as_str).unwrap_or("?");
        if format != MODEL_FORMAT {
            return Err(ModelError::Envelope(format!(
                "format is `{format}`, expected `{MODEL_FORMAT}`"
            )));
        }
        let version = value.get("version").and_then(Value::as_u64).unwrap_or(0);
        if version != MODEL_VERSION {
            return Err(ModelError::Envelope(format!(
                "version {version} is not supported (this build reads version {MODEL_VERSION})"
            )));
        }
        let (spec, modes, means, gamma) =
            v1_parts(&value).map_err(|e| ModelError::Json(e.to_string()))?;
        check_finite(means.as_ref(), gamma)?;
        Ok(FittedModel::assemble(spec, modes, means, gamma))
    }

    /// Writes the **v1 JSON** envelope to `path` — the pinned default
    /// format: human-readable, diff-friendly, and accepted by every build
    /// since version 1. Reach for [`Self::save_v2`] when load latency
    /// matters more than readability.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), ModelError> {
        std::fs::write(path, self.to_json()).map_err(|e| ModelError::Io(e.to_string()))
    }

    /// Writes the **v2 flat binary** envelope to `path` (see
    /// [`Self::to_bytes`]). [`Self::load`] sniffs the format, so v1 and v2
    /// artifacts are interchangeable at every load site.
    pub fn save_v2<P: AsRef<Path>>(&self, path: P) -> Result<(), ModelError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| ModelError::Io(e.to_string()))
    }

    /// Reads a model back from `path`, accepting both envelope formats
    /// (sniffed via [`Self::from_bytes`]).
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, ModelError> {
        let bytes = std::fs::read(path).map_err(|e| ModelError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Serializes the model as the **v2 flat binary envelope**: a
    /// little-endian sectioned layout carrying the spec, the centroid
    /// buffers, and — unlike v1 — the centroid index's flat item-major
    /// band-key buffers. [`Self::from_bytes`] rebuilds the index by
    /// *copying* those buffers into buckets instead of re-hashing every
    /// centroid, which is what makes v2 loads fast at large `k`; the
    /// query-side hash families regenerate deterministically from the seed,
    /// so a v2-loaded model answers every query byte-identically to the
    /// model that was saved (and to a v1 round-trip of the same model).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = envelope::Writer::new();
        w.push(
            envelope::SEC_SPEC,
            serde_json::to_string(&self.spec)
                .expect("spec serializes")
                .into_bytes(),
        );
        let modality: u8 = match self.modality() {
            "categorical" => 0,
            "numeric" => 1,
            _ => 2,
        };
        w.push(envelope::SEC_MODALITY, vec![modality]);
        let k = self.k();
        if let Some((schema, modes)) = &self.modes {
            w.push(
                envelope::SEC_SCHEMA,
                serde_json::to_string(&**schema)
                    .expect("schema serializes")
                    .into_bytes(),
            );
            let mut cells = Vec::with_capacity(16 + modes.values().len() * 4);
            envelope::put_u64(&mut cells, k as u64);
            envelope::put_u64(&mut cells, modes.n_attrs() as u64);
            for v in modes.values() {
                envelope::put_u32(&mut cells, v.0);
            }
            w.push(envelope::SEC_MODES, cells);
            if let Some(keys) = self.index.as_ref().and_then(CentroidIndex::minhash_keys) {
                w.push(envelope::SEC_CAT_KEYS, keys_section(k, keys));
            }
        }
        if let Some(means) = &self.means {
            w.push(
                envelope::SEC_MEANS,
                f64_section(k, means.dim, &means.values),
            );
            if let Some((keys, mean)) = self.index.as_ref().and_then(CentroidIndex::simhash_keys) {
                w.push(envelope::SEC_NUM_KEYS, keys_section(k, keys));
                w.push(envelope::SEC_NUM_MEAN, f64_section(1, mean.len(), mean));
            }
        }
        if let Some(gamma) = self.gamma {
            let mut bytes = Vec::with_capacity(8);
            envelope::put_f64(&mut bytes, gamma);
            w.push(envelope::SEC_GAMMA, bytes);
        }
        w.finish()
    }

    /// Parses a model from either envelope format, sniffing the leading
    /// bytes: the v2 binary magic routes to the sectioned reader, anything
    /// else is treated as v1 JSON text. Hostile input — truncated,
    /// bit-flipped, or version-skewed — yields a typed [`ModelError`]
    /// ([`ModelError::Corrupt`] / [`ModelError::Envelope`] /
    /// [`ModelError::Json`]); it never panics, and every allocation is
    /// bounded by the buffer size (length fields are validated first).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelError> {
        if bytes.starts_with(&envelope::MAGIC) {
            return decode_v2(bytes);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| {
            ModelError::Json("artifact is neither a v2 binary envelope nor UTF-8 JSON".to_owned())
        })?;
        Self::from_json(text)
    }

    /// The envelope version a byte buffer claims to carry, without decoding
    /// the payload: `Some(2)` for the v2 binary magic, `Some(version)` for
    /// parseable v1-style JSON with the right `format` marker, `None` for
    /// anything else. `cluster inspect` uses this to describe artifacts it
    /// may not even be able to load.
    pub fn sniff_version(bytes: &[u8]) -> Option<u64> {
        if bytes.starts_with(&envelope::MAGIC) {
            let raw = bytes.get(8..12)?;
            return Some(u64::from(u32::from_le_bytes(
                raw.try_into().expect("4 bytes"),
            )));
        }
        let text = std::str::from_utf8(bytes).ok()?;
        let value = serde_json::parse(text).ok()?;
        if value.get("format").and_then(Value::as_str) != Some(MODEL_FORMAT) {
            return None;
        }
        value.get("version").and_then(Value::as_u64)
    }
}

// --- v2 binary envelope: encode --------------------------------------------

/// `u64 k, u64 bands`, then the item-major `k × bands` key buffer.
fn keys_section(k: usize, keys: &[u64]) -> Vec<u8> {
    let bands = keys.len() / k.max(1);
    let mut out = Vec::with_capacity(16 + keys.len() * 8);
    envelope::put_u64(&mut out, k as u64);
    envelope::put_u64(&mut out, bands as u64);
    for &key in keys {
        envelope::put_u64(&mut out, key);
    }
    out
}

/// `u64 rows, u64 cols`, then the row-major `rows × cols` floats.
fn f64_section(rows: usize, cols: usize, values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + values.len() * 8);
    envelope::put_u64(&mut out, rows as u64);
    envelope::put_u64(&mut out, cols as u64);
    for &v in values {
        envelope::put_f64(&mut out, v);
    }
    out
}

// --- v2 binary envelope: decode --------------------------------------------

fn decode_v2(bytes: &[u8]) -> Result<FittedModel, ModelError> {
    let sections = envelope::Sections::parse(bytes)?;
    let spec_text = std::str::from_utf8(sections.require(envelope::SEC_SPEC)?)
        .map_err(|_| corrupt("spec section is not UTF-8"))?;
    let spec: ClusterSpec =
        serde_json::from_str(spec_text).map_err(|e| ModelError::Json(e.to_string()))?;
    let (has_modes, has_means) = match sections.require(envelope::SEC_MODALITY)? {
        [0] => (true, false),
        [1] => (false, true),
        [2] => (true, true),
        other => {
            return Err(corrupt(format!(
                "modality section is not one known byte ({} bytes)",
                other.len()
            )))
        }
    };
    let modes = if has_modes {
        Some(decode_modes(&sections, &spec)?)
    } else {
        None
    };
    let means = if has_means {
        Some(decode_means(&sections, &spec)?)
    } else {
        None
    };
    check_banding(&spec.lsh, has_modes, has_means).map_err(|e| corrupt(e.0))?;
    let scheme = spec.lsh.index_scheme(has_modes, has_means);
    let k = spec.k;
    let minhash_keys = match scheme.minhash {
        Some(banding) => Some(decode_band_keys(
            sections.require(envelope::SEC_CAT_KEYS)?,
            k,
            banding.bands(),
            "cat-band-keys",
        )?),
        None => None,
    };
    let simhash_keys = match (scheme.simhash, &means) {
        (Some((bands, _)), Some(means)) => {
            let keys = decode_band_keys(
                sections.require(envelope::SEC_NUM_KEYS)?,
                k,
                bands,
                "num-band-keys",
            )?;
            let (one, mdim, mean_cells) = envelope::matrix_frame(
                sections.require(envelope::SEC_NUM_MEAN)?,
                8,
                "num-index-mean",
            )?;
            if one != 1 || mdim != means.dim {
                return Err(corrupt(format!(
                    "num-index-mean section is {one}×{mdim}, model expects 1×{}",
                    means.dim
                )));
            }
            let mean = f64_cells(mean_cells);
            if !mean.iter().all(|v| v.is_finite()) {
                return Err(corrupt("num-index-mean section holds a non-finite value"));
            }
            Some((keys, mean))
        }
        _ => None,
    };
    let gamma = if has_modes && has_means {
        let gamma_bytes = sections.require(envelope::SEC_GAMMA)?;
        let gamma = <[u8; 8]>::try_from(gamma_bytes)
            .map(f64::from_le_bytes)
            .map_err(|_| corrupt("gamma section is not exactly 8 bytes"))?;
        Some(gamma)
    } else {
        None
    };
    check_finite(means.as_ref(), gamma)?;
    let index = (!scheme.is_none()).then(|| {
        CentroidIndex::from_band_keys(
            scheme,
            spec.seed,
            INDEX_SALTS,
            k,
            minhash_keys,
            simhash_keys,
        )
    });
    Ok(FittedModel {
        spec,
        modes,
        means,
        gamma,
        index,
    })
}

fn decode_modes(
    sections: &envelope::Sections<'_>,
    spec: &ClusterSpec,
) -> Result<(Arc<Schema>, Modes), ModelError> {
    let schema_text = std::str::from_utf8(sections.require(envelope::SEC_SCHEMA)?)
        .map_err(|_| corrupt("schema section is not UTF-8"))?;
    let schema: Schema =
        serde_json::from_str(schema_text).map_err(|e| ModelError::Json(e.to_string()))?;
    let (k, n_attrs, cells) =
        envelope::matrix_frame(sections.require(envelope::SEC_MODES)?, 4, "modes")?;
    let values: Vec<ValueId> = cells
        .chunks_exact(4)
        .map(|c| ValueId(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
        .collect();
    let modes = Modes::from_parts(k, n_attrs, values);
    check_mode_arity(&schema, &modes).map_err(|e| corrupt(e.0))?;
    check_cluster_count(modes.k(), spec.k).map_err(|e| corrupt(e.0))?;
    Ok((Arc::new(schema), modes))
}

fn decode_means(
    sections: &envelope::Sections<'_>,
    spec: &ClusterSpec,
) -> Result<Means, ModelError> {
    let (k, dim, cells) =
        envelope::matrix_frame(sections.require(envelope::SEC_MEANS)?, 8, "means")?;
    if dim == 0 {
        return Err(corrupt("means section declares dim 0"));
    }
    check_cluster_count(k, spec.k).map_err(|e| corrupt(e.0))?;
    Ok(Means {
        dim,
        values: f64_cells(cells),
    })
}

/// Decodes a band-key section, cross-checking its own `k × bands` header
/// against the shape the spec demands before any key is copied.
fn decode_band_keys(
    bytes: &[u8],
    k: usize,
    bands: u32,
    what: &str,
) -> Result<Vec<u64>, ModelError> {
    let (rows, cols, cells) = envelope::matrix_frame(bytes, 8, what)?;
    if rows != k || cols != bands as usize {
        return Err(corrupt(format!(
            "{what} section is {rows}×{cols}, spec expects {k}×{bands}"
        )));
    }
    Ok(cells
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

fn f64_cells(cells: &[u8]) -> Vec<f64> {
    cells
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// A batch dataset's `ValueId`s only mean what the model thinks they mean if
/// the input dictionaries agree with the training schema's, id for id.
/// Prefix relationships are fine in either direction: a shorter input
/// dictionary saw fewer values, and input ids beyond the model's domain
/// match no centroid value (unseen-value semantics). Anything else is a
/// silent-garbage hazard, so it is rejected. A batch over the model's own
/// schema allocation (a training dataset, or one built over
/// [`FittedModel::shared_schema`]) passes without a comparison.
fn check_encoding(model: &Arc<Schema>, input: &Arc<Schema>) -> Result<(), ModelError> {
    if Arc::ptr_eq(model, input) {
        return Ok(());
    }
    for a in 0..model.n_attrs() {
        let attr = AttrId(a as u32);
        let aligned = model
            .dictionary(attr)
            .iter()
            .zip(input.dictionary(attr).iter())
            .all(|((_, m), (_, i))| m == i);
        if !aligned {
            return Err(ModelError::IncompatibleEncoding {
                attr: model.attr_name(attr).to_owned(),
            });
        }
    }
    Ok(())
}

fn check_shape(what: &'static str, expected: usize, got: usize) -> Result<(), ModelError> {
    if expected != got {
        return Err(ModelError::ShapeMismatch {
            what,
            expected,
            got,
        });
    }
    Ok(())
}

impl fmt::Debug for FittedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FittedModel")
            .field("modality", &self.modality())
            .field("k", &self.k())
            .field("lsh", &self.spec.lsh)
            .field("has_index", &self.has_index())
            .finish()
    }
}

// The envelope: `{"format": "lshclust-model", "version": 1, "spec": {…},
// "centroids": {"Categorical": {…}} | {"Numeric": {…}} | {"Mixed": {…}}}`.
// Only spec + centroids are stored; indexes rebuild on load.
impl Serialize for FittedModel {
    fn to_value(&self) -> Value {
        let payload = match (&self.modes, &self.means) {
            (Some((schema, modes)), None) => tagged(
                "Categorical",
                vec![
                    ("schema".to_owned(), schema.to_value()),
                    ("modes".to_owned(), modes.to_value()),
                ],
            ),
            (None, Some(means)) => tagged(
                "Numeric",
                vec![
                    ("dim".to_owned(), means.dim.to_value()),
                    ("centroids".to_owned(), means.values.to_value()),
                ],
            ),
            _ => {
                let (schema, (prototypes, gamma)) = self
                    .schema()
                    .zip(self.warm_prototypes())
                    .expect("a model has modes, means or both; mixed ones carry γ");
                tagged(
                    "Mixed",
                    vec![
                        ("schema".to_owned(), schema.to_value()),
                        ("prototypes".to_owned(), prototypes.to_value()),
                        ("gamma".to_owned(), gamma.to_value()),
                    ],
                )
            }
        };
        Value::Object(vec![
            ("format".to_owned(), Value::String(MODEL_FORMAT.to_owned())),
            ("version".to_owned(), MODEL_VERSION.to_value()),
            ("spec".to_owned(), self.spec.to_value()),
            ("centroids".to_owned(), payload),
        ])
    }
}

fn tagged(tag: &str, fields: Vec<(String, Value)>) -> Value {
    Value::Object(vec![(tag.to_owned(), Value::Object(fields))])
}

impl Deserialize for FittedModel {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let (spec, modes, means, gamma) = v1_parts(v)?;
        check_finite(means.as_ref(), gamma).map_err(|e| SerdeError(e.to_string()))?;
        Ok(FittedModel::assemble(spec, modes, means, gamma))
    }
}

/// What a v1 envelope stores: the spec and the centroid parts.
type V1Parts = (
    ClusterSpec,
    Option<(Arc<Schema>, Modes)>,
    Option<Means>,
    Option<f64>,
);

/// Reads the spec and centroid parts of a v1 envelope, checking their
/// shapes (not their values; see [`check_finite`]).
fn v1_parts(v: &Value) -> Result<V1Parts, SerdeError> {
    let spec: ClusterSpec = match v.get("spec") {
        Some(s) => Deserialize::from_value(s)?,
        None => return Err(SerdeError::expected("`spec` field", "FittedModel")),
    };
    let payload = v
        .get("centroids")
        .and_then(Value::as_object)
        .ok_or_else(|| SerdeError::expected("`centroids` object", "FittedModel"))?;
    let [(tag, body)] = payload else {
        return Err(SerdeError::expected(
            "single-variant centroid object",
            "FittedModel",
        ));
    };
    let (modes, means, gamma) = match tag.as_str() {
        "Categorical" => {
            let schema: Schema = field_of(body, "schema")?;
            let modes: Modes = field_of(body, "modes")?;
            check_mode_arity(&schema, &modes)?;
            check_cluster_count(modes.k(), spec.k)?;
            (Some((Arc::new(schema), modes)), None, None)
        }
        "Numeric" => {
            let dim: usize = field_of(body, "dim")?;
            let centroids: Vec<f64> = field_of(body, "centroids")?;
            if dim == 0 || !centroids.len().is_multiple_of(dim) {
                return Err(SerdeError(format!(
                    "centroid buffer of {} values is not k×dim with dim {dim}",
                    centroids.len()
                )));
            }
            check_cluster_count(centroids.len() / dim, spec.k)?;
            let means = Means {
                dim,
                values: centroids,
            };
            (None, Some(means), None)
        }
        "Mixed" => {
            let schema: Schema = field_of(body, "schema")?;
            let prototypes: Prototypes = field_of(body, "prototypes")?;
            let gamma: f64 = field_of(body, "gamma")?;
            check_mode_arity(&schema, &prototypes.modes)?;
            check_cluster_count(prototypes.k(), spec.k)?;
            let means = Means {
                dim: prototypes.dim(),
                values: prototypes.means,
            };
            (
                Some((Arc::new(schema), prototypes.modes)),
                Some(means),
                Some(gamma),
            )
        }
        other => return Err(SerdeError(format!("unknown centroid family `{other}`"))),
    };
    check_banding(&spec.lsh, modes.is_some(), means.is_some())?;
    Ok((spec, modes, means, gamma))
}

/// Both envelope decoders check every stored mean and γ before a model is
/// built: a NaN or infinite mean has no distance to any query, so a model
/// holding one would answer with a wrong cluster instead of an error.
fn check_finite(means: Option<&Means>, gamma: Option<f64>) -> Result<(), ModelError> {
    if let Some(means) = means {
        if let Some(i) = means.values.iter().position(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteCentroid {
                cluster: i / means.dim,
                dimension: i % means.dim,
            });
        }
    }
    if gamma.is_some_and(|g| !g.is_finite()) {
        return Err(ModelError::NonFiniteGamma);
    }
    Ok(())
}

/// A stored spec's banding is input, so both envelope decoders check it
/// here, before any index (and its `Banding`) is built from it.
fn check_banding(lsh: &Lsh, has_modes: bool, has_means: bool) -> Result<(), SerdeError> {
    let (minhash, simhash) = lsh.families();
    let families = [minhash.filter(|_| has_modes), simhash.filter(|_| has_means)];
    for &(bands, rows) in families.iter().flatten() {
        if bands == 0 || rows == 0 {
            return Err(SerdeError(format!(
                "spec banding {bands}×{rows} is not positive"
            )));
        }
    }
    Ok(())
}

/// Centroid payloads must carry at least one cluster and exactly as many as
/// the stored spec says; a truncated artifact would otherwise load into a
/// model that "predicts" out-of-range cluster ids.
fn check_cluster_count(k: usize, spec_k: usize) -> Result<(), SerdeError> {
    if k == 0 {
        return Err(SerdeError(
            "centroid payload holds zero clusters".to_owned(),
        ));
    }
    if k != spec_k {
        return Err(SerdeError(format!(
            "centroid payload holds {k} clusters but the spec says k={spec_k}"
        )));
    }
    Ok(())
}

/// Payloads carry the schema and the modes independently; reject artifacts
/// whose arities disagree instead of misindexing rows downstream.
fn check_mode_arity(schema: &Schema, modes: &Modes) -> Result<(), SerdeError> {
    if modes.n_attrs() != schema.n_attrs() {
        return Err(SerdeError(format!(
            "modes carry {} attributes but the schema declares {}",
            modes.n_attrs(),
            schema.n_attrs()
        )));
    }
    Ok(())
}

fn field_of<T: Deserialize>(body: &Value, key: &str) -> Result<T, SerdeError> {
    let entries = body
        .as_object()
        .ok_or_else(|| SerdeError::expected("object", "FittedModel payload"))?;
    serde::field(entries, key, "FittedModel payload")
}

/// An input modality [`FittedModel::predict`] can serve. Implemented for
/// `&Dataset` (categorical), `&NumericDataset`, and `&MixedDataset`.
pub trait PredictInput {
    /// Assigns every item of this input under `model`.
    fn predict_with(self, model: &FittedModel) -> Result<Vec<ClusterId>, ModelError>;
}

impl PredictInput for &Dataset {
    fn predict_with(self, model: &FittedModel) -> Result<Vec<ClusterId>, ModelError> {
        model.check_query(Some(self.n_attrs()), Some(self.shared_schema()), None)?;
        model.assign_batch(self.n_items(), |item| (Some(self.row(item)), None))
    }
}

impl PredictInput for &NumericDataset {
    fn predict_with(self, model: &FittedModel) -> Result<Vec<ClusterId>, ModelError> {
        model.check_query(None, None, Some(self.dim()))?;
        model.assign_batch(self.n_items(), |item| (None, Some(self.row(item))))
    }
}

impl PredictInput for &MixedDataset<'_> {
    fn predict_with(self, model: &FittedModel) -> Result<Vec<ClusterId>, ModelError> {
        let cat = self.categorical;
        model.check_query(
            Some(cat.n_attrs()),
            Some(cat.shared_schema()),
            Some(self.numeric.dim()),
        )?;
        model.assign_batch(self.n_items(), |item| {
            (Some(cat.row(item)), Some(self.numeric.row(item)))
        })
    }
}
