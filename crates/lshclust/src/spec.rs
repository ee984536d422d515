//! The unified run specification: [`ClusterSpec`] and its parts.

use lshclust_core::centroid_index::IndexScheme;
use lshclust_core::framework::StopPolicy;
use lshclust_kmodes::init::InitMethod;
use lshclust_kmodes::kmeans::{KMeansInit, NumericDataset};
use lshclust_minhash::{Banding, QueryMode};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;

/// The LSH scheme shortlisting candidate clusters — or [`Lsh::None`] for the
/// full-search exact baseline of the same family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lsh {
    /// No index: every assignment searches all `k` clusters (the paper's
    /// baselines — K-Modes, K-Means, K-Prototypes).
    None,
    /// MinHash banding over categorical items (`b` bands × `r` rows); the
    /// paper's MH-K-Modes and the streaming clusterer.
    MinHash {
        /// Number of bands `b`.
        bands: u32,
        /// Hashes per band `r`.
        rows: u32,
    },
    /// Random-hyperplane (cosine) LSH over numeric items; MH-K-Means.
    SimHash {
        /// Number of bands.
        bands: u32,
        /// Bits per band.
        rows: u32,
    },
    /// MinHash over the categorical part ∪ SimHash over the numeric part;
    /// MH-K-Prototypes on mixed data.
    Union {
        /// MinHash bands for the categorical part.
        bands: u32,
        /// MinHash rows per band.
        rows: u32,
        /// SimHash bands for the numeric part.
        sim_bands: u32,
        /// SimHash bits per band.
        sim_rows: u32,
    },
}

impl Lsh {
    /// Short scheme name (used in error messages and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Lsh::None => "None",
            Lsh::MinHash { .. } => "MinHash",
            Lsh::SimHash { .. } => "SimHash",
            Lsh::Union { .. } => "Union",
        }
    }

    /// `(bands, rows)` of the MinHash and of the SimHash family the scheme
    /// uses, unvalidated.
    pub(crate) fn families(&self) -> (Option<Bands>, Option<Bands>) {
        match *self {
            Lsh::None => (None, None),
            Lsh::MinHash { bands, rows } => (Some((bands, rows)), None),
            Lsh::SimHash { bands, rows } => (None, Some((bands, rows))),
            Lsh::Union {
                bands,
                rows,
                sim_bands,
                sim_rows,
            } => (Some((bands, rows)), Some((sim_bands, sim_rows))),
        }
    }

    /// Checks that every hash family of the scheme has positive bands and
    /// rows — [`SpecError::InvalidBanding`] names the first that does not.
    pub(crate) fn check_banding(&self) -> Result<(), SpecError> {
        let (minhash, simhash) = self.families();
        for (family, banding) in [("MinHash", minhash), ("SimHash", simhash)] {
            if let Some((bands, rows)) = banding.filter(|&(b, r)| b == 0 || r == 0) {
                return Err(SpecError::InvalidBanding {
                    lsh: self.name(),
                    family,
                    bands,
                    rows,
                });
            }
        }
        Ok(())
    }

    /// The centroid-index scheme for centroids with a mode part
    /// (`has_modes`) and/or a mean part (`has_means`): each family applies
    /// only where its part exists.
    pub(crate) fn index_scheme(&self, has_modes: bool, has_means: bool) -> IndexScheme {
        let (minhash, simhash) = self.families();
        IndexScheme {
            minhash: minhash
                .filter(|_| has_modes)
                .map(|(bands, rows)| Banding::new(bands, rows)),
            simhash: simhash.filter(|_| has_means),
        }
    }
}

/// `(bands, rows per band)` of one hash family.
type Bands = (u32, u32);

// External tagging, serde-style: `"None"` for the unit variant, otherwise
// `{"MinHash": {"bands": 20, "rows": 5}}`.
impl Serialize for Lsh {
    fn to_value(&self) -> Value {
        let tagged = |tag: &str, fields: Vec<(String, Value)>| {
            Value::Object(vec![(tag.to_owned(), Value::Object(fields))])
        };
        match *self {
            Lsh::None => Value::String("None".to_owned()),
            Lsh::MinHash { bands, rows } => tagged(
                "MinHash",
                vec![
                    ("bands".to_owned(), bands.to_value()),
                    ("rows".to_owned(), rows.to_value()),
                ],
            ),
            Lsh::SimHash { bands, rows } => tagged(
                "SimHash",
                vec![
                    ("bands".to_owned(), bands.to_value()),
                    ("rows".to_owned(), rows.to_value()),
                ],
            ),
            Lsh::Union {
                bands,
                rows,
                sim_bands,
                sim_rows,
            } => tagged(
                "Union",
                vec![
                    ("bands".to_owned(), bands.to_value()),
                    ("rows".to_owned(), rows.to_value()),
                    ("sim_bands".to_owned(), sim_bands.to_value()),
                    ("sim_rows".to_owned(), sim_rows.to_value()),
                ],
            ),
        }
    }
}

impl Deserialize for Lsh {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        if let Some("None") = v.as_str() {
            return Ok(Lsh::None);
        }
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "Lsh"))?;
        let [(tag, body)] = entries else {
            return Err(SerdeError::expected("single-variant object", "Lsh"));
        };
        let fields = body
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "Lsh body"))?;
        match tag.as_str() {
            "MinHash" => Ok(Lsh::MinHash {
                bands: serde::field(fields, "bands", "Lsh::MinHash")?,
                rows: serde::field(fields, "rows", "Lsh::MinHash")?,
            }),
            "SimHash" => Ok(Lsh::SimHash {
                bands: serde::field(fields, "bands", "Lsh::SimHash")?,
                rows: serde::field(fields, "rows", "Lsh::SimHash")?,
            }),
            "Union" => Ok(Lsh::Union {
                bands: serde::field(fields, "bands", "Lsh::Union")?,
                rows: serde::field(fields, "rows", "Lsh::Union")?,
                sim_bands: serde::field(fields, "sim_bands", "Lsh::Union")?,
                sim_rows: serde::field(fields, "sim_rows", "Lsh::Union")?,
            }),
            other => Err(SerdeError(format!("unknown Lsh variant `{other}`"))),
        }
    }
}

/// The fit discipline: how many items each training iteration touches.
///
/// [`Fit::Full`] is the paper's batch algorithm — every pass reassigns all
/// `n` items. [`Fit::MiniBatch`] is Sculley-style stochastic fitting: each
/// step samples `batch_size` items, assigns them against the step's frozen
/// centroids (shortlisted through an LSH index **over the centroids** when
/// the spec carries an LSH scheme, with full-search fallback), and nudges
/// only the touched centroids; a final full pass produces the complete
/// clustering. The centroid index is rebuilt every `refresh_every` steps so
/// it tracks the drifting centroids.
///
/// Mini-batch fits honour `spec.threads` (batch assignment fans out
/// deterministically — equal seeds give byte-identical centroids at any
/// thread count), ignore [`crate::StopPolicy`] (the schedule is the stop
/// rule), and are servable and warm-startable like any other run. The
/// streaming inserter is inherently online and rejects `Fit::MiniBatch`
/// with [`SpecError::UnsupportedFit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Fit {
    /// Full-batch passes over all items (the paper's discipline).
    #[default]
    Full,
    /// Sculley-style sampled steps with shortlisted assignment.
    MiniBatch {
        /// Items sampled per step (clamped to `1..=n`).
        batch_size: usize,
        /// Steps before the final full assignment pass (min 1).
        n_steps: usize,
        /// Centroid-index rebuild cadence in steps (`0` = build once at
        /// step 1, never refresh). Irrelevant under [`Lsh::None`].
        refresh_every: usize,
    },
}

impl Fit {
    /// A mini-batch schedule with the default refresh cadence (8 steps) and
    /// the `10·k / batch_size` step heuristic, floored at 50 steps.
    pub fn mini_batch(k: usize, batch_size: usize) -> Self {
        Fit::MiniBatch {
            batch_size,
            n_steps: (10 * k / batch_size.max(1)).max(50),
            refresh_every: 8,
        }
    }

    /// Short discipline name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            Fit::Full => "Full",
            Fit::MiniBatch { .. } => "MiniBatch",
        }
    }
}

// External tagging, serde-style: `"Full"` for the unit variant, otherwise
// `{"MiniBatch": {"batch_size": …, "n_steps": …, "refresh_every": …}}`.
impl Serialize for Fit {
    fn to_value(&self) -> Value {
        match *self {
            Fit::Full => Value::String("Full".to_owned()),
            Fit::MiniBatch {
                batch_size,
                n_steps,
                refresh_every,
            } => Value::Object(vec![(
                "MiniBatch".to_owned(),
                Value::Object(vec![
                    ("batch_size".to_owned(), batch_size.to_value()),
                    ("n_steps".to_owned(), n_steps.to_value()),
                    ("refresh_every".to_owned(), refresh_every.to_value()),
                ]),
            )]),
        }
    }
}

impl Deserialize for Fit {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        if let Some("Full") = v.as_str() {
            return Ok(Fit::Full);
        }
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "Fit"))?;
        let [(tag, body)] = entries else {
            return Err(SerdeError::expected("single-variant object", "Fit"));
        };
        if tag != "MiniBatch" {
            return Err(SerdeError(format!("unknown Fit variant `{tag}`")));
        }
        let fields = body
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "Fit::MiniBatch"))?;
        Ok(Fit::MiniBatch {
            batch_size: serde::field(fields, "batch_size", "Fit::MiniBatch")?,
            n_steps: serde::field(fields, "n_steps", "Fit::MiniBatch")?,
            refresh_every: serde::field(fields, "refresh_every", "Fit::MiniBatch")?,
        })
    }
}

/// Centroid initialisation, across all families. Which strategies apply
/// depends on the modality: `Huang`/`Cao` are categorical-only, `PlusPlus`
/// is numeric-only, `RandomItems` works everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Init {
    /// `k` distinct items chosen uniformly at random (the paper's choice).
    #[default]
    RandomItems,
    /// Huang's frequency-based synthesis (categorical only).
    Huang,
    /// Cao et al.'s density method (categorical only; deterministic).
    Cao,
    /// k-means++ D² seeding (numeric only).
    PlusPlus,
}

serde::impl_serde_unit_enum!(Init {
    RandomItems,
    Huang,
    Cao,
    PlusPlus
});

impl Init {
    /// Name for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Init::RandomItems => "RandomItems",
            Init::Huang => "Huang",
            Init::Cao => "Cao",
            Init::PlusPlus => "PlusPlus",
        }
    }
}

/// How the MinHash index answers shortlist queries (identical results).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Query {
    /// Walk the item's `b` buckets on every query (paper-faithful).
    #[default]
    ScanBuckets,
    /// Per-item candidate lists precomputed at build time.
    Precomputed,
}

serde::impl_serde_unit_enum!(Query {
    ScanBuckets,
    Precomputed
});

impl From<Query> for QueryMode {
    fn from(q: Query) -> QueryMode {
        match q {
            Query::ScanBuckets => QueryMode::ScanBuckets,
            Query::Precomputed => QueryMode::Precomputed,
        }
    }
}

/// Extra knobs for the streaming inserter (`Clusterer::streaming`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct StreamOptions {
    /// Found a new cluster when the best shortlisted mode differs in more
    /// than this many attributes; `None` defaults to half the attributes.
    pub distance_threshold: Option<u32>,
    /// Hard cap on clusters; `None` means unbounded.
    pub max_clusters: Option<usize>,
}

serde::impl_serde_struct!(StreamOptions {
    distance_threshold,
    max_clusters
});

/// The one specification driving all four algorithm families.
///
/// Build with [`ClusterSpec::new`] and the chained setters; feed to a
/// [`crate::Clusterer`]. Serializes to JSON via `serde_json`.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Number of clusters `k` (ignored by the streaming inserter, which
    /// discovers its cluster count).
    pub k: usize,
    /// The LSH scheme, or [`Lsh::None`] for the exact baseline.
    pub lsh: Lsh,
    /// Centroid initialisation.
    pub init: Init,
    /// Seed driving initialisation *and* the hash families.
    pub seed: u64,
    /// MinHash index query mode (categorical paths).
    pub query_mode: Query,
    /// Whether an item's own index entry may contribute its current cluster
    /// to the shortlist (Algorithm 2 behaviour; `false` is the ablation).
    pub include_self: bool,
    /// Assignment-pass threads, honoured by **every** accelerated family
    /// (MinHash, SimHash, Union) plus streaming batch refinement and the
    /// serving-time `FittedModel::predict` fan-out. `1` keeps the paper's
    /// single-threaded Gauss–Seidel pass; `> 1` runs the Jacobi parallel
    /// engine (see README § Performance — results are identical at any
    /// thread count > 1, and may differ from the serial pass by an
    /// iteration of convergence). `0` is normalised to `1` at the spec
    /// boundary.
    pub threads: usize,
    /// Iteration policy: cap plus stop criteria.
    ///
    /// The accelerated paths honour all three fields. The exact baselines
    /// (`Lsh::None`) honour `max_iterations` but always stop on a zero-move
    /// or cost-stagnant pass — those criteria are built into the legacy
    /// full-search loops, so disabling the flags only affects LSH runs.
    pub stop: StopPolicy,
    /// Mixing weight γ for mixed data; `None` uses Huang's variance
    /// heuristic (`suggest_gamma`).
    pub gamma: Option<f64>,
    /// Streaming-only options.
    pub stream: StreamOptions,
    /// Fit discipline: full-batch passes or shortlisted mini-batch steps.
    pub fit: Fit,
    /// Shard count for partitioned fitting. `1` (the default) fits
    /// unsharded; `> 1` partitions items across that many shards, each with
    /// its own local LSH index, and runs the coordinator/worker protocol of
    /// `lshclust_core::shard` — in-process by default, multi-process when a
    /// worker command is configured (see `Clusterer::worker_cmd` and the
    /// `cluster fit --shards N --worker-cmd ...` CLI). Sharded fits are
    /// byte-identical to `threads > 1` unsharded fits at equal seeds.
    /// `0` is normalised to `1` at the spec boundary.
    pub shards: usize,
    /// Cluster-closure incremental re-assignment (default `true`). Each
    /// iteration the engine tracks which centroids actually changed; items
    /// whose cached candidate shortlist contains only unchanged clusters
    /// keep their assignment without re-scoring — provably the same answer
    /// full re-evaluation would return, so fits are byte-identical either
    /// way (see `docs/ARCHITECTURE.md` § Incremental assignment). `false`
    /// restores exhaustive per-pass re-evaluation (the `--no-closures` CLI
    /// escape hatch); exact baselines (`Lsh::None`) ignore the flag.
    pub closures: bool,
    /// Chunk-scheduling discipline of the Jacobi parallel engine (default
    /// `false` = contiguous chunks). `true` strides items round-robin over
    /// the workers instead, which balances skewed per-item costs; results
    /// are byte-identical either way. Irrelevant at `threads == 1` and for
    /// exact baselines.
    pub interleaved: bool,
}

// Hand-written (not `impl_serde_struct!`) for one reason: late-added fields
// (`fit`, `shards`, `closures`, `interleaved`) must default when absent, so
// every spec JSON written before they existed — saved model envelopes
// included — still parses.
impl Serialize for ClusterSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("k".to_owned(), self.k.to_value()),
            ("lsh".to_owned(), self.lsh.to_value()),
            ("init".to_owned(), self.init.to_value()),
            ("seed".to_owned(), self.seed.to_value()),
            ("query_mode".to_owned(), self.query_mode.to_value()),
            ("include_self".to_owned(), self.include_self.to_value()),
            ("threads".to_owned(), self.threads.to_value()),
            ("stop".to_owned(), self.stop.to_value()),
            ("gamma".to_owned(), self.gamma.to_value()),
            ("stream".to_owned(), self.stream.to_value()),
            ("fit".to_owned(), self.fit.to_value()),
            ("shards".to_owned(), self.shards.to_value()),
            ("closures".to_owned(), self.closures.to_value()),
            ("interleaved".to_owned(), self.interleaved.to_value()),
        ])
    }
}

impl Deserialize for ClusterSpec {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "ClusterSpec"))?;
        let fit = match entries.iter().find(|(key, _)| key == "fit") {
            Some((_, value)) => Fit::from_value(value)
                .map_err(|e| SerdeError(format!("field `fit` of ClusterSpec: {}", e.0)))?,
            None => Fit::Full, // pre-`fit` spec JSON
        };
        let shards = match entries.iter().find(|(key, _)| key == "shards") {
            Some((_, value)) => usize::from_value(value)
                .map_err(|e| SerdeError(format!("field `shards` of ClusterSpec: {}", e.0)))?,
            None => 1, // pre-`shards` spec JSON
        };
        let closures = match entries.iter().find(|(key, _)| key == "closures") {
            Some((_, value)) => bool::from_value(value)
                .map_err(|e| SerdeError(format!("field `closures` of ClusterSpec: {}", e.0)))?,
            None => true, // pre-`closures` spec JSON: default-on, byte-identical
        };
        let interleaved = match entries.iter().find(|(key, _)| key == "interleaved") {
            Some((_, value)) => bool::from_value(value)
                .map_err(|e| SerdeError(format!("field `interleaved` of ClusterSpec: {}", e.0)))?,
            None => false, // pre-`interleaved` spec JSON: contiguous chunks
        };
        Ok(Self {
            k: serde::field(entries, "k", "ClusterSpec")?,
            lsh: serde::field(entries, "lsh", "ClusterSpec")?,
            init: serde::field(entries, "init", "ClusterSpec")?,
            seed: serde::field(entries, "seed", "ClusterSpec")?,
            query_mode: serde::field(entries, "query_mode", "ClusterSpec")?,
            include_self: serde::field(entries, "include_self", "ClusterSpec")?,
            threads: serde::field(entries, "threads", "ClusterSpec")?,
            stop: serde::field(entries, "stop", "ClusterSpec")?,
            gamma: serde::field(entries, "gamma", "ClusterSpec")?,
            stream: serde::field(entries, "stream", "ClusterSpec")?,
            fit,
            shards,
            closures,
            interleaved,
        })
    }
}

impl ClusterSpec {
    /// A spec with the workspace defaults: exact baseline (no LSH), random
    /// init, seed 0, scan-bucket queries, self-collision on, one thread,
    /// 100-iteration cap.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            lsh: Lsh::None,
            init: Init::RandomItems,
            seed: 0,
            query_mode: Query::ScanBuckets,
            include_self: true,
            threads: 1,
            stop: StopPolicy::default(),
            gamma: None,
            stream: StreamOptions::default(),
            fit: Fit::Full,
            shards: 1,
            closures: true,
            interleaved: false,
        }
    }

    /// Sets the LSH scheme.
    ///
    /// ```
    /// use lshclust::{ClusterSpec, Lsh};
    ///
    /// let spec = ClusterSpec::new(100).lsh(Lsh::MinHash { bands: 20, rows: 5 });
    /// assert_eq!(spec.lsh.name(), "MinHash");
    /// ```
    pub fn lsh(mut self, lsh: Lsh) -> Self {
        self.lsh = lsh;
        self
    }

    /// Sets the initialisation strategy.
    ///
    /// ```
    /// use lshclust::{ClusterSpec, Init};
    ///
    /// let spec = ClusterSpec::new(8).init(Init::Cao); // deterministic, categorical-only
    /// assert_eq!(spec.init, Init::Cao);
    /// ```
    pub fn init(mut self, init: Init) -> Self {
        self.init = init;
        self
    }

    /// Sets the seed driving initialisation *and* the hash families.
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert_eq!(ClusterSpec::new(4).seed(42).seed, 42);
    /// ```
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the index query mode.
    ///
    /// ```
    /// use lshclust::{ClusterSpec, Query};
    ///
    /// let spec = ClusterSpec::new(4).query_mode(Query::Precomputed);
    /// assert_eq!(spec.query_mode, Query::Precomputed); // identical results, different cost profile
    /// ```
    pub fn query_mode(mut self, query_mode: Query) -> Self {
        self.query_mode = query_mode;
        self
    }

    /// Enables/disables self-collision (ablation).
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert!(!ClusterSpec::new(4).include_self(false).include_self);
    /// ```
    pub fn include_self(mut self, yes: bool) -> Self {
        self.include_self = yes;
        self
    }

    /// Sets the number of assignment threads. `0` is documented shorthand
    /// for "serial" and clamps to `1` — no panic, so specs assembled from
    /// untrusted JSON or CLI flags normalise instead of aborting.
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert_eq!(ClusterSpec::new(4).threads(4).threads, 4);
    /// assert_eq!(ClusterSpec::new(4).threads(0).threads, 1); // 0 ⇒ serial
    /// ```
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the full iteration policy.
    ///
    /// ```
    /// use lshclust::{ClusterSpec, StopPolicy};
    ///
    /// let spec = ClusterSpec::new(4).stop(StopPolicy::max_iterations(12));
    /// assert_eq!(spec.stop.max_iterations, 12);
    /// ```
    pub fn stop(mut self, stop: StopPolicy) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the iteration cap (shorthand for adjusting [`Self::stop`]).
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert_eq!(ClusterSpec::new(4).max_iterations(30).stop.max_iterations, 30);
    /// ```
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.stop.max_iterations = n;
        self
    }

    /// Sets the K-Prototypes mixing weight γ.
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert_eq!(ClusterSpec::new(4).gamma(0.5).gamma, Some(0.5));
    /// ```
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// Sets the streaming options.
    ///
    /// ```
    /// use lshclust::{ClusterSpec, StreamOptions};
    ///
    /// let spec = ClusterSpec::new(0).stream(StreamOptions {
    ///     distance_threshold: Some(3),
    ///     max_clusters: Some(100),
    /// });
    /// assert_eq!(spec.stream.max_clusters, Some(100));
    /// ```
    pub fn stream(mut self, stream: StreamOptions) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the fit discipline ([`Fit::Full`] passes vs [`Fit::MiniBatch`]
    /// sampled steps).
    ///
    /// ```
    /// use lshclust::{ClusterSpec, Fit};
    ///
    /// let spec = ClusterSpec::new(100).fit(Fit::MiniBatch {
    ///     batch_size: 256,
    ///     n_steps: 60,
    ///     refresh_every: 8,
    /// });
    /// assert_eq!(spec.fit.name(), "MiniBatch");
    /// // The heuristic constructor derives the step count from k and batch:
    /// let spec = ClusterSpec::new(100).fit(Fit::mini_batch(100, 256));
    /// assert!(matches!(spec.fit, Fit::MiniBatch { n_steps: 50, .. }));
    /// ```
    pub fn fit(mut self, fit: Fit) -> Self {
        self.fit = fit;
        self
    }

    /// Sets the shard count for partitioned fitting. `0` is documented
    /// shorthand for "unsharded" and clamps to `1`, mirroring
    /// [`Self::threads`].
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert_eq!(ClusterSpec::new(4).shards(4).shards, 4);
    /// assert_eq!(ClusterSpec::new(4).shards(0).shards, 1); // 0 ⇒ unsharded
    /// ```
    pub fn shards(mut self, s: usize) -> Self {
        self.shards = s.max(1);
        self
    }

    /// Enables or disables cluster-closure incremental re-assignment
    /// (default on). Results are byte-identical either way; turning it off
    /// forces every item through full shortlist re-scoring each pass.
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert!(ClusterSpec::new(4).closures);
    /// assert!(!ClusterSpec::new(4).closures(false).closures);
    /// ```
    pub fn closures(mut self, yes: bool) -> Self {
        self.closures = yes;
        self
    }

    /// Selects interleaved (strided) vs contiguous chunk scheduling for the
    /// Jacobi parallel engine (default contiguous). Byte-identical results
    /// either way — this is a load-balancing knob.
    ///
    /// ```
    /// use lshclust::ClusterSpec;
    ///
    /// assert!(!ClusterSpec::new(4).interleaved);
    /// assert!(ClusterSpec::new(4).interleaved(true).interleaved);
    /// ```
    pub fn interleaved(mut self, yes: bool) -> Self {
        self.interleaved = yes;
        self
    }

    /// Builds a [`crate::Clusterer`] that **warm-starts** from a trained
    /// model: instead of re-initialising, the refit resumes from `model`'s
    /// served centroids (the spec's `init` strategy is ignored). The spec's
    /// `k` must equal the model's cluster count and the input modality must
    /// match the model's, or `fit` returns
    /// [`SpecError::WarmStartMismatch`].
    pub fn warm_start(self, model: &crate::FittedModel) -> crate::Clusterer {
        crate::Clusterer::warm_start(self, model)
    }
}

/// Why a spec cannot run on the given input modality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The LSH scheme does not apply to this modality (e.g. SimHash on
    /// categorical data).
    UnsupportedLsh {
        /// Input modality ("categorical", "numeric", "mixed", "streaming").
        modality: &'static str,
        /// The offending scheme's name.
        lsh: &'static str,
    },
    /// The initialisation strategy does not apply to this modality.
    UnsupportedInit {
        /// Input modality.
        modality: &'static str,
        /// The offending strategy's name.
        init: &'static str,
    },
    /// The fit discipline does not apply to this modality (the streaming
    /// inserter is inherently online; `Fit::MiniBatch` would be silently
    /// meaningless there).
    UnsupportedFit {
        /// Input modality.
        modality: &'static str,
        /// The offending discipline's name.
        fit: &'static str,
    },
    /// `k` is zero or exceeds the number of items.
    InvalidK {
        /// Requested cluster count.
        k: usize,
        /// Items available.
        n_items: usize,
    },
    /// A warm-start model is incompatible with the spec or the input
    /// (wrong modality, different `k`, or mismatched shape).
    WarmStartMismatch {
        /// What the spec/input requires.
        expected: String,
        /// What the warm-start model provides.
        got: String,
    },
    /// The spec asks for `shards > 1` in combination with a feature the
    /// sharded coordinator does not cover (exact baselines, mini-batch
    /// fits, streaming, or the `include_self = false` ablation).
    ShardsUnsupported {
        /// The feature that cannot be sharded.
        what: &'static str,
    },
    /// A sharded fit failed at runtime: a worker reported an error, a
    /// worker process could not be spawned, or a reply violated the
    /// scoring protocol.
    ShardFailure {
        /// The underlying shard/transport error.
        message: String,
    },
    /// A similarity threshold is NaN or below 0, so no pair could ever
    /// verify against it.
    InvalidThreshold {
        /// The offending threshold, as written by `f64`'s `Display`.
        threshold: String,
    },
    /// A hash family of the LSH scheme has zero bands or zero rows per
    /// band, so it could hash nothing.
    InvalidBanding {
        /// The scheme's name.
        lsh: &'static str,
        /// The empty family ("MinHash" or "SimHash").
        family: &'static str,
        /// Its bands.
        bands: u32,
        /// Its rows per band.
        rows: u32,
    },
    /// A numeric cell of the input is NaN or infinite: no distance to it
    /// can be compared.
    NonFinite {
        /// The item holding it.
        item: usize,
        /// Its dimension.
        dim: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnsupportedLsh { modality, lsh } => {
                write!(f, "Lsh::{lsh} does not apply to {modality} data")
            }
            SpecError::UnsupportedInit { modality, init } => {
                write!(f, "Init::{init} does not apply to {modality} data")
            }
            SpecError::UnsupportedFit { modality, fit } => {
                write!(f, "Fit::{fit} does not apply to {modality} data")
            }
            SpecError::InvalidK { k, n_items } => {
                write!(f, "k={k} must be in 1..={n_items}")
            }
            SpecError::WarmStartMismatch { expected, got } => {
                write!(f, "warm start needs {expected}, model provides {got}")
            }
            SpecError::ShardsUnsupported { what } => {
                write!(f, "shards > 1 does not support {what}")
            }
            SpecError::ShardFailure { message } => {
                write!(f, "sharded fit failed: {message}")
            }
            SpecError::InvalidThreshold { threshold } => {
                write!(f, "threshold {threshold} must be a non-negative number")
            }
            SpecError::InvalidBanding {
                lsh,
                family,
                bands,
                rows,
            } => write!(
                f,
                "Lsh::{lsh}: {family} banding {bands}×{rows} needs positive bands and rows"
            ),
            SpecError::NonFinite { item, dim } => {
                write!(f, "item {item} holds a non-finite value in dimension {dim}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Rejects the first NaN or infinite cell of `points`.
pub(crate) fn check_finite(points: &NumericDataset) -> Result<(), SpecError> {
    for item in 0..points.n_items() {
        if let Some(dim) = points.row(item).iter().position(|x| !x.is_finite()) {
            return Err(SpecError::NonFinite { item, dim });
        }
    }
    Ok(())
}

/// Maps [`Init`] to the categorical strategies; errors on numeric-only ones.
pub(crate) fn categorical_init(
    init: Init,
    modality: &'static str,
) -> Result<InitMethod, SpecError> {
    match init {
        Init::RandomItems => Ok(InitMethod::RandomItems),
        Init::Huang => Ok(InitMethod::Huang),
        Init::Cao => Ok(InitMethod::Cao),
        Init::PlusPlus => Err(SpecError::UnsupportedInit {
            modality,
            init: init.name(),
        }),
    }
}

/// Maps [`Init`] to the numeric strategies; errors on categorical-only ones.
pub(crate) fn numeric_init(init: Init, modality: &'static str) -> Result<KMeansInit, SpecError> {
    match init {
        Init::RandomItems => Ok(KMeansInit::RandomItems),
        Init::PlusPlus => Ok(KMeansInit::PlusPlus),
        Init::Huang | Init::Cao => Err(SpecError::UnsupportedInit {
            modality,
            init: init.name(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ClusterSpec::new(1000)
            .lsh(Lsh::MinHash { bands: 20, rows: 5 })
            .init(Init::Huang)
            .seed(u64::MAX - 7)
            .query_mode(Query::Precomputed)
            .include_self(false)
            .threads(4)
            .max_iterations(30)
            .gamma(0.125);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn every_lsh_variant_round_trips() {
        for lsh in [
            Lsh::None,
            Lsh::MinHash { bands: 1, rows: 1 },
            Lsh::SimHash { bands: 8, rows: 16 },
            Lsh::Union {
                bands: 20,
                rows: 5,
                sim_bands: 8,
                sim_rows: 16,
            },
        ] {
            let spec = ClusterSpec::new(5).lsh(lsh);
            let json = serde_json::to_string_pretty(&spec).unwrap();
            let back: ClusterSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back.lsh, lsh, "{json}");
        }
    }

    #[test]
    fn stop_policy_round_trips() {
        let stop = StopPolicy {
            max_iterations: 17,
            stop_on_no_moves: false,
            stop_on_cost_increase: true,
        };
        let json = serde_json::to_string(&stop).unwrap();
        let back: StopPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stop);
    }

    #[test]
    fn unknown_lsh_variant_is_rejected() {
        assert!(serde_json::from_str::<Lsh>(r#"{"CosineTree":{"bands":1}}"#).is_err());
        assert!(serde_json::from_str::<Lsh>(r#""None""#).is_ok());
    }

    #[test]
    fn every_spec_error_variant_displays_its_context() {
        // One case per variant; each message must carry the offending
        // pieces so CLI users can act on it.
        let cases = [
            (
                SpecError::UnsupportedLsh {
                    modality: "streaming",
                    lsh: "SimHash",
                },
                vec!["SimHash", "streaming"],
            ),
            (
                SpecError::UnsupportedInit {
                    modality: "numeric",
                    init: "Cao",
                },
                vec!["Cao", "numeric"],
            ),
            (
                SpecError::UnsupportedFit {
                    modality: "streaming",
                    fit: "MiniBatch",
                },
                vec!["MiniBatch", "streaming"],
            ),
            (
                SpecError::InvalidK { k: 51, n_items: 50 },
                vec!["k=51", "50"],
            ),
            (
                SpecError::WarmStartMismatch {
                    expected: "k=10".to_owned(),
                    got: "k=7".to_owned(),
                },
                vec!["warm start", "k=10", "k=7"],
            ),
            (
                SpecError::ShardsUnsupported {
                    what: "Fit::MiniBatch",
                },
                vec!["shards", "Fit::MiniBatch"],
            ),
            (
                SpecError::ShardFailure {
                    message: "shard 1 exited".to_owned(),
                },
                vec!["sharded fit", "shard 1 exited"],
            ),
            (
                SpecError::InvalidThreshold {
                    threshold: "-1".to_owned(),
                },
                vec!["threshold -1", "non-negative"],
            ),
            (
                SpecError::InvalidBanding {
                    lsh: "Union",
                    family: "SimHash",
                    bands: 8,
                    rows: 0,
                },
                vec!["Lsh::Union", "SimHash", "8×0", "positive"],
            ),
            (
                SpecError::NonFinite { item: 17, dim: 3 },
                vec!["item 17", "dimension 3", "non-finite"],
            ),
        ];
        for (err, needles) in cases {
            let text = err.to_string();
            for needle in needles {
                assert!(text.contains(needle), "`{text}` misses `{needle}`");
            }
        }
    }

    #[test]
    fn fit_variants_round_trip() {
        for fit in [
            Fit::Full,
            Fit::MiniBatch {
                batch_size: 512,
                n_steps: 80,
                refresh_every: 4,
            },
        ] {
            let spec = ClusterSpec::new(10).fit(fit);
            let json = serde_json::to_string(&spec).unwrap();
            let back: ClusterSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back.fit, fit, "{json}");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn spec_json_without_fit_field_defaults_to_full() {
        // Pre-`fit` artifacts (saved model envelopes and specs)
        // must keep parsing; the field defaults instead of erroring.
        let mut spec = ClusterSpec::new(3).seed(9);
        spec.fit = Fit::MiniBatch {
            batch_size: 1,
            n_steps: 1,
            refresh_every: 1,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"fit\""));
        let legacy = json.replace(
            ",\"fit\":{\"MiniBatch\":{\"batch_size\":1,\"n_steps\":1,\"refresh_every\":1}}",
            "",
        );
        assert!(!legacy.contains("fit"), "surgery failed: {legacy}");
        let back: ClusterSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.fit, Fit::Full);
        assert_eq!(back.seed, 9);
    }

    #[test]
    fn spec_json_without_shards_field_defaults_to_one() {
        // Same backward-compatibility contract as `fit`: spec JSON written
        // before sharding existed parses as unsharded.
        let spec = ClusterSpec::new(3).seed(9).shards(4);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"shards\":4"));
        let legacy = json.replace(",\"shards\":4", "");
        assert!(!legacy.contains("shards"), "surgery failed: {legacy}");
        let back: ClusterSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.shards, 1);
        assert_eq!(back.seed, 9);

        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, 4);
    }

    #[test]
    fn spec_json_without_closures_field_defaults_to_on() {
        // Same backward-compatibility contract as `fit`/`shards`: spec JSON
        // written before closures existed parses with the (byte-identical)
        // incremental engine enabled.
        let spec = ClusterSpec::new(3).seed(9).closures(false);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"closures\":false"));
        let legacy = json.replace(",\"closures\":false", "");
        assert!(!legacy.contains("closures"), "surgery failed: {legacy}");
        let back: ClusterSpec = serde_json::from_str(&legacy).unwrap();
        assert!(back.closures);
        assert_eq!(back.seed, 9);

        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert!(!back.closures);
    }

    #[test]
    fn spec_json_without_interleaved_field_defaults_to_contiguous() {
        // Same backward-compatibility contract as the other late-added
        // fields: spec JSON written before the scheduling knob existed
        // parses with contiguous chunks.
        let spec = ClusterSpec::new(3).seed(9).interleaved(true);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"interleaved\":true"));
        let legacy = json.replace(",\"interleaved\":true", "");
        assert!(!legacy.contains("interleaved"), "surgery failed: {legacy}");
        let back: ClusterSpec = serde_json::from_str(&legacy).unwrap();
        assert!(!back.interleaved);
        assert_eq!(back.seed, 9);

        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert!(back.interleaved);
    }

    #[test]
    fn mini_batch_steps_follow_the_batch_size() {
        let steps = |k, batch| match Fit::mini_batch(k, batch) {
            Fit::MiniBatch { n_steps, .. } => n_steps,
            Fit::Full => unreachable!("a mini-batch schedule"),
        };
        assert_eq!(steps(512, 8), 640); // 10·512/8
        assert_eq!(steps(512, 4096), 50); // the floor
        assert_eq!(steps(512, 0), 5120); // a zero batch counts as one
    }

    #[test]
    fn unknown_fit_variant_is_rejected() {
        assert!(serde_json::from_str::<Fit>(r#""Full""#).is_ok());
        assert!(serde_json::from_str::<Fit>(r#"{"Epoch":{"n":1}}"#).is_err());
    }

    #[test]
    fn init_applicability_is_enforced() {
        assert!(categorical_init(Init::PlusPlus, "categorical").is_err());
        assert!(numeric_init(Init::Cao, "numeric").is_err());
        assert!(categorical_init(Init::Cao, "categorical").is_ok());
        assert!(numeric_init(Init::PlusPlus, "numeric").is_ok());
    }
}
