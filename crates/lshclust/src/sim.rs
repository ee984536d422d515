//! Similarity workloads over the same LSH machinery the fits use: **dedup**
//! (near-duplicate detection), **similarity self-join**, and a
//! **centroid-linkage hierarchy** over a trained model's centroids.
//!
//! All three engines share one candidate-generation core
//! ([`lshclust_core::sim::CandidatePairs`]): items (or centroids) are hashed
//! into the modality's band-key buffer exactly as a fit would hash them,
//! bucket collisions nominate candidate pairs, and the modality's *exact*
//! distance kernel verifies every candidate. Emitted pairs therefore carry
//! **precision 1.0 by construction** — the LSH stage can only miss pairs
//! (recall < 1), never fabricate one. Candidate generation and verification
//! fan over `spec.threads` and are byte-identical at any thread count.
//!
//! ```
//! use lshclust::{Lsh, NumericDataset, Sim, SimSpec};
//!
//! let data = NumericDataset::new(1, vec![0.0, 0.01, 5.0, 5.02, 9.0]);
//! let spec = SimSpec::new(0.1).lsh(Lsh::SimHash { bands: 8, rows: 2 });
//! let report = Sim::new(spec).dedup(&data).unwrap();
//! // 0/1 and 2/3 are near-duplicates; every emitted pair is exact-verified.
//! assert!(report.pairs.iter().all(|p| p.distance <= 0.1));
//! assert_eq!(report.representative[1], 0);
//! ```

use crate::envelope;
use crate::model::ModelError;
use crate::spec::{check_finite, Lsh, SpecError};
use crate::FittedModel;
use lshclust_categorical::{dissimilarity, Dataset, Schema, ValueId};
use lshclust_core::centroid_index::{CentroidIndex, CentroidRows, Salts};
use lshclust_core::mhkmeans::SimHashIndex;
use lshclust_core::parallel::{chunked_map, hash_band_keys_parallel};
use lshclust_core::sim::{
    brute_force_pairs, concat_band_keys, verified_pairs, CandidatePairs, PairData, VerifiedPairs,
};
use lshclust_kmodes::kmeans::{sq_euclidean, NumericDataset};
use lshclust_kmodes::kprototypes::{suggest_gamma, MixedDataset};
use lshclust_minhash::index::LshIndexBuilder;
use lshclust_minhash::Banding;
use serde;

/// Salts decorrelating the similarity workloads' hash families from the
/// fit-time item index and the other centroid indexes ("sim-mh" /
/// "sim-sh").
const SIM_SALTS: Salts = Salts {
    minhash: 0x7369_6d2d_6d68,
    simhash: 0x7369_6d2d_7368,
};

/// Specification of a similarity workload: the LSH scheme nominating
/// candidate pairs, the exact-distance threshold, and the execution knobs.
///
/// The threshold is a **maximum distance** in the modality's native kernel —
/// differing-attribute count (categorical), squared Euclidean (numeric), or
/// their γ-weighted sum (mixed) — the same quantities the fit paths
/// minimise.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpec {
    /// The LSH scheme hashing items into candidate buckets. [`Lsh::None`]
    /// is rejected for dedup/join (no candidate source) but selects the
    /// exact full-search mode for [`Sim::hierarchy`].
    pub lsh: Lsh,
    /// Maximum exact distance for a pair to be emitted.
    pub threshold: f64,
    /// Self-join output cap; `None` emits every verified pair.
    pub max_pairs: Option<usize>,
    /// Seed driving the hash families (salted away from the fit indexes).
    pub seed: u64,
    /// Verification fan-out; results are identical at any count.
    pub threads: usize,
    /// Mixing weight γ for mixed data; `None` uses Huang's heuristic.
    pub gamma: Option<f64>,
}

serde::impl_serde_struct!(SimSpec {
    lsh,
    threshold,
    max_pairs,
    seed,
    threads,
    gamma
});

impl SimSpec {
    /// A spec with the given distance threshold and the workspace defaults:
    /// MinHash 16×2, seed 0, one thread, no output cap.
    pub fn new(threshold: f64) -> Self {
        Self {
            lsh: Lsh::MinHash { bands: 16, rows: 2 },
            threshold,
            max_pairs: None,
            seed: 0,
            threads: 1,
            gamma: None,
        }
    }

    /// Sets the LSH scheme.
    pub fn lsh(mut self, lsh: Lsh) -> Self {
        self.lsh = lsh;
        self
    }

    /// Sets the seed driving the hash families.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the verification thread count (`0` clamps to serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Caps the number of join pairs emitted (closest first).
    pub fn max_pairs(mut self, cap: usize) -> Self {
        self.max_pairs = Some(cap);
        self
    }

    /// Sets the K-Prototypes mixing weight γ for mixed inputs.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = Some(gamma);
        self
    }
}

/// One emitted pair (`a < b`) with its exact distance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PairRecord {
    /// Lower item id.
    pub a: u32,
    /// Higher item id.
    pub b: u32,
    /// Exact distance in the modality's kernel.
    pub distance: f64,
}

serde::impl_serde_struct!(PairRecord { a, b, distance });

/// Near-duplicate detection result: the verified pairs plus the duplicate
/// grouping they induce.
#[derive(Clone, Debug, PartialEq)]
pub struct DedupReport {
    /// Items scanned.
    pub n_items: usize,
    /// The distance threshold pairs were verified against.
    pub threshold: f64,
    /// Distinct candidate pairs the buckets nominated (verified or not) —
    /// the work volume LSH left of the `n·(n−1)/2` brute-force pairs.
    pub candidate_pairs: usize,
    /// Exact-verified near-duplicate pairs, sorted by `(a, b)`.
    pub pairs: Vec<PairRecord>,
    /// Per item, the smallest item id in its duplicate component (itself
    /// when the item has no duplicates) — the canonical "keep this one"
    /// choice.
    pub representative: Vec<u32>,
    /// Items whose representative is another item (the droppable ones).
    pub n_duplicates: usize,
}

serde::impl_serde_struct!(DedupReport {
    n_items,
    threshold,
    candidate_pairs,
    pairs,
    representative,
    n_duplicates
});

/// Similarity self-join result: every verified pair at or under the
/// threshold, closest first, optionally capped.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinReport {
    /// Items scanned.
    pub n_items: usize,
    /// The distance threshold pairs were verified against.
    pub threshold: f64,
    /// Distinct candidate pairs the buckets nominated.
    pub candidate_pairs: usize,
    /// Verified pairs before the cap was applied.
    pub matched: usize,
    /// Whether `max_pairs` truncated the output.
    pub capped: bool,
    /// Emitted pairs, sorted by `(distance, a, b)` — the deterministic
    /// tie-order that makes the cap reproducible.
    pub pairs: Vec<PairRecord>,
}

serde::impl_serde_struct!(JoinReport {
    n_items,
    threshold,
    candidate_pairs,
    matched,
    capped,
    pairs
});

/// One agglomerative merge: nodes `a` and `b` (leaf centroids are nodes
/// `0..k`; merge `i` creates node `k + i`) joined at centroid distance
/// `height`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Merge {
    /// Lower merged node id.
    pub a: u32,
    /// Higher merged node id.
    pub b: u32,
    /// Exact centroid distance at the merge (the modality's kernel).
    pub height: f64,
}

serde::impl_serde_struct!(Merge { a, b, height });

/// A centroid-linkage dendrogram over a fitted model's `k` centroids:
/// `k − 1` merges in order, scipy-style node numbering (leaves `0..k`,
/// merge `i` creates node `k + i`).
///
/// Serializes as JSON (`serde_json`) and as a v2-style binary envelope
/// ([`Dendrogram::to_bytes`] / [`Dendrogram::from_bytes`], same sectioned
/// container as the model artifacts).
#[derive(Clone, Debug, PartialEq)]
pub struct Dendrogram {
    /// Leaf count (the model's `k`).
    pub k: usize,
    /// The `k − 1` merges in execution order. Heights are centroid
    /// distances and may invert (centroid linkage is not monotone).
    pub merges: Vec<Merge>,
    /// Merge steps where the LSH shortlist nominated no pair at all and the
    /// engine fell back to the exact full pair search (always `0` under
    /// [`Lsh::None`], which is full search throughout).
    pub fallback_steps: usize,
}

serde::impl_serde_struct!(Dendrogram {
    k,
    merges,
    fallback_steps
});

impl Dendrogram {
    /// Renders the dendrogram into the sectioned binary envelope (same
    /// container as the v2 model artifacts: magic, section table, payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(24 + self.merges.len() * 16);
        envelope::put_u64(&mut payload, self.k as u64);
        envelope::put_u64(&mut payload, self.merges.len() as u64);
        envelope::put_u64(&mut payload, self.fallback_steps as u64);
        for m in &self.merges {
            envelope::put_u32(&mut payload, m.a);
            envelope::put_u32(&mut payload, m.b);
            envelope::put_f64(&mut payload, m.height);
        }
        let mut w = envelope::Writer::new();
        w.push(envelope::SEC_DENDRO, payload);
        w.finish()
    }

    /// Parses a [`Dendrogram::to_bytes`] artifact, validating the frame and
    /// every length before any payload byte is trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelError> {
        let sections = envelope::Sections::parse(bytes)?;
        let payload = sections.require(envelope::SEC_DENDRO)?;
        if payload.len() < 24 {
            return Err(envelope::corrupt(
                "dendrogram section is shorter than its header",
            ));
        }
        let k = envelope::read_u64(payload, 0);
        let n_merges = envelope::read_u64(payload, 8);
        let fallback_steps = envelope::read_u64(payload, 16);
        let expected = n_merges.checked_mul(16).and_then(|p| p.checked_add(24));
        if expected != Some(payload.len() as u64) {
            return Err(envelope::corrupt(format!(
                "dendrogram section length {} disagrees with its {n_merges}-merge header",
                payload.len()
            )));
        }
        let mut merges = Vec::with_capacity(n_merges as usize);
        for i in 0..n_merges as usize {
            let at = 24 + i * 16;
            let a = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
            let b = u32::from_le_bytes(payload[at + 4..at + 8].try_into().expect("4 bytes"));
            let height = f64::from_le_bytes(payload[at + 8..at + 16].try_into().expect("8 bytes"));
            merges.push(Merge { a, b, height });
        }
        Ok(Self {
            k: k as usize,
            merges,
            fallback_steps: fallback_steps as usize,
        })
    }
}

/// An input modality the similarity engines can hash and verify: the
/// categorical [`Dataset`] (the *same* encoded dataset a fit used), the
/// numeric [`NumericDataset`], or a [`MixedDataset`].
pub trait SimInput {
    /// Modality name for error messages.
    fn modality(&self) -> &'static str;
    /// Items in the input.
    fn n_items(&self) -> usize;
    /// Hashes every item into the bucket-collision candidate view, or
    /// explains why the spec's scheme does not fit this modality.
    fn candidates(&self, spec: &SimSpec) -> Result<CandidatePairs, SpecError>;
    /// The exact verification kernel for this input.
    fn pair_data(&self, spec: &SimSpec) -> PairData<'_>;
}

fn unsupported(modality: &'static str, lsh: Lsh) -> SpecError {
    SpecError::UnsupportedLsh {
        modality,
        lsh: lsh.name(),
    }
}

impl SimInput for Dataset {
    fn modality(&self) -> &'static str {
        "categorical"
    }

    fn n_items(&self) -> usize {
        self.n_items()
    }

    fn candidates(&self, spec: &SimSpec) -> Result<CandidatePairs, SpecError> {
        match spec.lsh {
            Lsh::MinHash { bands, rows } => {
                let builder = LshIndexBuilder::new(Banding::new(bands, rows))
                    .seed(spec.seed ^ SIM_SALTS.minhash);
                let keys = hash_band_keys_parallel(&builder, self, spec.threads.max(1));
                Ok(CandidatePairs::from_band_keys(bands, keys))
            }
            other => Err(unsupported("categorical", other)),
        }
    }

    fn pair_data(&self, _spec: &SimSpec) -> PairData<'_> {
        PairData::Categorical(self)
    }
}

impl SimInput for NumericDataset {
    fn modality(&self) -> &'static str {
        "numeric"
    }

    fn n_items(&self) -> usize {
        self.n_items()
    }

    fn candidates(&self, spec: &SimSpec) -> Result<CandidatePairs, SpecError> {
        match spec.lsh {
            Lsh::SimHash { bands, rows } => {
                let family = SimHashIndex::new(self, bands, rows, spec.seed ^ SIM_SALTS.simhash);
                let keys = family.band_keys(self, spec.threads.max(1));
                Ok(CandidatePairs::from_band_keys(bands, keys))
            }
            other => Err(unsupported("numeric", other)),
        }
    }

    fn pair_data(&self, _spec: &SimSpec) -> PairData<'_> {
        PairData::Numeric(self)
    }
}

impl SimInput for MixedDataset<'_> {
    fn modality(&self) -> &'static str {
        "mixed"
    }

    fn n_items(&self) -> usize {
        self.n_items()
    }

    fn candidates(&self, spec: &SimSpec) -> Result<CandidatePairs, SpecError> {
        match spec.lsh {
            Lsh::Union {
                bands,
                rows,
                sim_bands,
                sim_rows,
            } => {
                let threads = spec.threads.max(1);
                let builder = LshIndexBuilder::new(Banding::new(bands, rows))
                    .seed(spec.seed ^ SIM_SALTS.minhash);
                let cat_keys = hash_band_keys_parallel(&builder, self.categorical, threads);
                let family = SimHashIndex::new(
                    self.numeric,
                    sim_bands,
                    sim_rows,
                    spec.seed ^ SIM_SALTS.simhash,
                );
                let num_keys = family.band_keys(self.numeric, threads);
                let keys = concat_band_keys(self.n_items(), bands, &cat_keys, sim_bands, &num_keys);
                Ok(CandidatePairs::from_band_keys(bands + sim_bands, keys))
            }
            other => Err(unsupported("mixed", other)),
        }
    }

    fn pair_data(&self, spec: &SimSpec) -> PairData<'_> {
        PairData::Mixed {
            data: self,
            gamma: spec.gamma.unwrap_or_else(|| suggest_gamma(self.numeric)),
        }
    }
}

/// The similarity-workloads runner — [`crate::Clusterer`]'s sibling: one
/// [`SimSpec`], three engines ([`Sim::dedup`], [`Sim::join`],
/// [`Sim::hierarchy`]).
pub struct Sim {
    spec: SimSpec,
}

impl Sim {
    /// Wraps a spec.
    pub fn new(spec: SimSpec) -> Self {
        Self { spec }
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &SimSpec {
        &self.spec
    }

    /// The exact-verified candidate pairs of `data`, after one validation
    /// step: a threshold no distance can meet (NaN, or below 0; `+∞` stays
    /// valid and verifies every candidate), a hash family with zero bands
    /// or rows, and a NaN or infinite numeric cell (whose pairs could never
    /// verify) are typed errors.
    fn verified<D: SimInput + ?Sized>(&self, data: &D) -> Result<VerifiedPairs, SpecError> {
        let threshold = self.spec.threshold;
        if threshold.is_nan() || threshold < 0.0 {
            return Err(SpecError::InvalidThreshold {
                threshold: threshold.to_string(),
            });
        }
        self.spec.lsh.check_banding()?;
        let kernel = data.pair_data(&self.spec);
        match kernel {
            PairData::Numeric(points) => check_finite(points)?,
            PairData::Mixed { data, .. } => check_finite(data.numeric)?,
            PairData::Categorical(_) => {}
        }
        let candidates = data.candidates(&self.spec)?;
        Ok(verified_pairs(
            &candidates,
            &kernel,
            threshold,
            self.spec.threads.max(1),
        ))
    }

    /// Near-duplicate detection: every bucket-collision candidate pair is
    /// exact-verified against the threshold; surviving pairs are grouped
    /// into duplicate components (union over pairs) with the smallest item
    /// id as each component's representative. A NaN or negative threshold
    /// is [`SpecError::InvalidThreshold`]; an empty hash family and a
    /// non-finite numeric cell are typed errors too.
    pub fn dedup<D: SimInput + ?Sized>(&self, data: &D) -> Result<DedupReport, SpecError> {
        let out = self.verified(data)?;
        let n = data.n_items();
        let mut representative: Vec<u32> = (0..n as u32).collect();
        // Union-find with the smallest id as every root: linking the larger
        // root under the smaller keeps `find(x) <= x`, so one ascending
        // compression pass afterwards settles every chain.
        fn find(repr: &mut [u32], mut x: u32) -> u32 {
            while repr[x as usize] != x {
                let parent = repr[x as usize];
                repr[x as usize] = repr[parent as usize];
                x = repr[x as usize];
            }
            x
        }
        for p in &out.pairs {
            let ra = find(&mut representative, p.a);
            let rb = find(&mut representative, p.b);
            if ra != rb {
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                representative[hi as usize] = lo;
            }
        }
        for x in 0..n as u32 {
            let root = find(&mut representative, x);
            representative[x as usize] = root;
        }
        let n_duplicates = representative
            .iter()
            .enumerate()
            .filter(|&(i, &r)| r != i as u32)
            .count();
        Ok(DedupReport {
            n_items: n,
            threshold: self.spec.threshold,
            candidate_pairs: out.candidate_pairs,
            pairs: out
                .pairs
                .into_iter()
                .map(|p| PairRecord {
                    a: p.a,
                    b: p.b,
                    distance: p.distance,
                })
                .collect(),
            representative,
            n_duplicates,
        })
    }

    /// Similarity self-join: every exact-verified pair at or under the
    /// threshold, sorted closest-first with `(a, b)` as the deterministic
    /// tie-break, truncated to `max_pairs` when set. A NaN or negative
    /// threshold is [`SpecError::InvalidThreshold`]; an empty hash family
    /// and a non-finite numeric cell are typed errors too.
    pub fn join<D: SimInput + ?Sized>(&self, data: &D) -> Result<JoinReport, SpecError> {
        let out = self.verified(data)?;
        let matched = out.pairs.len();
        let mut pairs: Vec<PairRecord> = out
            .pairs
            .into_iter()
            .map(|p| PairRecord {
                a: p.a,
                b: p.b,
                distance: p.distance,
            })
            .collect();
        pairs.sort_unstable_by(|x, y| {
            x.distance
                .total_cmp(&y.distance)
                .then(x.a.cmp(&y.a))
                .then(x.b.cmp(&y.b))
        });
        let capped = self.spec.max_pairs.is_some_and(|cap| pairs.len() > cap);
        if let Some(cap) = self.spec.max_pairs {
            pairs.truncate(cap);
        }
        Ok(JoinReport {
            n_items: data.n_items(),
            threshold: self.spec.threshold,
            candidate_pairs: out.candidate_pairs,
            matched,
            capped,
            pairs,
        })
    }

    /// Exact self-join over all pairs — the ground truth [`Sim::join`]'s
    /// recall is measured against. Uses the same threshold, cap and
    /// tie-order; ignores the spec's LSH scheme.
    pub fn join_exact<D: SimInput + ?Sized>(&self, data: &D) -> JoinReport {
        let kernel = data.pair_data(&self.spec);
        let exact = brute_force_pairs(&kernel, self.spec.threshold);
        let matched = exact.len();
        let mut pairs: Vec<PairRecord> = exact
            .into_iter()
            .map(|p| PairRecord {
                a: p.a,
                b: p.b,
                distance: p.distance,
            })
            .collect();
        pairs.sort_unstable_by(|x, y| {
            x.distance
                .total_cmp(&y.distance)
                .then(x.a.cmp(&y.a))
                .then(x.b.cmp(&y.b))
        });
        let capped = self.spec.max_pairs.is_some_and(|cap| pairs.len() > cap);
        if let Some(cap) = self.spec.max_pairs {
            pairs.truncate(cap);
        }
        let n = data.n_items();
        JoinReport {
            n_items: n,
            threshold: self.spec.threshold,
            candidate_pairs: n * n.saturating_sub(1) / 2,
            matched,
            capped,
            pairs,
        }
    }

    /// Centroid-linkage agglomerative clustering over a fitted model's `k`
    /// centroids: repeatedly merge the closest pair of active clusters,
    /// recording a deterministic dendrogram.
    ///
    /// Under an LSH scheme the closest-pair search is **shortlisted**: each
    /// step hashes the active representatives through a [`CentroidIndex`]
    /// into the candidate core and only bucket-colliding pairs are scored;
    /// when a step's shortlist nominates no pair at all, the engine falls
    /// back to the exact full pair search (counted in
    /// [`Dendrogram::fallback_steps`]).
    /// [`Lsh::None`] selects the exact full search throughout.
    ///
    /// Merged representatives: numeric parts take the weighted mean of the
    /// merged clusters (weight = leaves absorbed); categorical parts take
    /// each attribute from the heavier side (ties to the lower node id).
    /// Every per-step nearest search fans over `spec.threads` with pure
    /// per-node decisions, so the dendrogram is **byte-identical at any
    /// thread count**.
    pub fn hierarchy(&self, model: &FittedModel) -> Result<Dendrogram, SpecError> {
        self.spec.lsh.check_banding()?;
        let threads = self.spec.threads.max(1);
        let k = model.k();
        match (model.modality(), self.spec.lsh) {
            (_, Lsh::None)
            | ("categorical", Lsh::MinHash { .. })
            | ("numeric", Lsh::SimHash { .. })
            | ("mixed", Lsh::Union { .. }) => {}
            (modality, other) => {
                return Err(SpecError::UnsupportedLsh {
                    modality,
                    lsh: other.name(),
                })
            }
        }
        let mut active = ActiveNodes::leaves_of(model, &self.spec);
        let mut merges = Vec::with_capacity(k.saturating_sub(1));
        let mut fallback_steps = 0usize;
        let mut next_id = k as u32;
        while active.len() > 1 {
            let shortlisted = match self.spec.lsh {
                Lsh::None => None,
                _ => closest_shortlisted(&active, &self.spec, threads),
            };
            let (pa, pb, height) = match shortlisted {
                Some(best) => best,
                None => {
                    if !matches!(self.spec.lsh, Lsh::None) {
                        fallback_steps += 1;
                    }
                    closest_full(&active, threads)
                }
            };
            merges.push(Merge {
                a: active.ids[pa],
                b: active.ids[pb],
                height,
            });
            active.merge(pa, pb, next_id);
            next_id += 1;
        }
        Ok(Dendrogram {
            k,
            merges,
            fallback_steps,
        })
    }
}

// --- hierarchy internals ----------------------------------------------------

/// The representative buffers of the active clusters. Nodes are kept in
/// ascending node-id order throughout (merges remove two nodes and append a
/// fresh, higher id), so positions and ids sort identically and every
/// tie-break on position is a tie-break on id.
struct ActiveNodes<'m> {
    ids: Vec<u32>,
    /// Leaves absorbed per active node (merge weights).
    weights: Vec<u64>,
    /// The mode part: `n_active × n_attrs` rows under the model's schema.
    modes: Option<(&'m Schema, Vec<ValueId>)>,
    /// The mean part: `(dim, n_active × dim rows)`.
    means: Option<(usize, Vec<f64>)>,
    /// Weight of the mean part in the distance: γ for mixed models, 1 for
    /// numeric ones.
    gamma: f64,
}

impl<'m> ActiveNodes<'m> {
    /// One node per centroid of `model`.
    fn leaves_of(model: &'m FittedModel, spec: &SimSpec) -> Self {
        let rows = model.centroid_rows();
        Self {
            ids: (0..rows.k as u32).collect(),
            weights: vec![1; rows.k],
            modes: rows.modes.map(|(schema, values)| (schema, values.to_vec())),
            means: rows.means.map(|(dim, values)| (dim, values.to_vec())),
            gamma: model.gamma().map_or(1.0, |g| spec.gamma.unwrap_or(g)),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Exact centroid distance between active positions `a` and `b`: the
    /// fit kernels' matching dissimilarity plus γ × squared Euclidean.
    fn distance(&self, a: usize, b: usize) -> f64 {
        let cat = self.modes.as_ref().map_or(0.0, |(schema, rows)| {
            let w = schema.n_attrs();
            let (x, y) = (&rows[a * w..(a + 1) * w], &rows[b * w..(b + 1) * w]);
            f64::from(dissimilarity::matching(x, y))
        });
        let num = self.means.as_ref().map_or(0.0, |(w, rows)| {
            sq_euclidean(&rows[a * w..(a + 1) * w], &rows[b * w..(b + 1) * w])
        });
        cat + self.gamma * num
    }

    /// Merges positions `a < b` into a fresh node `new_id`: numeric parts
    /// take the weighted mean, categorical attributes come from the heavier
    /// side (ties to `a`, the lower node id). The merged node is appended,
    /// preserving ascending-id order.
    fn merge(&mut self, a: usize, b: usize, new_id: u32) {
        assert!(a < b, "merge positions must be ordered");
        let (wa, wb) = (self.weights[a], self.weights[b]);
        let take_a = wa >= wb; // tie → lower node id
        let total = wa + wb;
        if let Some((schema, rows)) = &mut self.modes {
            merge_rows(
                rows,
                schema.n_attrs(),
                a,
                b,
                |x, y| if take_a { x } else { y },
            );
        }
        if let Some((dim, rows)) = &mut self.means {
            merge_rows(rows, *dim, a, b, |x, y| {
                (wa as f64 * x + wb as f64 * y) / total as f64
            });
        }
        self.ids.remove(b);
        self.ids.remove(a);
        self.ids.push(new_id);
        self.weights.remove(b);
        self.weights.remove(a);
        self.weights.push(total);
    }

    /// Hashes the active representatives through a centroid index with the
    /// spec's scheme and buckets every node's band keys (the hierarchy's
    /// per-step shortlist source).
    fn candidates(&self, spec: &SimSpec) -> CandidatePairs {
        let rows = CentroidRows {
            k: self.len(),
            modes: self
                .modes
                .as_ref()
                .map(|(schema, rows)| (*schema, &rows[..])),
            means: self.means.as_ref().map(|(dim, rows)| (*dim, &rows[..])),
        };
        let scheme = spec
            .lsh
            .index_scheme(rows.modes.is_some(), rows.means.is_some());
        let (bands, keys) = CentroidIndex::build(scheme, spec.seed, SIM_SALTS, rows).band_keys();
        CandidatePairs::from_band_keys(bands, keys)
    }
}

/// Replaces node-major rows `a < b` of width `w` in a flat buffer with one
/// merged row (cell by cell through `merged`) appended at the end,
/// preserving the order of the rest.
fn merge_rows<T: Copy>(
    rows: &mut Vec<T>,
    w: usize,
    a: usize,
    b: usize,
    merged: impl Fn(T, T) -> T,
) {
    let row: Vec<T> = (0..w)
        .map(|i| merged(rows[a * w + i], rows[b * w + i]))
        .collect();
    rows.drain(b * w..(b + 1) * w);
    rows.drain(a * w..(a + 1) * w);
    rows.extend_from_slice(&row);
}

/// The closest bucket-colliding active pair `(pos_a, pos_b, distance)`, or
/// `None` when no pair collides at all. Per-node searches fan over
/// `threads`; the serial reduce breaks ties toward the lowest positions
/// (equivalently: lowest node ids).
fn closest_shortlisted(
    active: &ActiveNodes<'_>,
    spec: &SimSpec,
    threads: usize,
) -> Option<(usize, usize, f64)> {
    let candidates = active.candidates(spec);
    let per_node: Vec<Option<(f64, u32, u32)>> = chunked_map(
        active.len(),
        threads,
        || candidates.make_scratch(),
        |node, scratch| {
            let mut best: Option<(f64, u32, u32)> = None;
            candidates.for_each_candidate_below(node, scratch, |other| {
                let d = active.distance(other as usize, node as usize);
                let better = match best {
                    None => true,
                    Some((bd, ba, _)) => d < bd || (d == bd && other < ba),
                };
                if better {
                    best = Some((d, other, node));
                }
            });
            best
        },
    );
    let mut global: Option<(f64, u32, u32)> = None;
    for candidate in per_node.into_iter().flatten() {
        let better = match global {
            None => true,
            Some((bd, ba, bb)) => {
                candidate.0 < bd || (candidate.0 == bd && (candidate.1, candidate.2) < (ba, bb))
            }
        };
        if better {
            global = Some(candidate);
        }
    }
    global.map(|(d, a, b)| (a as usize, b as usize, d))
}

/// The exact closest active pair, ties toward the lowest positions. Fans
/// per-node scans over `threads` with the same pure-decision argument as the
/// shortlisted search.
fn closest_full(active: &ActiveNodes<'_>, threads: usize) -> (usize, usize, f64) {
    let per_node: Vec<Option<(f64, u32, u32)>> = chunked_map(
        active.len(),
        threads,
        || (),
        |node, _| {
            let mut best: Option<(f64, u32, u32)> = None;
            for other in 0..node {
                let d = active.distance(other as usize, node as usize);
                let better = match best {
                    None => true,
                    Some((bd, ba, _)) => d < bd || (d == bd && other < ba),
                };
                if better {
                    best = Some((d, other, node));
                }
            }
            best
        },
    );
    let mut global: Option<(f64, u32, u32)> = None;
    for candidate in per_node.into_iter().flatten() {
        let better = match global {
            None => true,
            Some((bd, ba, bb)) => {
                candidate.0 < bd || (candidate.0 == bd && (candidate.1, candidate.2) < (ba, bb))
            }
        };
        if better {
            global = Some(candidate);
        }
    }
    let (d, a, b) = global.expect("at least two active nodes");
    (a as usize, b as usize, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, Clusterer, DatasetBuilder};

    fn dup_dataset() -> Dataset {
        let mut b = DatasetBuilder::anonymous(4);
        for row in [
            ["a", "b", "c", "d"],
            ["a", "b", "c", "d"], // dup of 0
            ["a", "b", "c", "e"], // near-dup of 0/1
            ["w", "x", "y", "z"],
            ["w", "x", "y", "z"], // dup of 3
            ["p", "q", "r", "s"],
        ] {
            b.push_str_row(&row, None).unwrap();
        }
        b.finish()
    }

    #[test]
    fn dedup_groups_duplicates_under_the_smallest_id() {
        let ds = dup_dataset();
        let spec = SimSpec::new(1.0).lsh(Lsh::MinHash { bands: 24, rows: 1 });
        let report = Sim::new(spec).dedup(&ds).unwrap();
        assert_eq!(report.representative[0], 0);
        assert_eq!(report.representative[1], 0);
        assert_eq!(report.representative[2], 0);
        assert_eq!(report.representative[3], 3);
        assert_eq!(report.representative[4], 3);
        assert_eq!(report.representative[5], 5);
        assert_eq!(report.n_duplicates, 3);
        // Precision 1.0: every emitted pair is exact-verified.
        for p in &report.pairs {
            assert!(p.distance <= 1.0);
        }
    }

    #[test]
    fn join_cap_is_deterministic_and_flagged() {
        let ds = dup_dataset();
        let spec = SimSpec::new(1.0)
            .lsh(Lsh::MinHash { bands: 24, rows: 1 })
            .max_pairs(2);
        let report = Sim::new(spec.clone()).join(&ds).unwrap();
        assert_eq!(report.pairs.len(), 2);
        assert!(report.capped);
        assert!(report.matched >= 2);
        // Closest-first with (a, b) tie-break: the two exact duplicates.
        assert_eq!((report.pairs[0].a, report.pairs[0].b), (0, 1));
        assert_eq!((report.pairs[1].a, report.pairs[1].b), (3, 4));
        let again = Sim::new(spec).join(&ds).unwrap();
        assert_eq!(again, report);
    }

    #[test]
    fn lsh_none_is_rejected_for_dedup_and_join() {
        let ds = dup_dataset();
        let spec = SimSpec::new(1.0).lsh(Lsh::None);
        assert!(matches!(
            Sim::new(spec.clone()).dedup(&ds),
            Err(SpecError::UnsupportedLsh { .. })
        ));
        assert!(matches!(
            Sim::new(spec).join(&ds),
            Err(SpecError::UnsupportedLsh { .. })
        ));
    }

    #[test]
    fn wrong_scheme_for_modality_is_rejected() {
        let num = NumericDataset::new(1, vec![0.0, 1.0]);
        let spec = SimSpec::new(1.0).lsh(Lsh::MinHash { bands: 8, rows: 2 });
        assert!(matches!(
            Sim::new(spec).dedup(&num),
            Err(SpecError::UnsupportedLsh {
                modality: "numeric",
                ..
            })
        ));
    }

    #[test]
    fn hierarchy_merges_numeric_centroids_bottom_up() {
        // Three well-separated blobs; fit k=3, then merge down.
        let data = NumericDataset::new(1, vec![0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 20.0, 20.1, 20.2]);
        let run = Clusterer::new(
            ClusterSpec::new(3)
                .lsh(Lsh::SimHash { bands: 8, rows: 2 })
                .seed(3),
        )
        .fit(&data)
        .unwrap();
        let dendro = Sim::new(SimSpec::new(0.0).lsh(Lsh::None))
            .hierarchy(&run.model)
            .unwrap();
        assert_eq!(dendro.k, 3);
        assert_eq!(dendro.merges.len(), 2);
        assert_eq!(dendro.fallback_steps, 0);
        // First merge joins the two nearby blobs (0-ish and 5-ish); the far
        // blob joins last at a larger height.
        assert!(dendro.merges[0].height < dendro.merges[1].height);
        // Node numbering: the second merge involves the first merge's
        // product (node k + 0 = 3).
        assert_eq!(dendro.merges[1].b, 3);
    }

    #[test]
    fn dendrogram_round_trips_through_bytes_and_json() {
        let dendro = Dendrogram {
            k: 3,
            merges: vec![
                Merge {
                    a: 0,
                    b: 2,
                    height: 0.25,
                },
                Merge {
                    a: 1,
                    b: 3,
                    height: 4.5,
                },
            ],
            fallback_steps: 1,
        };
        let back = Dendrogram::from_bytes(&dendro.to_bytes()).unwrap();
        assert_eq!(back, dendro);
        let json = serde_json::to_string(&dendro).unwrap();
        let back: Dendrogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dendro);
    }

    #[test]
    fn truncated_dendrogram_bytes_are_typed_errors() {
        let bytes = Dendrogram {
            k: 2,
            merges: vec![Merge {
                a: 0,
                b: 1,
                height: 1.0,
            }],
            fallback_steps: 0,
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Dendrogram::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn sim_spec_round_trips_through_json() {
        let spec = SimSpec::new(2.5)
            .lsh(Lsh::Union {
                bands: 12,
                rows: 2,
                sim_bands: 6,
                sim_rows: 8,
            })
            .seed(99)
            .threads(4)
            .max_pairs(1000)
            .gamma(0.5);
        let json = serde_json::to_string(&spec).unwrap();
        let back: SimSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
