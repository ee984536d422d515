//! One LSH index **over the centroids**, shared by every centroid-side
//! shortlist in the workspace: serving (`lshclust::FittedModel`),
//! shortlisted mini-batch fitting ([`crate::minibatch`]) and the
//! centroid-linkage hierarchy (`lshclust::Sim::hierarchy`).
//!
//! The paper's fit-time index hashes the *items* and maps colliding items to
//! their clusters. A centroid index hashes the `k` centroids themselves
//! (centroid `c` is indexed as item `c` of cluster `c`), so a query hashed
//! with the same family collides directly with candidate clusters. One index
//! carries up to two families, chosen by its [`IndexScheme`]: MinHash banding
//! over the mode part (categorical and mixed centroids) and SimHash banding
//! over the mean part (numeric and mixed centroids). A query's shortlist
//! lists the MinHash candidates first, then the SimHash candidates not yet
//! present. An **empty** shortlist means the query collided with no
//! centroid; every caller then searches all `k` clusters, so assignment
//! through the index is total.
//!
//! Each caller seeds its families with its own [`Salts`], keeping them
//! independent of the fit-time item index and of the other callers'
//! indexes. The index's stored form is each family's item-major band-key
//! buffer plus the SimHash centring mean: [`CentroidIndex::from_band_keys`]
//! refills the buckets from it without re-hashing a centroid, which is what
//! makes a v2 model envelope load fast at large `k`.

use crate::mhkmeans::{SimHashIndex, VectorQueryScratch};
use crate::sim::concat_band_keys;
use lshclust_categorical::{ClusterId, PresentElements, Schema, ValueId};
use lshclust_kmodes::kmeans::NumericDataset;
use lshclust_minhash::hashfn::{FastSet, MixHashFamily};
use lshclust_minhash::index::{LshIndex, LshIndexBuilder, ShortlistScratch};
use lshclust_minhash::signature::SignatureGenerator;
use lshclust_minhash::Banding;

/// Which hash families a [`CentroidIndex`] applies. A family is used only
/// where the centroids have its part: MinHash needs modes, SimHash means.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexScheme {
    /// MinHash banding over the mode part.
    pub minhash: Option<Banding>,
    /// SimHash `(bands, bits per band)` over the mean part.
    pub simhash: Option<(u32, u32)>,
}

impl IndexScheme {
    /// Whether the scheme applies no family (no index: full search).
    pub fn is_none(&self) -> bool {
        self.minhash.is_none() && self.simhash.is_none()
    }
}

/// A caller's seed salts, one per family: the index hashes with
/// `seed ^ salts.minhash` and `seed ^ salts.simhash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Salts {
    /// XORed into the seed of the MinHash family.
    pub minhash: u64,
    /// XORed into the seed of the SimHash family.
    pub simhash: u64,
}

/// The centroids an index is built over, as flat node-major buffers.
#[derive(Clone, Copy, Debug)]
pub struct CentroidRows<'a> {
    /// Number of centroids.
    pub k: usize,
    /// The mode part: `k × schema.n_attrs()` value ids under `schema`.
    pub modes: Option<(&'a Schema, &'a [ValueId])>,
    /// The mean part: `(dim, k × dim coordinates)`.
    pub means: Option<(usize, &'a [f64])>,
}

/// The categorical side of a query.
#[derive(Clone, Copy, Debug)]
pub enum ModeQuery<'q> {
    /// A row MinHashed at query time under its schema.
    Row(&'q Schema, &'q [ValueId]),
    /// The row's band keys, hashed beforehand with this index's MinHash
    /// family (banding and salted seed).
    Keys(&'q [u64]),
}

/// An LSH index over `k` centroids: MinHash over the modes, SimHash over the
/// means, or both. See the [module docs](self).
#[derive(Clone)]
pub struct CentroidIndex {
    k: usize,
    minhash: Option<MinHashPart>,
    simhash: Option<SimHashIndex>,
}

#[derive(Clone)]
struct MinHashPart {
    /// Hashes query rows with the family the buckets were filled with.
    generator: SignatureGenerator<MixHashFamily>,
    index: LshIndex,
}

impl MinHashPart {
    fn new(seed: u64, index: LshIndex) -> Self {
        let family = MixHashFamily::new(index.banding().signature_len(), seed);
        Self {
            generator: SignatureGenerator::new(family),
            index,
        }
    }
}

fn identity(k: usize) -> Vec<ClusterId> {
    (0..k as u32).map(ClusterId).collect()
}

impl CentroidIndex {
    /// Hashes every centroid with each family of `scheme` that has a part
    /// in `rows`, and buckets the band keys.
    pub fn build(scheme: IndexScheme, seed: u64, salts: Salts, rows: CentroidRows<'_>) -> Self {
        let k = rows.k;
        let minhash = scheme
            .minhash
            .zip(rows.modes)
            .map(|(banding, (schema, values))| {
                let width = schema.n_attrs();
                let seed = seed ^ salts.minhash;
                let index = LshIndexBuilder::new(banding).seed(seed).build_centroids(
                    schema,
                    (0..k).map(|c| &values[c * width..(c + 1) * width]),
                    k,
                );
                MinHashPart::new(seed, index)
            });
        let simhash = scheme
            .simhash
            .zip(rows.means)
            .map(|((bands, bits), (dim, means))| {
                SimHashIndex::build(
                    &NumericDataset::new(dim, means.to_vec()),
                    bands,
                    bits,
                    seed ^ salts.simhash,
                    &identity(k),
                )
            });
        Self {
            k,
            minhash,
            simhash,
        }
    }

    /// Refills the buckets from a stored form — each family's item-major
    /// `k × bands` band keys, and the SimHash centring mean — without
    /// re-hashing a centroid. The query-side hash families regenerate from
    /// `seed` and `salts`, so the result answers every query exactly as the
    /// index the keys came from. A family is built only where `scheme`
    /// names it and its keys are given.
    pub fn from_band_keys(
        scheme: IndexScheme,
        seed: u64,
        salts: Salts,
        k: usize,
        minhash_keys: Option<Vec<u64>>,
        simhash_keys: Option<(Vec<u64>, Vec<f64>)>,
    ) -> Self {
        let minhash = scheme.minhash.zip(minhash_keys).map(|(banding, keys)| {
            let seed = seed ^ salts.minhash;
            let index = LshIndexBuilder::new(banding)
                .seed(seed)
                .build_from_band_keys(keys, &identity(k));
            MinHashPart::new(seed, index)
        });
        let simhash = scheme
            .simhash
            .zip(simhash_keys)
            .map(|((bands, bits), (keys, mean))| {
                SimHashIndex::from_band_keys(
                    mean.len(),
                    bands,
                    bits,
                    seed ^ salts.simhash,
                    mean,
                    keys,
                    &identity(k),
                )
            });
        Self {
            k,
            minhash,
            simhash,
        }
    }

    /// The MinHash family's stored band keys (`k × bands`, item-major).
    pub fn minhash_keys(&self) -> Option<&[u64]> {
        self.minhash.as_ref().map(|part| part.index.band_keys())
    }

    /// The SimHash family's stored band keys and centring mean.
    pub fn simhash_keys(&self) -> Option<(&[u64], &[f64])> {
        self.simhash.as_ref().map(|ix| (ix.band_keys(), ix.mean()))
    }

    /// Every centroid's band keys across both families, item-major, MinHash
    /// bands first: `(bands per centroid, keys)` — the buffer
    /// [`crate::sim::CandidatePairs`] buckets into centroid pairs.
    pub fn band_keys(&self) -> (u32, Vec<u64>) {
        let minhash = self.minhash_keys().unwrap_or_default();
        let simhash = self.simhash_keys().map_or(&[][..], |(keys, _)| keys);
        let width = |keys: &[u64]| (keys.len() / self.k.max(1)) as u32;
        let (a, b) = (width(minhash), width(simhash));
        (a + b, concat_band_keys(self.k, a, minhash, b, simhash))
    }

    /// One query scratch (one per thread when queries fan out). It serves
    /// any index over at most as many centroids as this one, so a caller
    /// may keep one scratch across indexes.
    pub fn scratch(&self) -> IndexScratch {
        IndexScratch::sized(self.k)
    }

    /// Writes the candidate clusters of a query into `scratch` and returns
    /// them: the MinHash candidates of `modes` first, then the SimHash
    /// candidates of `point` not yet present. A side the index has no
    /// family for (or the query leaves out) adds nothing. An **empty**
    /// result means the query collided with no centroid: score every
    /// cluster instead.
    pub fn shortlist<'s>(
        &self,
        modes: Option<ModeQuery<'_>>,
        point: Option<&[f64]>,
        scratch: &'s mut IndexScratch,
    ) -> &'s [ClusterId] {
        let IndexScratch {
            sig,
            keys,
            minhash,
            vector,
            simhash,
            seen,
        } = scratch;
        // The MinHash probe's own cluster buffer doubles as the union.
        match (&self.minhash, modes) {
            (Some(part), Some(query)) => {
                let query_keys: &[u64] = match query {
                    ModeQuery::Keys(given) => given,
                    ModeQuery::Row(schema, row) => {
                        part.generator
                            .signature_into(PresentElements::new(schema, row), sig);
                        part.index.banding().band_keys_into(sig, keys);
                        keys
                    }
                };
                part.index.shortlist_for_band_keys(query_keys, minhash);
            }
            _ => minhash.clusters.clear(),
        }
        let out = &mut minhash.clusters;
        if let (Some(index), Some(point)) = (&self.simhash, point) {
            index.shortlist_for_vector_with(point, vector, simhash, seen);
            // SimHash candidates are already distinct; only MinHash ones
            // can repeat them, so skip the linear scan when there are none.
            if out.is_empty() {
                out.extend_from_slice(simhash);
            } else {
                for &c in simhash.iter() {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }
}

/// Per-thread query scratch of a [`CentroidIndex`]: hashing buffers, the
/// MinHash probe's dedup stamps and the SimHash probe's dedup set. The
/// default value serves an index-free caller (it holds nothing).
pub struct IndexScratch {
    sig: Vec<u64>,
    keys: Vec<u64>,
    minhash: ShortlistScratch,
    vector: VectorQueryScratch,
    simhash: Vec<ClusterId>,
    seen: FastSet<u32>,
}

impl IndexScratch {
    fn sized(minhash_k: usize) -> Self {
        Self {
            sig: Vec::new(),
            keys: Vec::new(),
            minhash: ShortlistScratch::new(minhash_k, minhash_k),
            vector: VectorQueryScratch::default(),
            simhash: Vec::new(),
            seen: FastSet::default(),
        }
    }
}

impl Default for IndexScratch {
    fn default() -> Self {
        Self::sized(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;

    const SALTS: Salts = Salts {
        minhash: 1,
        simhash: 2,
    };

    #[test]
    fn union_lists_minhash_candidates_first_then_new_simhash_ones() {
        let mut b = DatasetBuilder::anonymous(4);
        for row in [
            ["a", "b", "c", "d"],
            ["a", "b", "c", "e"],
            ["w", "x", "y", "z"],
        ] {
            b.push_str_row(&row, None).unwrap();
        }
        let ds = b.finish();
        let modes: Vec<ValueId> = (0..3).flat_map(|i| ds.row(i).to_vec()).collect();
        let means = [0.0, 0.0, 0.1, 0.0, 9.0, 9.0];
        let scheme = IndexScheme {
            minhash: Some(Banding::new(16, 1)),
            simhash: Some((8, 1)),
        };
        let rows = CentroidRows {
            k: 3,
            modes: Some((ds.schema(), &modes)),
            means: Some((2, &means)),
        };
        let index = CentroidIndex::build(scheme, 7, SALTS, rows);
        let mut scratch = index.scratch();
        let cat_only = index
            .shortlist(
                Some(ModeQuery::Row(ds.schema(), ds.row(2))),
                None,
                &mut scratch,
            )
            .to_vec();
        let both = index
            .shortlist(
                Some(ModeQuery::Row(ds.schema(), ds.row(2))),
                Some(&[0.05, 0.0]),
                &mut scratch,
            )
            .to_vec();
        assert!(cat_only.contains(&ClusterId(2)));
        assert_eq!(both[..cat_only.len()], cat_only[..]);
        let mut sorted = both.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), both.len(), "no cluster listed twice");
    }

    #[test]
    fn stored_keys_rebuild_an_identical_index() {
        let means: Vec<f64> = (0..20).map(|i| f64::from(i % 7) * 1.5).collect();
        let scheme = IndexScheme {
            minhash: None,
            simhash: Some((4, 3)),
        };
        let rows = CentroidRows {
            k: 10,
            modes: None,
            means: Some((2, &means)),
        };
        let built = CentroidIndex::build(scheme, 3, SALTS, rows);
        let (keys, mean) = built.simhash_keys().unwrap();
        let loaded = CentroidIndex::from_band_keys(
            scheme,
            3,
            SALTS,
            10,
            None,
            Some((keys.to_vec(), mean.to_vec())),
        );
        assert_eq!(loaded.band_keys(), built.band_keys());
        let (mut s1, mut s2) = (built.scratch(), loaded.scratch());
        for c in 0..10 {
            let point = &means[c * 2..c * 2 + 2];
            assert_eq!(
                built.shortlist(None, Some(point), &mut s1),
                loaded.shortlist(None, Some(point), &mut s2)
            );
        }
    }
}
