//! Similarity workloads' shared candidate-generation core.
//!
//! The paper builds its LSH index once to shortlist candidate *clusters*
//! during assignment; the same flat band-key buffers answer a different
//! question for free: *which item pairs might be similar at all*. Two items
//! sharing at least one band bucket are a **candidate pair**; every other
//! pair is pruned without a single distance evaluation. [`CandidatePairs`]
//! packages that bucket-collision view behind one seam for both index
//! families — MinHash band keys ([`crate::parallel::hash_band_keys_parallel`])
//! and SimHash band keys ([`crate::mhkmeans::SimHashIndex::band_keys`])
//! are the *same* item-major `n × bands` buffer shape, so one bucket fill
//! serves categorical, numeric and mixed data alike.
//!
//! Candidates are *hints*, never answers: [`verified_pairs`] re-checks every
//! candidate with the modality's exact distance kernel ([`PairData`]) and
//! emits only pairs at or under the caller's threshold. Emitted pairs
//! therefore have **precision 1.0 by construction** — LSH can only lose
//! pairs (recall < 1), never invent them. The verification fans over
//! [`crate::parallel::chunked_map`]; each item's pair list depends only on
//! the frozen buckets, so output is byte-identical at any thread count.

use crate::parallel::chunked_map;
use lshclust_categorical::{dissimilarity, ClusterId, Dataset};
use lshclust_kmodes::kmeans::{sq_euclidean, NumericDataset};
use lshclust_kmodes::kprototypes::MixedDataset;
use lshclust_minhash::index::{ItemScratch, LshIndex, LshIndexBuilder};
use lshclust_minhash::Banding;

/// Bucket-collision candidate pairs over a flat item-major band-key buffer —
/// the public seam every similarity workload (dedup, self-join, streaming
/// variants) builds on, independent of which index family hashed the keys.
///
/// The buckets are the one LSH bucket store, [`LshIndex`], filled walking
/// items in ascending order, so each bucket's member list is ascending and
/// every derived iteration order is deterministic.
pub struct CandidatePairs {
    /// Only the buckets are read; every item references cluster 0.
    index: LshIndex,
}

impl CandidatePairs {
    /// Builds the bucket view from a flat item-major `n × bands` band-key
    /// buffer — exactly what the parallel hashers emit
    /// ([`crate::parallel::hash_band_keys_parallel`],
    /// [`crate::mhkmeans::SimHashIndex::band_keys`]).
    pub fn from_band_keys(bands: u32, band_keys: Vec<u64>) -> Self {
        assert!(bands > 0, "at least one band required");
        let n_items = band_keys.len() / bands as usize;
        // Rows per band do not enter the bucket fill.
        let index = LshIndexBuilder::new(Banding::new(bands, 1))
            .build_from_band_keys(band_keys, &vec![ClusterId(0); n_items]);
        Self { index }
    }

    /// Items covered by the bucket view.
    pub fn n_items(&self) -> usize {
        self.index.n_items()
    }

    /// A per-thread dedup scratch sized for this buffer.
    pub fn make_scratch(&self) -> ItemScratch {
        ItemScratch::new(self.n_items())
    }

    /// Calls `f` exactly once per distinct item `j < item` sharing at least
    /// one band bucket with `item`. Restricting to `j < item` makes every
    /// unordered pair the responsibility of exactly one item, so a parallel
    /// map over items partitions the pair set with no duplicates — the
    /// canonical emission order of the verification pass.
    pub fn for_each_candidate_below<F: FnMut(u32)>(
        &self,
        item: u32,
        scratch: &mut ItemScratch,
        mut f: F,
    ) {
        scratch.begin();
        let bands = self.index.banding().bands() as usize;
        let keys = &self.index.band_keys()[item as usize * bands..(item as usize + 1) * bands];
        for (band, &key) in keys.iter().enumerate() {
            for &other in self.index.bucket(band, key) {
                // Members are ascending, so everything at or past `item` in
                // this bucket is out of range.
                if other >= item {
                    break;
                }
                if scratch.mark(other) {
                    f(other);
                }
            }
        }
    }
}

/// Concatenates two item-major band-key buffers item by item — the mixed
/// modality's union view (MinHash bands over the categorical part followed
/// by SimHash bands over the numeric part), where a pair is candidate if it
/// collides in *either* family.
pub fn concat_band_keys(
    n_items: usize,
    a_bands: u32,
    a: &[u64],
    b_bands: u32,
    b: &[u64],
) -> Vec<u64> {
    let (wa, wb) = (a_bands as usize, b_bands as usize);
    assert_eq!(a.len(), n_items * wa, "first buffer is not n × a_bands");
    assert_eq!(b.len(), n_items * wb, "second buffer is not n × b_bands");
    let mut out = Vec::with_capacity(n_items * (wa + wb));
    for item in 0..n_items {
        out.extend_from_slice(&a[item * wa..(item + 1) * wa]);
        out.extend_from_slice(&b[item * wb..(item + 1) * wb]);
    }
    out
}

/// The exact distance kernel of one input modality — the verification side
/// of the candidate core. Distances are the same the fit paths minimise:
/// matching dissimilarity (K-Modes), squared Euclidean (K-Means), and their
/// γ-weighted sum (K-Prototypes), so "near-duplicate at threshold t" means
/// the same thing a clusterer's cost function would.
pub enum PairData<'a> {
    /// Encoded categorical rows; distance = differing attribute count.
    Categorical(&'a Dataset),
    /// Numeric rows; distance = squared Euclidean.
    Numeric(&'a NumericDataset),
    /// Mixed rows; distance = matching + γ · squared Euclidean.
    Mixed {
        /// The paired categorical + numeric views.
        data: &'a MixedDataset<'a>,
        /// Huang's mixing weight γ.
        gamma: f64,
    },
}

impl PairData<'_> {
    /// Items in the dataset.
    pub fn n_items(&self) -> usize {
        match self {
            PairData::Categorical(d) => d.n_items(),
            PairData::Numeric(d) => d.n_items(),
            PairData::Mixed { data, .. } => data.n_items(),
        }
    }

    /// Exact distance between items `a` and `b`.
    pub fn distance(&self, a: u32, b: u32) -> f64 {
        let (a, b) = (a as usize, b as usize);
        match self {
            PairData::Categorical(d) => f64::from(dissimilarity::matching(d.row(a), d.row(b))),
            PairData::Numeric(d) => sq_euclidean(d.row(a), d.row(b)),
            PairData::Mixed { data, gamma } => {
                let cat = dissimilarity::matching(data.categorical.row(a), data.categorical.row(b));
                f64::from(cat) + gamma * sq_euclidean(data.numeric.row(a), data.numeric.row(b))
            }
        }
    }
}

/// One exact-verified pair, `a < b`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerifiedPair {
    /// Lower item id.
    pub a: u32,
    /// Higher item id.
    pub b: u32,
    /// The modality's exact distance between the two items.
    pub distance: f64,
}

/// Result of a verification pass: the emitted pairs plus the candidate
/// volume they were sieved from.
pub struct VerifiedPairs {
    /// Pairs with `distance <= threshold`, sorted by `(a, b)`.
    pub pairs: Vec<VerifiedPair>,
    /// Distinct candidate pairs the buckets produced (verified or not).
    pub candidate_pairs: usize,
}

/// Verifies every candidate pair with the modality's exact kernel and keeps
/// those at or under `threshold`, fanned over `threads` via [`chunked_map`].
///
/// Each item `i`'s pairs `(j, i)` with `j < i` depend only on the frozen
/// buckets and the dataset, so the result is **byte-identical at any thread
/// count**; the flattened list is then sorted by `(a, b)` for a canonical
/// output order. Every emitted pair passed the exact check — precision 1.0
/// by construction.
pub fn verified_pairs(
    candidates: &CandidatePairs,
    data: &PairData<'_>,
    threshold: f64,
    threads: usize,
) -> VerifiedPairs {
    assert_eq!(
        candidates.n_items(),
        data.n_items(),
        "bucket view and dataset disagree on item count"
    );
    let per_item: Vec<(Vec<VerifiedPair>, u64)> = chunked_map(
        candidates.n_items(),
        threads,
        || candidates.make_scratch(),
        |item, scratch| {
            let mut kept = Vec::new();
            let mut seen = 0u64;
            candidates.for_each_candidate_below(item, scratch, |other| {
                seen += 1;
                let d = data.distance(other, item);
                if d <= threshold {
                    kept.push(VerifiedPair {
                        a: other,
                        b: item,
                        distance: d,
                    });
                }
            });
            (kept, seen)
        },
    );
    let candidate_pairs = per_item.iter().map(|(_, n)| *n as usize).sum();
    let mut pairs: Vec<VerifiedPair> = per_item.into_iter().flat_map(|(kept, _)| kept).collect();
    pairs.sort_unstable_by_key(|p| (p.a, p.b));
    VerifiedPairs {
        pairs,
        candidate_pairs,
    }
}

/// The exact all-pairs scan: every pair at or under `threshold`, sorted by
/// `(a, b)` — the ground truth the LSH path's recall is measured against.
pub fn brute_force_pairs(data: &PairData<'_>, threshold: f64) -> Vec<VerifiedPair> {
    let n = data.n_items();
    let mut pairs = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            let d = data.distance(a, b);
            if d <= threshold {
                pairs.push(VerifiedPair { a, b, distance: d });
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;

    fn tiny_categorical() -> Dataset {
        let mut b = DatasetBuilder::anonymous(3);
        for row in [
            ["a", "b", "c"],
            ["a", "b", "c"], // exact duplicate of 0
            ["a", "b", "d"], // near-duplicate of 0/1
            ["x", "y", "z"],
            ["x", "y", "z"], // exact duplicate of 3
        ] {
            b.push_str_row(&row, None).unwrap();
        }
        b.finish()
    }

    fn keys_for(ds: &Dataset, bands: u32, rows: u32) -> Vec<u64> {
        use lshclust_minhash::index::LshIndexBuilder;
        use lshclust_minhash::Banding;
        let builder = LshIndexBuilder::new(Banding::new(bands, rows)).seed(7);
        crate::parallel::hash_band_keys_parallel(&builder, ds, 1)
    }

    #[test]
    fn exact_duplicates_always_collide_and_verify() {
        let ds = tiny_categorical();
        let cp = CandidatePairs::from_band_keys(8, keys_for(&ds, 8, 2));
        let out = verified_pairs(&cp, &PairData::Categorical(&ds), 0.0, 1);
        // Identical rows hash identically in every band, so recall on exact
        // duplicates is 1.0 regardless of banding.
        assert!(out.pairs.iter().any(|p| (p.a, p.b) == (0, 1)));
        assert!(out.pairs.iter().any(|p| (p.a, p.b) == (3, 4)));
        for p in &out.pairs {
            assert_eq!(p.distance, 0.0);
        }
    }

    #[test]
    fn verified_pairs_are_a_subset_of_brute_force() {
        let ds = tiny_categorical();
        let cp = CandidatePairs::from_band_keys(4, keys_for(&ds, 4, 2));
        let data = PairData::Categorical(&ds);
        let exact = brute_force_pairs(&data, 1.0);
        let out = verified_pairs(&cp, &data, 1.0, 1);
        for p in &out.pairs {
            assert!(
                exact.iter().any(|q| (q.a, q.b) == (p.a, p.b)),
                "false positive {p:?}"
            );
        }
    }

    #[test]
    fn output_is_identical_at_any_thread_count() {
        let ds = tiny_categorical();
        let cp = CandidatePairs::from_band_keys(8, keys_for(&ds, 8, 1));
        let data = PairData::Categorical(&ds);
        let one = verified_pairs(&cp, &data, 2.0, 1);
        for threads in [2usize, 3, 8] {
            let other = verified_pairs(&cp, &data, 2.0, threads);
            assert_eq!(other.pairs, one.pairs, "threads={threads}");
            assert_eq!(other.candidate_pairs, one.candidate_pairs);
        }
    }

    #[test]
    fn single_row_banding_reaches_full_recall_on_tiny_data() {
        // rows=1 over few distinct values makes collisions near-certain for
        // close rows; with 16 bands the tiny dataset's near-duplicates are
        // all found, so LSH output equals brute force.
        let ds = tiny_categorical();
        let cp = CandidatePairs::from_band_keys(16, keys_for(&ds, 16, 1));
        let data = PairData::Categorical(&ds);
        let exact = brute_force_pairs(&data, 1.0);
        let out = verified_pairs(&cp, &data, 1.0, 2);
        assert_eq!(out.pairs, exact);
    }

    #[test]
    fn candidate_pair_count_matches_manual_enumeration() {
        let ds = tiny_categorical();
        let cp = CandidatePairs::from_band_keys(8, keys_for(&ds, 8, 2));
        let mut manual = 0usize;
        let mut scratch = cp.make_scratch();
        for item in 0..cp.n_items() as u32 {
            cp.for_each_candidate_below(item, &mut scratch, |_| manual += 1);
        }
        let data = PairData::Categorical(&ds);
        for threads in [1usize, 2, 4] {
            let out = verified_pairs(&cp, &data, f64::INFINITY, threads);
            assert_eq!(out.candidate_pairs, manual);
        }
    }

    #[test]
    fn numeric_and_mixed_kernels_agree_with_definitions() {
        let num = NumericDataset::new(2, vec![0.0, 0.0, 3.0, 4.0]);
        assert_eq!(PairData::Numeric(&num).distance(0, 1), 25.0);
        let mut b = DatasetBuilder::anonymous(2);
        b.push_str_row(&["a", "b"], None).unwrap();
        b.push_str_row(&["a", "c"], None).unwrap();
        let cat = b.finish();
        let mixed = MixedDataset::new(&cat, &num);
        let d = PairData::Mixed {
            data: &mixed,
            gamma: 0.5,
        }
        .distance(0, 1);
        assert_eq!(d, 1.0 + 0.5 * 25.0);
    }

    #[test]
    fn concat_band_keys_interleaves_item_major() {
        let a = vec![1, 2, 10, 20]; // 2 items × 2 bands
        let b = vec![7, 70]; // 2 items × 1 band
        assert_eq!(concat_band_keys(2, 2, &a, 1, &b), vec![1, 2, 7, 10, 20, 70]);
    }
}
