//! The pieces of mini-batch K-Modes — the categorical adaptation of
//! Sculley's web-scale mini-batch K-Means (reference \[16\] of the paper's
//! related work) — that the mini-batch fit of `lshclust_core::minibatch`
//! builds on: the batch-sampling salt and the per-cluster frequency tables
//! ([`FrequencySketch`]) through which each absorbed item nudges its
//! cluster's mode. That fit runs every modality, with full search per
//! batch item or through an LSH shortlist, and is wired into the `lshclust`
//! facade as `Fit::MiniBatch`.

use lshclust_categorical::{ClusterId, Dataset, ValueId};
use std::collections::HashMap;

/// Salt XORed into the seed for batch sampling, so batches are drawn apart
/// from initialisation at equal seeds.
pub const BATCH_SAMPLING_SALT: u64 = 0x6d62_6b6d; // "mbkm"

/// One per-(cluster, attribute) count table. Counts only ever increment, so
/// the running argmax (highest count, ties to the smallest value id) can be
/// maintained **incrementally** in O(1) per absorb: after bumping `v`, only
/// `v`'s count changed, so `v` either overtakes the incumbent (strictly
/// higher count, or equal count and smaller id) or nothing moves — exactly
/// the value a full scan would pick.
struct Table {
    counts: Counts,
    best_val: u32,
    best_count: u32,
}

/// Count storage: a flat array indexed by value id when the attribute's
/// training dictionary is small (the mini-batch absorb phase's hot path —
/// no hashing, no entry probing), a hash map otherwise.
enum Counts {
    Dense(Vec<u32>),
    Sparse(HashMap<u32, u32>),
}

impl Table {
    fn sparse() -> Self {
        Self {
            counts: Counts::Sparse(HashMap::new()),
            best_val: 0,
            best_count: 0,
        }
    }

    fn dense(cardinality: usize) -> Self {
        Self {
            counts: Counts::Dense(vec![0; cardinality]),
            best_val: 0,
            best_count: 0,
        }
    }

    /// Increments `v`'s count and returns the new count.
    fn bump(&mut self, v: u32) -> u32 {
        match &mut self.counts {
            Counts::Dense(counts) => match counts.get_mut(v as usize) {
                Some(slot) => {
                    *slot += 1;
                    *slot
                }
                None => {
                    // A value id outside the declared cardinality (e.g.
                    // `NOT_PRESENT` from a foreign row): migrate this table
                    // to sparse instead of indexing out of bounds.
                    let mut map: HashMap<u32, u32> = counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(val, &c)| (val as u32, c))
                        .collect();
                    let slot = map.entry(v).or_insert(0);
                    *slot += 1;
                    let count = *slot;
                    self.counts = Counts::Sparse(map);
                    count
                }
            },
            Counts::Sparse(map) => {
                let slot = map.entry(v).or_insert(0);
                *slot += 1;
                *slot
            }
        }
    }

    /// Bumps `v` and returns the refreshed argmax for this cell.
    fn absorb(&mut self, v: u32) -> ValueId {
        let count = self.bump(v);
        if count > self.best_count || (count == self.best_count && v < self.best_val) {
            self.best_count = count;
            self.best_val = v;
        }
        ValueId(self.best_val)
    }
}

/// Per-cluster streaming frequency tables backing the mode updates — the
/// categorical analogue of Sculley's per-centre counts. Public so the
/// LSH-shortlisted mini-batch engine (`lshclust_core::minibatch`) applies
/// byte-identical nudges to this baseline.
///
/// Low-cardinality attributes (dictionary of at most
/// [`Self::DENSE_CARDINALITY_MAX`] values) use flat-array counts instead of
/// hash maps when constructed through [`Self::with_cardinalities`] /
/// [`Self::for_dataset`]; either representation applies **identical**
/// nudges — only the absorb cost differs.
pub struct FrequencySketch {
    /// `k × m` tables, cluster-major.
    tables: Vec<Table>,
    n_attrs: usize,
    /// The refreshed mode of the cluster last absorbed into.
    mode_buf: Vec<ValueId>,
}

impl FrequencySketch {
    /// Largest per-attribute dictionary served by the flat-array fast path
    /// (a `k × m` sketch over dense attributes costs `k·m·cardinality`
    /// 4-byte counters, so the cap keeps worst-case memory in the
    /// low megabytes at bench sizes).
    pub const DENSE_CARDINALITY_MAX: usize = 256;

    /// Empty tables for `k` clusters over `n_attrs` attributes, all sparse
    /// (no dictionary information — every attribute gets a hash map).
    pub fn new(k: usize, n_attrs: usize) -> Self {
        Self {
            tables: (0..k * n_attrs).map(|_| Table::sparse()).collect(),
            n_attrs,
            mode_buf: vec![ValueId(0); n_attrs],
        }
    }

    /// Empty tables for `k` clusters with one declared dictionary size per
    /// attribute: attributes with at most [`Self::DENSE_CARDINALITY_MAX`]
    /// values count into flat arrays, the rest into hash maps.
    pub fn with_cardinalities(k: usize, cardinalities: &[usize]) -> Self {
        let n_attrs = cardinalities.len();
        let tables = (0..k)
            .flat_map(|_| cardinalities.iter())
            .map(|&cardinality| {
                if cardinality > 0 && cardinality <= Self::DENSE_CARDINALITY_MAX {
                    Table::dense(cardinality)
                } else {
                    Table::sparse()
                }
            })
            .collect();
        Self {
            tables,
            n_attrs,
            mode_buf: vec![ValueId(0); n_attrs],
        }
    }

    /// [`Self::with_cardinalities`] with the sizes read off `dataset`'s
    /// training schema.
    pub fn for_dataset(k: usize, dataset: &Dataset) -> Self {
        let schema = dataset.schema();
        let cardinalities: Vec<usize> = (0..schema.n_attrs())
            .map(|a| {
                schema
                    .dictionary(lshclust_categorical::AttrId(a as u32))
                    .len()
            })
            .collect();
        Self::with_cardinalities(k, &cardinalities)
    }

    /// Counts `row` into cluster `c` and returns the cluster's refreshed
    /// mode: for each attribute the current argmax value (highest count,
    /// ties to the smallest value id — deterministic).
    pub fn absorb(&mut self, c: ClusterId, row: &[ValueId]) -> &[ValueId] {
        assert_eq!(row.len(), self.n_attrs);
        for (a, &v) in row.iter().enumerate() {
            let table = &mut self.tables[c.idx() * self.n_attrs + a];
            self.mode_buf[a] = table.absorb(v.0);
        }
        &self.mode_buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;

    fn blob_dataset(groups: usize, per_group: usize, n_attrs: usize) -> Dataset {
        let mut b = DatasetBuilder::anonymous(n_attrs);
        for g in 0..groups {
            for i in 0..per_group {
                let row: Vec<String> = (0..n_attrs)
                    .map(|a| {
                        if a == 0 {
                            format!("g{g}n{i}")
                        } else {
                            format!("g{g}a{a}")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_str_row(&refs, Some(g as u32)).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn sketch_tracks_majority() {
        let mut sketch = FrequencySketch::new(1, 2);
        let mode = sketch
            .absorb(ClusterId(0), &[ValueId(5), ValueId(1)])
            .to_vec();
        assert_eq!(mode, vec![ValueId(5), ValueId(1)]);
        sketch.absorb(ClusterId(0), &[ValueId(7), ValueId(1)]);
        let mode = sketch
            .absorb(ClusterId(0), &[ValueId(7), ValueId(2)])
            .to_vec();
        assert_eq!(mode[0], ValueId(7)); // 7 seen twice, 5 once
        assert_eq!(mode[1], ValueId(1)); // 1 twice, 2 once
    }

    #[test]
    fn sketch_tie_breaks_to_smallest_value() {
        let mut sketch = FrequencySketch::new(1, 1);
        sketch.absorb(ClusterId(0), &[ValueId(9)]);
        let mode = sketch.absorb(ClusterId(0), &[ValueId(4)]).to_vec();
        // 1–1 tie: the smaller id must win.
        assert_eq!(mode[0], ValueId(4));
    }

    /// Scan-based reference argmax: the exact rule (highest count, ties to
    /// the smallest value id) the incremental tracker must reproduce.
    struct ScanSketch {
        tables: Vec<HashMap<u32, u32>>,
        n_attrs: usize,
    }

    impl ScanSketch {
        fn new(k: usize, n_attrs: usize) -> Self {
            Self {
                tables: (0..k * n_attrs).map(|_| HashMap::new()).collect(),
                n_attrs,
            }
        }

        fn absorb(&mut self, c: ClusterId, row: &[ValueId]) -> Vec<ValueId> {
            row.iter()
                .enumerate()
                .map(|(a, &v)| {
                    let table = &mut self.tables[c.idx() * self.n_attrs + a];
                    *table.entry(v.0).or_insert(0) += 1;
                    table
                        .iter()
                        .map(|(&val, &count)| (count, std::cmp::Reverse(val)))
                        .max()
                        .map(|(_, std::cmp::Reverse(val))| ValueId(val))
                        .expect("non-empty")
                })
                .collect()
        }
    }

    /// Deterministic pseudo-random absorb stream.
    fn absorb_stream(len: usize, k: usize, domain: u32) -> Vec<(ClusterId, Vec<ValueId>)> {
        let mut state = 0x9e37_79b9_u64;
        (0..len)
            .map(|_| {
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as u32
                };
                let c = ClusterId(next() % k as u32);
                let row = vec![ValueId(next() % domain), ValueId(next() % domain)];
                (c, row)
            })
            .collect()
    }

    #[test]
    fn dense_sparse_and_scan_sketches_apply_identical_nudges() {
        // The regression the flat-array fast path must never break: dense
        // tables, sparse tables, and the O(cardinality) reference scan all
        // report the same mode after every single absorb.
        let (k, domain) = (3usize, 7u32);
        let mut dense = FrequencySketch::with_cardinalities(k, &[domain as usize; 2]);
        let mut sparse = FrequencySketch::new(k, 2);
        let mut scan = ScanSketch::new(k, 2);
        for (c, row) in absorb_stream(500, k, domain) {
            let d = dense.absorb(c, &row).to_vec();
            let s = sparse.absorb(c, &row).to_vec();
            let reference = scan.absorb(c, &row);
            assert_eq!(d, reference, "dense diverged on {c:?} {row:?}");
            assert_eq!(s, reference, "sparse diverged on {c:?} {row:?}");
        }
    }

    #[test]
    fn with_cardinalities_mixes_dense_and_sparse_attributes() {
        // Attribute 0 is dense (small dictionary), attribute 1 sparse (over
        // the cap), attribute 2 sparse (unknown cardinality 0); nudges must
        // be identical to the all-sparse sketch either way.
        let cards = [4usize, FrequencySketch::DENSE_CARDINALITY_MAX + 1, 0];
        let mut mixed = FrequencySketch::with_cardinalities(2, &cards);
        let mut reference = FrequencySketch::new(2, 3);
        for (c, row) in absorb_stream(200, 2, 4) {
            let row = vec![row[0], ValueId(row[1].0 + 1000), row[0]];
            assert_eq!(
                mixed.absorb(c, &row).to_vec(),
                reference.absorb(c, &row).to_vec()
            );
        }
    }

    #[test]
    fn dense_table_migrates_to_sparse_on_out_of_dictionary_values() {
        // A value id beyond the declared cardinality (e.g. NOT_PRESENT in a
        // foreign row) must not panic or corrupt the argmax.
        let mut sketch = FrequencySketch::with_cardinalities(1, &[2]);
        sketch.absorb(ClusterId(0), &[ValueId(1)]);
        sketch.absorb(ClusterId(0), &[ValueId(1)]);
        // Out of range: migrates the cell to sparse, counts still correct.
        let mode = sketch.absorb(ClusterId(0), &[ValueId(900)]).to_vec();
        assert_eq!(mode, vec![ValueId(1)], "incumbent survives the migration");
        sketch.absorb(ClusterId(0), &[ValueId(900)]);
        let mode = sketch.absorb(ClusterId(0), &[ValueId(900)]).to_vec();
        assert_eq!(mode, vec![ValueId(900)], "3 > 2: newcomer takes over");
    }

    #[test]
    fn for_dataset_reads_schema_cardinalities() {
        let ds = blob_dataset(2, 5, 3);
        let mut a = FrequencySketch::for_dataset(2, &ds);
        let mut b = FrequencySketch::new(2, 3);
        for i in 0..ds.n_items() {
            let c = ClusterId((i % 2) as u32);
            assert_eq!(
                a.absorb(c, ds.row(i)).to_vec(),
                b.absorb(c, ds.row(i)).to_vec()
            );
        }
    }
}
