//! Cluster modes: the centroid representation of K-Modes.
//!
//! A mode is the vector of per-attribute most frequent categories among a
//! cluster's members (paper Eq. 3: the mode minimises the summed matching
//! dissimilarity `D(X, Q)` iff every component is a most-frequent category).
//! Ties break towards the smallest [`ValueId`] and empty clusters keep their
//! previous mode, per the workspace determinism policy
//! (docs/ARCHITECTURE.md § Determinism).

use lshclust_categorical::{ClusterId, Dataset, ValueId};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// A `k × n_attrs` matrix of cluster modes, row-major like [`Dataset`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Modes {
    k: usize,
    n_attrs: usize,
    values: Vec<ValueId>,
}

impl Modes {
    /// Creates modes from a flat buffer. Panics on shape mismatch.
    pub fn from_parts(k: usize, n_attrs: usize, values: Vec<ValueId>) -> Self {
        assert_eq!(values.len(), k * n_attrs, "mode buffer shape mismatch");
        Self { k, n_attrs, values }
    }

    /// Copies `k` dataset rows (by item index) as the initial modes.
    pub fn from_items(dataset: &Dataset, items: &[u32]) -> Self {
        let n_attrs = dataset.n_attrs();
        let mut values = Vec::with_capacity(items.len() * n_attrs);
        for &item in items {
            values.extend_from_slice(dataset.row(item as usize));
        }
        Self {
            k: items.len(),
            n_attrs,
            values,
        }
    }

    /// Number of clusters `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Attributes per mode.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Mode of cluster `c` as a value slice.
    #[inline]
    pub fn mode(&self, c: usize) -> &[ValueId] {
        let s = c * self.n_attrs;
        &self.values[s..s + self.n_attrs]
    }

    /// Mode addressed by [`ClusterId`].
    #[inline]
    pub fn of(&self, c: ClusterId) -> &[ValueId] {
        self.mode(c.idx())
    }

    /// The flat `k × n_attrs` value buffer, row-major (mode serialization
    /// and signature generation read this directly).
    #[inline]
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// Overwrites the mode of cluster `c` in place (used by the online and
    /// mini-batch update rules).
    pub fn set_mode(&mut self, c: ClusterId, mode: &[ValueId]) {
        assert_eq!(mode.len(), self.n_attrs, "mode arity mismatch");
        let s = c.idx() * self.n_attrs;
        self.values[s..s + self.n_attrs].copy_from_slice(mode);
    }

    /// Recomputes every mode from the current `assignments` (step 3 of the
    /// paper's algorithm). Clusters with no members keep their previous mode.
    pub fn recompute(&mut self, dataset: &Dataset, assignments: &[ClusterId]) {
        assert_eq!(assignments.len(), dataset.n_items());
        let groups = group_by_cluster(assignments, self.k);
        let mut counts = ValueCounts::default();
        let mut row: Vec<ValueId> = Vec::with_capacity(self.n_attrs);
        for c in 0..self.k {
            let members = groups.members(c);
            if members.is_empty() {
                continue; // keep previous mode
            }
            Self::mode_of_members(dataset, members, &mut counts, &mut row);
            self.values[c * self.n_attrs..(c + 1) * self.n_attrs].copy_from_slice(&row);
        }
    }

    /// The per-cluster kernel of [`Self::recompute`]: computes the
    /// per-attribute majority values of one non-empty member group into
    /// `out` (cleared first), with the workspace tie-break (ties towards the
    /// smallest [`ValueId`]). `counts` is reusable scratch.
    ///
    /// Exposed so the parallel centroid update can recompute clusters
    /// concurrently while staying bit-identical to the serial path.
    pub fn mode_of_members(
        dataset: &Dataset,
        members: &[u32],
        counts: &mut ValueCounts,
        out: &mut Vec<ValueId>,
    ) {
        assert!(!members.is_empty(), "mode of an empty member group");
        counts.count(dataset, members);
        out.clear();
        out.extend((0..dataset.n_attrs()).map(|a| counts.most_frequent(a)));
    }
}

/// The value counts of one member group, attribute by attribute — the one
/// counting kernel behind every mode update (serial, parallel and online).
///
/// Each attribute's member values are sorted, so a value's count is the
/// length of its run and the runs come out ascending by [`ValueId`]. This
/// costs `O(m log m)` per attribute for `m` members, where a linear search
/// per value is quadratic in the distinct values, and it needs no table
/// sized by the domain. The buffer is reused across groups.
#[derive(Clone, Debug, Default)]
pub struct ValueCounts {
    /// Members in the latest group.
    n_members: usize,
    /// `n_attrs × n_members`, attribute-major; each column ascending.
    columns: Vec<ValueId>,
}

impl ValueCounts {
    /// Counts the values of `members` (item ids into `dataset`).
    pub fn count(&mut self, dataset: &Dataset, members: &[u32]) {
        let m = members.len();
        self.n_members = m;
        self.columns.clear();
        self.columns.resize(m * dataset.n_attrs(), ValueId(0));
        // Row by row into columns: each member row is read once, in order.
        for (j, &item) in members.iter().enumerate() {
            for (a, &v) in dataset.row(item as usize).iter().enumerate() {
                self.columns[a * m + j] = v;
            }
        }
        if m > 0 {
            for column in self.columns.chunks_exact_mut(m) {
                column.sort_unstable();
            }
        }
    }

    /// Attribute `a`'s distinct values with their counts, ascending by
    /// value ([`NOT_PRESENT`](lshclust_categorical::NOT_PRESENT) cells count
    /// like any other value).
    pub fn runs(&self, a: usize) -> impl Iterator<Item = (ValueId, u32)> + '_ {
        let m = self.n_members;
        self.columns[a * m..(a + 1) * m]
            .chunk_by(|x, y| x == y)
            .map(|run| (run[0], run.len() as u32))
    }

    /// Attribute `a`'s most frequent value; ties go to the smallest
    /// [`ValueId`]. Panics when the group was empty.
    pub fn most_frequent(&self, a: usize) -> ValueId {
        // Runs are ascending by value, so strict `>` keeps the smallest
        // value among tied counts.
        let mut best = (ValueId(0), 0u32);
        for (v, n) in self.runs(a) {
            if n > best.1 {
                best = (v, n);
            }
        }
        assert!(best.1 > 0, "mode of an empty member group");
        best.0
    }
}

// `{"k": 2, "n_attrs": 3, "values": [0, 1, …]}` — the shape fields are
// explicit so deserialization can validate instead of panicking.
impl Serialize for Modes {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("k".to_owned(), self.k.to_value()),
            ("n_attrs".to_owned(), self.n_attrs.to_value()),
            ("values".to_owned(), self.values.to_value()),
        ])
    }
}

impl Deserialize for Modes {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "Modes"))?;
        let k: usize = serde::field(entries, "k", "Modes")?;
        let n_attrs: usize = serde::field(entries, "n_attrs", "Modes")?;
        let values: Vec<ValueId> = serde::field(entries, "values", "Modes")?;
        if values.len() != k * n_attrs {
            return Err(SerdeError(format!(
                "Modes buffer holds {} values, expected k×n_attrs = {}",
                values.len(),
                k * n_attrs
            )));
        }
        Ok(Modes::from_parts(k, n_attrs, values))
    }
}

/// Items grouped by cluster in a CSR layout (one counting sort).
pub struct ClusterGroups {
    /// Item ids ordered by cluster.
    items: Vec<u32>,
    /// `k + 1` offsets into `items`.
    offsets: Vec<u32>,
}

impl ClusterGroups {
    /// Member item ids of cluster `c`.
    #[inline]
    pub fn members(&self, c: usize) -> &[u32] {
        let lo = self.offsets[c] as usize;
        let hi = self.offsets[c + 1] as usize;
        &self.items[lo..hi]
    }

    /// Number of members of cluster `c`.
    #[inline]
    pub fn len(&self, c: usize) -> usize {
        (self.offsets[c + 1] - self.offsets[c]) as usize
    }

    /// Whether cluster `c` has no members.
    pub fn is_empty(&self, c: usize) -> bool {
        self.len(c) == 0
    }
}

/// Counting sort of item ids by cluster assignment.
pub fn group_by_cluster(assignments: &[ClusterId], k: usize) -> ClusterGroups {
    let mut counts = vec![0u32; k + 1];
    for &c in assignments {
        debug_assert!(c.idx() < k, "assignment {c} out of range k={k}");
        counts[c.idx() + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut items = vec![0u32; assignments.len()];
    for (item, &c) in assignments.iter().enumerate() {
        items[cursor[c.idx()] as usize] = item as u32;
        cursor[c.idx()] += 1;
    }
    ClusterGroups { items, offsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;

    fn dataset(rows: &[&[&str]]) -> Dataset {
        let n = rows[0].len();
        let mut b = DatasetBuilder::anonymous(n);
        for r in rows {
            b.push_str_row(r, None).unwrap();
        }
        b.finish()
    }

    fn assign(xs: &[u32]) -> Vec<ClusterId> {
        xs.iter().map(|&x| ClusterId(x)).collect()
    }

    #[test]
    fn grouping_partitions_all_items() {
        let g = group_by_cluster(&assign(&[1, 0, 1, 2, 1]), 3);
        assert_eq!(g.members(0), &[1]);
        assert_eq!(g.members(1), &[0, 2, 4]);
        assert_eq!(g.members(2), &[3]);
    }

    #[test]
    fn grouping_handles_empty_clusters() {
        let g = group_by_cluster(&assign(&[0, 0]), 4);
        assert_eq!(g.len(0), 2);
        assert!(g.is_empty(1) && g.is_empty(2) && g.is_empty(3));
    }

    #[test]
    fn grouping_empty_input() {
        let g = group_by_cluster(&[], 2);
        assert!(g.is_empty(0) && g.is_empty(1));
    }

    #[test]
    fn mode_is_per_attribute_majority() {
        let ds = dataset(&[&["red", "square"], &["red", "circle"], &["blue", "circle"]]);
        let mut modes = Modes::from_items(&ds, &[0]);
        modes.recompute(&ds, &assign(&[0, 0, 0]));
        // Majority colour "red", majority shape "circle".
        assert_eq!(modes.mode(0), &[ds.row(0)[0], ds.row(1)[1]]);
    }

    #[test]
    fn mode_tie_breaks_to_smallest_value_id() {
        let ds = dataset(&[&["a"], &["b"]]);
        let mut modes = Modes::from_items(&ds, &[1]);
        modes.recompute(&ds, &assign(&[0, 0]));
        // "a" interned first → ValueId(0) wins the 1–1 tie.
        assert_eq!(modes.mode(0)[0], ds.row(0)[0]);
    }

    #[test]
    fn empty_cluster_keeps_previous_mode() {
        let ds = dataset(&[&["a"], &["b"]]);
        let mut modes = Modes::from_items(&ds, &[0, 1]);
        let before = modes.mode(1).to_vec();
        // Everything to cluster 0: cluster 1 becomes empty.
        modes.recompute(&ds, &assign(&[0, 0]));
        assert_eq!(modes.mode(1), before.as_slice());
    }

    #[test]
    fn recompute_is_idempotent_at_fixpoint() {
        let ds = dataset(&[&["x", "p"], &["x", "p"], &["y", "q"]]);
        let mut modes = Modes::from_items(&ds, &[0, 2]);
        let a = assign(&[0, 0, 1]);
        modes.recompute(&ds, &a);
        let snapshot = modes.clone();
        modes.recompute(&ds, &a);
        assert_eq!(modes, snapshot);
    }

    #[test]
    fn from_items_copies_rows() {
        let ds = dataset(&[&["a", "b"], &["c", "d"]]);
        let modes = Modes::from_items(&ds, &[1, 0]);
        assert_eq!(modes.k(), 2);
        assert_eq!(modes.mode(0), ds.row(1));
        assert_eq!(modes.mode(1), ds.row(0));
        assert_eq!(modes.of(ClusterId(0)), ds.row(1));
    }

    #[test]
    fn mode_minimises_summed_distance() {
        // Property from Eq. 3: the recomputed mode's summed distance to the
        // members is ≤ that of any member itself.
        use lshclust_categorical::dissimilarity::matching;
        let ds = dataset(&[
            &["a", "p", "k"],
            &["a", "q", "k"],
            &["b", "p", "k"],
            &["a", "p", "l"],
        ]);
        let mut modes = Modes::from_items(&ds, &[0]);
        modes.recompute(&ds, &assign(&[0, 0, 0, 0]));
        let mode_cost: u32 = (0..4).map(|i| matching(modes.mode(0), ds.row(i))).sum();
        for candidate in 0..4 {
            let cand_cost: u32 = (0..4).map(|i| matching(ds.row(candidate), ds.row(i))).sum();
            assert!(mode_cost <= cand_cost);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_parts_validates() {
        let _ = Modes::from_parts(2, 3, vec![ValueId(0); 5]);
    }

    /// Linear-search counting: each value's count in first-seen order.
    fn reference_counts(dataset: &Dataset, members: &[u32], a: usize) -> Vec<(ValueId, u32)> {
        let mut counts: Vec<(ValueId, u32)> = Vec::new();
        for &item in members {
            let v = dataset.row(item as usize)[a];
            match counts.iter().position(|&(val, _)| val == v) {
                Some(j) => counts[j].1 += 1,
                None => counts.push((v, 1)),
            }
        }
        counts
    }

    /// The most frequent value by linear search, ties to the smallest id.
    fn reference_mode(dataset: &Dataset, members: &[u32]) -> Vec<ValueId> {
        (0..dataset.n_attrs())
            .map(|a| {
                reference_counts(dataset, members, a)
                    .into_iter()
                    .max_by(|(va, na), (vb, nb)| na.cmp(nb).then(vb.cmp(va)))
                    .expect("non-empty member group")
                    .0
            })
            .collect()
    }

    fn check_kernel(dataset: &Dataset, members: &[u32], counts: &mut ValueCounts) {
        let mut mode = Vec::new();
        Modes::mode_of_members(dataset, members, counts, &mut mode);
        assert_eq!(
            mode,
            reference_mode(dataset, members),
            "members {members:?}"
        );
        for a in 0..dataset.n_attrs() {
            let mut want = reference_counts(dataset, members, a);
            want.sort_unstable();
            assert_eq!(counts.runs(a).collect::<Vec<_>>(), want, "attribute {a}");
        }
    }

    #[test]
    fn counting_kernel_matches_linear_search() {
        use lshclust_categorical::{Schema, NOT_PRESENT};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let mut counts = ValueCounts::default();
        for domain in [2u32, 3, 7, 40, 500, 5_000] {
            for _ in 0..20 {
                let n_attrs = rng.random_range(1..6usize);
                let n = rng.random_range(1..300usize);
                // Every ninth draw a missing cell.
                let values: Vec<ValueId> = (0..n * n_attrs)
                    .map(|_| match rng.random_range(0..domain * 9 / 8 + 1) {
                        x if x >= domain => NOT_PRESENT,
                        x => ValueId(x),
                    })
                    .collect();
                let ds = Dataset::from_parts(Schema::anonymous(n_attrs), values, None);
                let size = rng.random_range(1..=n);
                let members: Vec<u32> = (0..size).map(|_| rng.random_range(0..n as u32)).collect();
                check_kernel(&ds, &members, &mut counts);
            }
        }
    }

    #[test]
    fn counting_kernel_edge_groups() {
        let mut counts = ValueCounts::default();
        // Ties at every count: one member, a 2–2 tie, an all-distinct group.
        let ds = dataset(&[
            &["b", "q"],
            &["a", "p"],
            &["b", "p"],
            &["a", "q"],
            &["c", "r"],
        ]);
        for members in [
            &[0][..],
            &[0, 1, 2, 3],
            &[1, 4],
            &[4, 3, 0],
            &[0, 1, 2, 3, 4],
        ] {
            check_kernel(&ds, members, &mut counts);
        }
        let mut mode = Vec::new();
        // "b" (id 0) and "a" (id 1) tie 2–2; "q" (id 0) and "p" (id 1) too.
        Modes::mode_of_members(&ds, &[0, 1, 2, 3], &mut counts, &mut mode);
        assert_eq!(mode, vec![ValueId(0), ValueId(0)]);
    }
}
