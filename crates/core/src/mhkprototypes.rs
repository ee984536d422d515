//! Mixed-data extension: **MH-K-Prototypes** — LSH-accelerated K-Prototypes.
//!
//! The paper's further work asks for "combinations of both" categorical and
//! numeric data. The framework makes this a composition exercise:
//!
//! * the [`CentroidModel`] is K-Prototypes (mixed distance
//!   `matching + γ·euclidean²`, mode+mean prototypes),
//! * the [`ShortlistProvider`] is the **union** of a MinHash index over the
//!   categorical part and a SimHash index over the numeric part
//!   ([`UnionProvider`]) — an item collides if *either* modality finds it
//!   similar, so the shortlist covers clusters that are close in either
//!   space.
//!
//! The fit loop is the unchanged [`crate::modality::fit_full`].

use crate::centroid_index::IndexScheme;
use crate::framework::{ActivitySet, CentroidModel, ShortlistProvider, StopPolicy};
use crate::modality::{fit_full, FitParams};
use lshclust_categorical::{ClusterId, ValueId};
use lshclust_kmodes::kprototypes::{MixedDataset, Prototypes};
use lshclust_kmodes::modes::{group_by_cluster, Modes};
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::Banding;
use std::time::Instant;

/// The K-Prototypes instantiation of [`CentroidModel`].
pub struct KPrototypesModel<'a> {
    data: &'a MixedDataset<'a>,
    prototypes: Prototypes,
    gamma: f64,
}

impl<'a> KPrototypesModel<'a> {
    /// Wraps mixed data with initial prototypes and a mixing weight.
    pub fn new(data: &'a MixedDataset<'a>, prototypes: Prototypes, gamma: f64) -> Self {
        Self {
            data,
            prototypes,
            gamma,
        }
    }

    /// The current prototypes.
    pub fn prototypes(&self) -> &Prototypes {
        &self.prototypes
    }

    /// Consumes the model, returning the prototypes.
    pub fn into_prototypes(self) -> Prototypes {
        self.prototypes
    }

    /// The wrapped dataset (at its own lifetime; see
    /// `KModesModel::dataset_ref`).
    pub(crate) fn data_ref(&self) -> &'a MixedDataset<'a> {
        self.data
    }

    /// Mutable access to the prototypes (mini-batch nudges).
    pub(crate) fn prototypes_mut(&mut self) -> &mut Prototypes {
        &mut self.prototypes
    }
}

impl CentroidModel for KPrototypesModel<'_> {
    type Snapshot = Prototypes;

    fn snapshot_centroids(&self) -> Prototypes {
        self.prototypes.clone()
    }

    fn restore_centroids(&mut self, snapshot: Prototypes) {
        self.prototypes = snapshot;
    }

    fn k(&self) -> usize {
        self.prototypes.k()
    }

    fn n_items(&self) -> usize {
        self.data.n_items()
    }

    fn best_full(&self, item: u32) -> (ClusterId, f64) {
        let mut best = ClusterId(0);
        let mut best_d = f64::INFINITY;
        for c in 0..self.k() {
            let d = self
                .prototypes
                .distance(self.data, item as usize, c, self.gamma);
            if d < best_d {
                best_d = d;
                best = ClusterId(c as u32);
            }
        }
        (best, best_d)
    }

    fn best_among(&self, item: u32, candidates: &[ClusterId]) -> Option<(ClusterId, f64)> {
        let mut best: Option<(ClusterId, f64)> = None;
        for &c in candidates {
            let d = self
                .prototypes
                .distance(self.data, item as usize, c.idx(), self.gamma);
            let replace = match best {
                None => true,
                Some((bc, bd)) => d < bd || (d == bd && c < bc),
            };
            if replace {
                best = Some((c, d));
            }
        }
        best
    }

    fn update_centroids(&mut self, assignments: &[ClusterId]) -> ActivitySet {
        let old = self.prototypes.clone();
        self.prototypes.recompute(self.data, assignments);
        let k = self.k();
        let dim = self.prototypes.dim();
        let mut activity = ActivitySet::none(k);
        for c in 0..k {
            if self.prototypes.modes.mode(c) != old.modes.mode(c)
                || self.prototypes.means[c * dim..(c + 1) * dim]
                    != old.means[c * dim..(c + 1) * dim]
            {
                activity.mark(ClusterId(c as u32));
            }
        }
        activity
    }

    fn update_centroids_parallel(
        &mut self,
        assignments: &[ClusterId],
        threads: usize,
    ) -> ActivitySet {
        if threads <= 1 {
            return self.update_centroids(assignments);
        }
        // Cluster-by-cluster mode + mean recomputation through the same
        // kernels as the serial path (CSR member order) — bit-identical to
        // the serial update at any thread count.
        let k = self.k();
        let dim = self.prototypes.dim();
        let n_attrs = self.prototypes.modes.n_attrs();
        let groups = group_by_cluster(assignments, k);
        let data = self.data;
        let new: Vec<Option<(Vec<ValueId>, Vec<f64>)>> = crate::parallel::chunked_map(
            k,
            threads,
            Vec::new,
            |c, counts: &mut Vec<(ValueId, u32)>| {
                let members = groups.members(c as usize);
                if members.is_empty() {
                    return None; // keep previous prototype
                }
                let mut mode = Vec::with_capacity(n_attrs);
                Modes::mode_of_members(data.categorical, members, counts, &mut mode);
                let mut mean = vec![0.0f64; dim];
                for &i in members {
                    for (s, &x) in mean.iter_mut().zip(data.numeric.row(i as usize)) {
                        *s += x;
                    }
                }
                for s in &mut mean {
                    *s /= members.len() as f64;
                }
                Some((mode, mean))
            },
        );
        let mut activity = ActivitySet::none(k);
        for (c, update) in new.iter().enumerate() {
            let Some((mode, mean)) = update else { continue };
            if self.prototypes.modes.mode(c) != mode.as_slice()
                || self.prototypes.means[c * dim..(c + 1) * dim] != mean[..]
            {
                activity.mark(ClusterId(c as u32));
            }
            self.prototypes.modes.set_mode(ClusterId(c as u32), mode);
            self.prototypes.means[c * dim..(c + 1) * dim].copy_from_slice(mean);
        }
        activity
    }

    fn total_cost(&self, assignments: &[ClusterId]) -> f64 {
        assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| self.prototypes.distance(self.data, i, c.idx(), self.gamma))
            .sum()
    }
}

/// Union of two shortlist providers: candidates from either, deduplicated.
///
/// Both providers receive every `record_assignment` so their cluster
/// references stay in lock-step.
pub struct UnionProvider<A: ShortlistProvider, B: ShortlistProvider> {
    first: A,
    second: B,
    buf: Vec<ClusterId>,
}

impl<A: ShortlistProvider, B: ShortlistProvider> UnionProvider<A, B> {
    /// Combines two providers.
    pub fn new(first: A, second: B) -> Self {
        Self {
            first,
            second,
            buf: Vec::new(),
        }
    }
}

impl<A: ShortlistProvider, B: ShortlistProvider> ShortlistProvider for UnionProvider<A, B> {
    fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
        self.first.shortlist(item, out);
        self.second.shortlist(item, &mut self.buf);
        for &c in &self.buf {
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }

    fn record_assignment(&mut self, item: u32, cluster: ClusterId) {
        self.first.record_assignment(item, cluster);
        self.second.record_assignment(item, cluster);
    }
}

/// Per-thread scratch of a [`UnionProvider`]: one scratch per side plus the
/// merge buffer.
pub struct UnionScratch<A, B> {
    first: A,
    second: B,
    buf: Vec<ClusterId>,
}

impl<A, B> crate::parallel::SyncShortlistProvider for UnionProvider<A, B>
where
    A: crate::parallel::SyncShortlistProvider,
    B: crate::parallel::SyncShortlistProvider,
{
    type Scratch = UnionScratch<A::Scratch, B::Scratch>;

    fn make_scratch(&self) -> Self::Scratch {
        UnionScratch {
            first: self.first.make_scratch(),
            second: self.second.make_scratch(),
            buf: Vec::new(),
        }
    }

    fn shortlist_into(&self, item: u32, scratch: &mut Self::Scratch, out: &mut Vec<ClusterId>) {
        self.first.shortlist_into(item, &mut scratch.first, out);
        self.second
            .shortlist_into(item, &mut scratch.second, &mut scratch.buf);
        for &c in &scratch.buf {
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
}

/// Configuration for MH-K-Prototypes.
#[derive(Clone, Debug)]
pub struct MhKPrototypesConfig {
    /// Number of clusters.
    pub k: usize,
    /// Mixing weight γ.
    pub gamma: f64,
    /// MinHash banding for the categorical part.
    pub banding: Banding,
    /// SimHash bands × rows for the numeric part.
    pub sim_bands: u32,
    /// SimHash bits per band.
    pub sim_rows: u32,
    /// Iteration policy (cap + stop criteria).
    pub stop: StopPolicy,
    /// Seed.
    pub seed: u64,
    /// Assignment-pass threads. `1` (and the clamped `0`) keeps the serial
    /// Gauss–Seidel pass; `> 1` runs the Jacobi parallel engine of
    /// [`crate::parallel`] over the union shortlists.
    pub threads: usize,
    /// Cluster-closure incremental assignment (byte-identical results;
    /// `false` is the escape hatch).
    pub closures: bool,
    /// Interleaved parallel chunk scheduling (identical results).
    pub interleaved: bool,
}

impl MhKPrototypesConfig {
    /// Defaults: 20b5r MinHash, 8 bands × 16 bits SimHash (high-rows SimHash
    /// keeps angular wedges narrow), 100-iteration cap,
    /// serial assignment.
    pub fn new(k: usize, gamma: f64) -> Self {
        Self {
            k,
            gamma,
            banding: Banding::new(20, 5),
            sim_bands: 8,
            sim_rows: 16,
            stop: StopPolicy::default(),
            seed: 0,
            threads: 1,
            closures: true,
            interleaved: false,
        }
    }

    /// Sets the number of assignment threads (`0` clamps to `1`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Enables/disables cluster-closure incremental assignment.
    pub fn closures(mut self, yes: bool) -> Self {
        self.closures = yes;
        self
    }

    /// Selects interleaved vs contiguous parallel chunk scheduling.
    pub fn interleaved(mut self, yes: bool) -> Self {
        self.interleaved = yes;
        self
    }
}

/// Result of an MH-K-Prototypes run.
pub struct MhKPrototypesResult {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final prototypes.
    pub prototypes: Prototypes,
    /// Instrumentation.
    pub summary: RunSummary,
}

/// Runs LSH-accelerated K-Prototypes on mixed data: the accelerated full
/// fit of [`fit_full`] over the union of a MinHash and a SimHash item index.
pub fn mh_kprototypes(
    data: &MixedDataset<'_>,
    config: &MhKPrototypesConfig,
) -> MhKPrototypesResult {
    let setup_start = Instant::now();
    let picks = lshclust_kmodes::init::sample_distinct_items(data.n_items(), config.k, config.seed);
    let prototypes = Prototypes::from_items(data, &picks);
    let scheme = IndexScheme {
        minhash: Some(config.banding),
        simhash: Some((config.sim_bands, config.sim_rows)),
    };
    let fit = fit_full(
        data,
        &FitParams {
            stop: config.stop,
            threads: config.threads,
            closures: config.closures,
            interleaved: config.interleaved,
            gamma: config.gamma,
            ..FitParams::new(config.k, scheme, config.seed)
        },
        prototypes,
        setup_start,
    );
    MhKPrototypesResult {
        assignments: fit.assignments,
        prototypes: fit.centroids,
        summary: fit.summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::{Dataset, DatasetBuilder};
    use lshclust_kmodes::kmeans::NumericDataset;
    use lshclust_kmodes::kprototypes::{kprototypes, suggest_gamma, KPrototypesConfig};

    /// Groups separated in both modalities.
    fn fixture(groups: usize, per_group: usize) -> (Dataset, NumericDataset) {
        let mut b = DatasetBuilder::anonymous(4);
        let mut numeric = Vec::new();
        for g in 0..groups {
            for i in 0..per_group {
                let cat: Vec<String> = (0..4)
                    .map(|a| {
                        if a == 3 {
                            format!("g{g}n{i}")
                        } else {
                            format!("g{g}a{a}")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = cat.iter().map(String::as_str).collect();
                b.push_str_row(&refs, Some(g as u32)).unwrap();
                let base = g as f64 * 8.0;
                numeric.extend_from_slice(&[base + 0.05 * i as f64, base - 0.05 * i as f64]);
            }
        }
        (b.finish(), NumericDataset::new(2, numeric))
    }

    #[test]
    fn recovers_mixed_blobs() {
        let (cat, num) = fixture(4, 6);
        let data = MixedDataset::new(&cat, &num);
        // Seed 1 spreads the 4 random initial prototypes across all 4
        // groups; k-prototypes has no empty-cluster reseeding, so an init
        // that doubles up inside one group can never recover the partition.
        let mut config = MhKPrototypesConfig::new(4, suggest_gamma(&num));
        config.seed = 1;
        let result = mh_kprototypes(&data, &config);
        assert!(result.summary.converged);
        for g in 0..4 {
            let first = result.assignments[g * 6];
            for i in 0..6 {
                assert_eq!(result.assignments[g * 6 + i], first, "group {g} split");
            }
        }
    }

    #[test]
    fn matches_full_search_kprototypes_on_separated_data() {
        let (cat, num) = fixture(3, 5);
        let data = MixedDataset::new(&cat, &num);
        let gamma = suggest_gamma(&num);
        let full = kprototypes(&data, &KPrototypesConfig::new(3, gamma));
        let accel = mh_kprototypes(&data, &MhKPrototypesConfig::new(3, gamma));
        for i in 0..data.n_items() {
            for j in (i + 1)..data.n_items() {
                assert_eq!(
                    full.assignments[i] == full.assignments[j],
                    accel.assignments[i] == accel.assignments[j],
                    "items {i},{j} co-membership differs"
                );
            }
        }
    }

    #[test]
    fn union_provider_unions_and_dedups() {
        struct Fixed(Vec<ClusterId>);
        impl ShortlistProvider for Fixed {
            fn shortlist(&mut self, _item: u32, out: &mut Vec<ClusterId>) {
                out.clear();
                out.extend_from_slice(&self.0);
            }
            fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {}
        }
        let mut union = UnionProvider::new(
            Fixed(vec![ClusterId(1), ClusterId(2)]),
            Fixed(vec![ClusterId(2), ClusterId(3)]),
        );
        let mut out = Vec::new();
        union.shortlist(0, &mut out);
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, vec![ClusterId(1), ClusterId(2), ClusterId(3)]);
    }

    #[test]
    fn union_provider_propagates_assignments() {
        struct Recording(Vec<(u32, ClusterId)>);
        impl ShortlistProvider for Recording {
            fn shortlist(&mut self, _item: u32, out: &mut Vec<ClusterId>) {
                out.clear();
            }
            fn record_assignment(&mut self, item: u32, cluster: ClusterId) {
                self.0.push((item, cluster));
            }
        }
        let mut union = UnionProvider::new(Recording(Vec::new()), Recording(Vec::new()));
        union.record_assignment(7, ClusterId(3));
        assert_eq!(union.first.0, vec![(7, ClusterId(3))]);
        assert_eq!(union.second.0, vec![(7, ClusterId(3))]);
    }

    #[test]
    fn shortlist_smaller_than_k() {
        let (cat, num) = fixture(8, 5);
        let data = MixedDataset::new(&cat, &num);
        let result = mh_kprototypes(&data, &MhKPrototypesConfig::new(8, suggest_gamma(&num)));
        let last = result.summary.iterations.last().unwrap();
        assert!(
            last.avg_candidates < 8.0,
            "avg shortlist {}",
            last.avg_candidates
        );
    }

    #[test]
    fn deterministic() {
        let (cat, num) = fixture(3, 4);
        let data = MixedDataset::new(&cat, &num);
        let cfg = MhKPrototypesConfig::new(3, 1.0);
        let a = mh_kprototypes(&data, &cfg);
        let b = mh_kprototypes(&data, &cfg);
        assert_eq!(a.assignments, b.assignments);
    }
}
