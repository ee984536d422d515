//! Canopy-based search-space reduction — the alternative to LSH discussed in
//! the paper's related work (reference \[15\], McCallum, Nigam & Ungar 2000).
//!
//! Canopies are overlapping item subsets built with a *cheap* approximate
//! distance: pick an unmarked item as a canopy centre, put every item within
//! the loose threshold `T1` into the canopy, and remove items within the
//! tight threshold `T2 ≤ T1` from the candidate-centre pool. Exact distance
//! work then happens only within shared canopies.
//!
//! Plugged into the paper's framework, canopies become just another
//! [`ShortlistProvider`]: the shortlist for an item is the set of clusters
//! currently holding items that share a canopy with it. This lets the
//! ablation experiment compare the paper's MinHash shortlists against the
//! classic canopy alternative with everything else held fixed — the
//! comparison §II alludes to but the paper never runs.
//!
//! The cheap distance used here is the estimated Jaccard distance from short
//! MinHash sketches (so both providers consume the same element sets; only
//! the *candidate generation structure* differs).

use crate::framework::ShortlistProvider;
use lshclust_categorical::{ClusterId, Dataset};
use lshclust_minhash::hashfn::MixHashFamily;
use lshclust_minhash::signature::{estimate_jaccard, SignatureGenerator, SignatureMatrix};

/// Configuration for canopy construction.
#[derive(Clone, Debug)]
pub struct CanopyConfig {
    /// Loose threshold: items with estimated Jaccard *similarity* ≥ `t1_sim`
    /// to a centre join its canopy.
    pub t1_sim: f64,
    /// Tight threshold (≥ `t1_sim`): items this similar to a centre are
    /// removed from the centre pool.
    pub t2_sim: f64,
    /// Sketch length for the cheap distance.
    pub sketch_len: usize,
    /// Hash seed.
    pub seed: u64,
}

impl CanopyConfig {
    /// Defaults: join at 0.3, absorb at 0.6, 32-hash sketches.
    pub fn new() -> Self {
        Self {
            t1_sim: 0.3,
            t2_sim: 0.6,
            sketch_len: 32,
            seed: 0,
        }
    }
}

impl Default for CanopyConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The canopy structure: per-item canopy memberships (CSR) and per-canopy
/// member lists.
pub struct Canopies {
    /// Canopy id lists per item, CSR.
    item_canopies: Vec<u32>,
    item_offsets: Vec<usize>,
    /// Item id lists per canopy.
    members: Vec<Vec<u32>>,
}

impl Canopies {
    /// Builds canopies over `dataset` with the cheap sketch distance.
    ///
    /// Deterministic: centres are chosen in ascending item order (the
    /// classic algorithm says "pick a point at random"; ascending order is a
    /// fixed permutation thereof and keeps runs reproducible).
    pub fn build(dataset: &Dataset, config: &CanopyConfig) -> Self {
        assert!(
            config.t2_sim >= config.t1_sim,
            "tight similarity threshold must be >= loose threshold"
        );
        let n = dataset.n_items();
        let generator = SignatureGenerator::new(MixHashFamily::new(config.sketch_len, config.seed));
        let sketches: SignatureMatrix = generator.dataset_signatures(dataset);

        let mut in_pool = vec![true; n];
        let mut canopies_per_item: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut members: Vec<Vec<u32>> = Vec::new();
        for centre in 0..n {
            if !in_pool[centre] {
                continue;
            }
            let canopy_id = members.len() as u32;
            let mut canopy_members = Vec::new();
            for item in 0..n {
                // Canopy membership considers every item, pooled or not —
                // overlap is the point of canopies.
                let sim = estimate_jaccard(sketches.row(centre), sketches.row(item));
                if sim >= config.t1_sim {
                    canopy_members.push(item as u32);
                    canopies_per_item[item].push(canopy_id);
                    if sim >= config.t2_sim {
                        in_pool[item] = false;
                    }
                }
            }
            members.push(canopy_members);
        }

        // Flatten per-item lists to CSR.
        let mut item_canopies = Vec::new();
        let mut item_offsets = Vec::with_capacity(n + 1);
        item_offsets.push(0);
        for list in &canopies_per_item {
            item_canopies.extend_from_slice(list);
            item_offsets.push(item_canopies.len());
        }
        Self {
            item_canopies,
            item_offsets,
            members,
        }
    }

    /// Canopy ids of `item`.
    pub fn canopies_of(&self, item: u32) -> &[u32] {
        let lo = self.item_offsets[item as usize];
        let hi = self.item_offsets[item as usize + 1];
        &self.item_canopies[lo..hi]
    }

    /// Members of canopy `c`.
    pub fn members_of(&self, canopy: u32) -> &[u32] {
        &self.members[canopy as usize]
    }

    /// Mean canopies per item (diagnostics).
    pub fn mean_memberships(&self) -> f64 {
        let n = self.item_offsets.len() - 1;
        if n == 0 {
            return 0.0;
        }
        self.item_canopies.len() as f64 / n as f64
    }
}

/// [`ShortlistProvider`] backed by canopies: the shortlist for an item is
/// the set of clusters of all items sharing at least one canopy with it.
pub struct CanopyProvider {
    canopies: Canopies,
    cluster_of: Vec<ClusterId>,
    seen_clusters: lshclust_minhash::FastSet<u32>,
}

impl CanopyProvider {
    /// Wraps built canopies with initial cluster references.
    pub fn new(canopies: Canopies, initial: &[ClusterId]) -> Self {
        Self {
            canopies,
            cluster_of: initial.to_vec(),
            seen_clusters: Default::default(),
        }
    }

    /// The canopy structure.
    pub fn canopies(&self) -> &Canopies {
        &self.canopies
    }
}

impl ShortlistProvider for CanopyProvider {
    fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
        out.clear();
        self.seen_clusters.clear();
        for &canopy in self.canopies.canopies_of(item) {
            for &other in self.canopies.members_of(canopy) {
                let c = self.cluster_of[other as usize];
                if self.seen_clusters.insert(c.0) {
                    out.push(c);
                }
            }
        }
    }

    fn record_assignment(&mut self, item: u32, cluster: ClusterId) {
        self.cluster_of[item as usize] = cluster;
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
    fn every_item_is_in_some_canopy() {
        let ds = blob_dataset(3, 5, 8);
        let canopies = Canopies::build(&ds, &CanopyConfig::new());
        for item in 0..ds.n_items() as u32 {
            assert!(
                !canopies.canopies_of(item).is_empty(),
                "item {item} canopy-less"
            );
        }
        assert!(canopies.mean_memberships() >= 1.0);
    }

    #[test]
    fn blob_members_share_canopies() {
        let ds = blob_dataset(3, 5, 8);
        let canopies = Canopies::build(&ds, &CanopyConfig::new());
        // Items 0 and 1 (same blob, Jaccard ≈ 7/9) must co-occur.
        let a = canopies.canopies_of(0);
        let b = canopies.canopies_of(1);
        assert!(a.iter().any(|c| b.contains(c)), "{a:?} vs {b:?}");
    }

    #[test]
    fn distinct_blobs_get_distinct_canopies() {
        let ds = blob_dataset(3, 5, 8);
        let canopies = Canopies::build(&ds, &CanopyConfig::new());
        let used: std::collections::BTreeSet<u32> = (0..ds.n_items() as u32)
            .flat_map(|item| canopies.canopies_of(item).to_vec())
            .collect();
        assert!(used.len() >= 3, "only {} canopies", used.len());
        // Items of different blobs (Jaccard 0) never share a canopy.
        let a = canopies.canopies_of(0);
        let b = canopies.canopies_of(5);
        assert!(!a.iter().any(|c| b.contains(c)));
    }

    #[test]
    fn provider_shortlists_within_canopy_clusters() {
        let ds = blob_dataset(2, 4, 6);
        let canopies = Canopies::build(&ds, &CanopyConfig::new());
        let initial: Vec<ClusterId> = (0..8).map(|i| ClusterId(i / 4)).collect();
        let mut provider = CanopyProvider::new(canopies, &initial);
        let mut out = Vec::new();
        provider.shortlist(0, &mut out);
        assert!(out.contains(&ClusterId(0)));
        assert!(
            !out.contains(&ClusterId(1)),
            "cross-blob cluster leaked: {out:?}"
        );
    }

    #[test]
    fn provider_tracks_reassignments() {
        let ds = blob_dataset(2, 4, 6);
        let canopies = Canopies::build(&ds, &CanopyConfig::new());
        let initial: Vec<ClusterId> = vec![ClusterId(0); 8];
        let mut provider = CanopyProvider::new(canopies, &initial);
        provider.record_assignment(1, ClusterId(5));
        let mut out = Vec::new();
        provider.shortlist(0, &mut out);
        assert!(out.contains(&ClusterId(5)));
    }

    #[test]
    fn canopy_accelerated_clustering_works_end_to_end() {
        use crate::framework::{fit, CentroidModel, StopPolicy};
        use crate::mhkmodes::KModesModel;
        use lshclust_kmodes::assign::assign_all_full;
        use lshclust_kmodes::init::{initial_modes, InitMethod};

        let ds = blob_dataset(4, 6, 8);
        let k = 4;
        let modes = initial_modes(&ds, k, InitMethod::RandomItems, 3);
        let mut assignments = vec![ClusterId(0); ds.n_items()];
        let mut model = KModesModel::new(&ds, modes);
        assign_all_full(&ds, model.modes(), &mut assignments);
        model.update_centroids(&assignments);
        let canopies = Canopies::build(&ds, &CanopyConfig::new());
        let mut provider = CanopyProvider::new(canopies, &assignments);
        let run = fit(
            &mut model,
            &mut provider,
            assignments,
            std::time::Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
        assert!(run.summary.converged);
        // Blob purity: same-blob items share clusters.
        for g in 0..4 {
            let first = run.assignments[g * 6];
            for i in 0..6 {
                assert_eq!(run.assignments[g * 6 + i], first, "blob {g} split");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tight similarity threshold")]
    fn thresholds_validated() {
        let ds = blob_dataset(1, 2, 3);
        let mut cfg = CanopyConfig::new();
        cfg.t2_sim = 0.1; // below t1
        let _ = Canopies::build(&ds, &cfg);
    }
}
