//! Streaming extension: one-pass, LSH-routed online clustering.
//!
//! The paper closes with: "adapting our algorithm to develop an online
//! streaming clustering framework would be another exciting future research
//! topic". This module is that adaptation. Items arrive one at a time and
//! are never revisited unless a refinement pass is requested:
//!
//! 1. the arriving item is MinHashed and its band buckets are probed for
//!    colliding earlier items, whose clusters form the shortlist (exactly
//!    Algorithm 2's query, but against a *growing* index);
//! 2. the item joins the shortlisted cluster with the smallest matching
//!    dissimilarity to that cluster's (incrementally maintained) mode — or
//!    founds a new cluster when nothing is within `distance_threshold`
//!    (leader-style clustering) or the shortlist is empty;
//! 3. the item is appended to its band buckets carrying its cluster
//!    reference, and the cluster's per-attribute frequency tables (and the
//!    cached mode) are updated in `O(m)`.
//!
//! Because the search space is a shortlist rather than all clusters, the
//! per-item cost is independent of the total cluster count — the streaming
//! analogue of the paper's core claim. [`StreamingMhKModes::refine_pass`]
//! optionally re-runs assignment over everything seen so far, converging
//! toward the batch MH-K-Modes result.

use lshclust_categorical::dissimilarity::matching;
use lshclust_categorical::elements::PresentElements;
use lshclust_categorical::{ClusterId, Schema, ValueId};
use lshclust_minhash::hashfn::{FastMap, MixHashFamily};
use lshclust_minhash::index::{LshIndex, LshIndexBuilder, ShortlistScratch};
use lshclust_minhash::signature::SignatureGenerator;
use lshclust_minhash::Banding;

/// Configuration for the streaming clusterer.
#[derive(Clone, Debug)]
pub struct StreamingConfig {
    /// LSH banding for the growing index.
    pub banding: Banding,
    /// Found a new cluster when the best shortlisted mode differs from the
    /// item in more than this many attributes. `n_attrs` (the maximum
    /// distance) means "never found except on empty shortlists".
    pub distance_threshold: u32,
    /// Hard cap on clusters; when reached, items always join the best
    /// shortlisted cluster (or cluster 0 if the shortlist is empty).
    pub max_clusters: Option<usize>,
    /// Seed for the hash family.
    pub seed: u64,
    /// Threads for **batch** work ([`StreamingMhKModes::refine_pass`]);
    /// per-item `insert` is inherently sequential and ignores this. `1`
    /// (and the clamped `0`) keeps the serial Gauss–Seidel refinement;
    /// `> 1` runs a Jacobi pass fanned over this many workers.
    pub threads: usize,
}

impl StreamingConfig {
    /// Defaults: found on anything farther than half the attributes; serial
    /// refinement.
    pub fn new(banding: Banding, n_attrs: usize) -> Self {
        Self {
            banding,
            distance_threshold: (n_attrs as u32) / 2,
            max_clusters: None,
            seed: 0,
            threads: 1,
        }
    }

    /// Sets the batch-refinement thread count (`0` clamps to `1`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }
}

/// Outcome of inserting one item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The id assigned to the item (insertion order).
    pub item: u32,
    /// The cluster it joined.
    pub cluster: ClusterId,
    /// Whether the item founded a new cluster.
    pub founded_new_cluster: bool,
    /// Size of the shortlist that was searched.
    pub shortlist_len: usize,
}

/// One cluster's incremental state: per-attribute frequency tables plus the
/// cached mode (value and its count).
struct ClusterState {
    freqs: Vec<FastMap<u32, u32>>,
    mode: Vec<ValueId>,
    mode_count: Vec<u32>,
    size: u32,
}

impl ClusterState {
    fn founded_by(row: &[ValueId]) -> Self {
        let m = row.len();
        let mut freqs: Vec<FastMap<u32, u32>> = (0..m).map(|_| FastMap::default()).collect();
        for (a, v) in row.iter().enumerate() {
            freqs[a].insert(v.0, 1);
        }
        Self {
            freqs,
            mode: row.to_vec(),
            mode_count: vec![1; m],
            size: 1,
        }
    }

    /// Adds a member; `O(m)` expected.
    fn add(&mut self, row: &[ValueId]) {
        self.size += 1;
        for (a, &v) in row.iter().enumerate() {
            let count = self.freqs[a].entry(v.0).or_insert(0);
            *count += 1;
            if v == self.mode[a] {
                self.mode_count[a] = *count;
            } else if *count > self.mode_count[a] {
                // Strictly greater: ties keep the incumbent mode, which is
                // deterministic under insertion order.
                self.mode[a] = v;
                self.mode_count[a] = *count;
            }
        }
    }

    /// Removes a member (used by refinement); recomputes the affected
    /// attribute modes by a scan when the cached mode loses its majority.
    fn remove(&mut self, row: &[ValueId]) {
        debug_assert!(self.size > 0);
        self.size -= 1;
        for (a, &v) in row.iter().enumerate() {
            let count = self.freqs[a].get_mut(&v.0).expect("removing unseen value");
            *count -= 1;
            let new_count = *count;
            if new_count == 0 {
                self.freqs[a].remove(&v.0);
            }
            if v == self.mode[a] {
                // The cached mode shrank: rescan this attribute's table.
                // Deterministic tie-break: highest count, then smallest value.
                let best = self.freqs[a]
                    .iter()
                    .map(|(&val, &c)| (c, std::cmp::Reverse(val)))
                    .max()
                    .map(|(c, std::cmp::Reverse(val))| (ValueId(val), c));
                match best {
                    Some((val, c)) => {
                        self.mode[a] = val;
                        self.mode_count[a] = c;
                    }
                    None => {
                        // Cluster emptied on this attribute; keep the stale
                        // mode (empty clusters keep their centroid).
                        self.mode_count[a] = 0;
                    }
                }
            }
        }
    }
}

/// The streaming MH-K-Modes clusterer.
pub struct StreamingMhKModes {
    config: StreamingConfig,
    schema: Schema,
    n_attrs: usize,
    generator: SignatureGenerator<MixHashFamily>,
    /// The growing item index: band keys, buckets and cluster references.
    index: LshIndex,
    /// Stored rows (needed for refinement and distance updates).
    rows: Vec<ValueId>,
    clusters: Vec<ClusterState>,
    // reusable scratch
    sig_buf: Vec<u64>,
    key_buf: Vec<u64>,
    scratch: ShortlistScratch,
}

impl std::fmt::Debug for StreamingMhKModes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingMhKModes")
            .field("n_items", &self.n_items())
            .field("n_clusters", &self.n_clusters())
            .field("banding", &self.config.banding)
            .finish()
    }
}

impl StreamingMhKModes {
    /// Creates an empty streaming clusterer for items under `schema`.
    pub fn new(config: StreamingConfig, schema: Schema) -> Self {
        let family = MixHashFamily::new(config.banding.signature_len(), config.seed);
        let index = LshIndexBuilder::new(config.banding).build_from_band_keys(Vec::new(), &[]);
        Self {
            config,
            n_attrs: schema.n_attrs(),
            schema,
            generator: SignatureGenerator::new(family),
            index,
            rows: Vec::new(),
            clusters: Vec::new(),
            sig_buf: Vec::new(),
            key_buf: Vec::new(),
            scratch: ShortlistScratch::new(0, 0),
        }
    }

    /// Items inserted so far.
    pub fn n_items(&self) -> usize {
        self.index.n_items()
    }

    /// The schema items are interpreted under.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configuration in use.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// Snapshots the current cluster modes as a `k × n_attrs`
    /// [`Modes`](lshclust_kmodes::modes::Modes) matrix — the hand-off
    /// point to a servable
    /// `lshclust::FittedModel` (clusters discovered so far become frozen
    /// centroids; the stream keeps running independently).
    pub fn snapshot_modes(&self) -> lshclust_kmodes::modes::Modes {
        let mut values = Vec::with_capacity(self.clusters.len() * self.n_attrs);
        for cluster in &self.clusters {
            values.extend_from_slice(&cluster.mode);
        }
        lshclust_kmodes::modes::Modes::from_parts(self.clusters.len(), self.n_attrs, values)
    }

    /// Clusters founded so far.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Current assignment of every inserted item.
    pub fn assignments(&self) -> &[ClusterId] {
        self.index.clusters()
    }

    /// Current mode of cluster `c`.
    pub fn mode(&self, c: ClusterId) -> &[ValueId] {
        &self.clusters[c.idx()].mode
    }

    /// Current size of cluster `c`.
    pub fn cluster_size(&self, c: ClusterId) -> u32 {
        self.clusters[c.idx()].size
    }

    fn compute_band_keys(&mut self, row: &[ValueId]) {
        self.generator
            .signature_into(PresentElements::new(&self.schema, row), &mut self.sig_buf);
        self.config
            .banding
            .band_keys_into(&self.sig_buf, &mut self.key_buf);
    }

    /// Grows the query scratch with the index and the cluster count.
    fn fit_scratch(&mut self) {
        self.scratch.grow(self.n_items(), self.clusters.len());
    }

    /// Inserts one item, returning where it went.
    ///
    /// Panics if the row arity disagrees with the schema.
    pub fn insert(&mut self, row: &[ValueId]) -> InsertOutcome {
        assert_eq!(row.len(), self.n_attrs, "row arity mismatch");
        let item = u32::try_from(self.n_items()).expect("stream exceeds u32 items");
        self.compute_band_keys(row);
        self.fit_scratch();
        self.index
            .shortlist_for_band_keys(&self.key_buf, &mut self.scratch);
        let shortlist_len = self.scratch.clusters.len();

        let best = best_for(&self.clusters, row, &self.scratch.clusters);
        let can_found = self
            .config
            .max_clusters
            .is_none_or(|cap| self.clusters.len() < cap);
        let (cluster, founded) = match best {
            Some((c, d)) if d <= self.config.distance_threshold || !can_found => (c, false),
            Some(_) | None if can_found && !self.clusters.is_empty() => {
                (ClusterId(self.clusters.len() as u32), true)
            }
            None if self.clusters.is_empty() => (ClusterId(0), true),
            Some((c, _)) => (c, false),
            None => (ClusterId(0), false), // cap reached, nothing similar: join cluster 0
        };

        if founded {
            self.clusters.push(ClusterState::founded_by(row));
        } else {
            self.clusters[cluster.idx()].add(row);
        }
        self.rows.extend_from_slice(row);
        self.index.push(&self.key_buf, cluster);

        InsertOutcome {
            item,
            cluster,
            founded_new_cluster: founded,
            shortlist_len,
        }
    }

    fn row_of(&self, item: u32) -> &[ValueId] {
        let s = item as usize * self.n_attrs;
        &self.rows[s..s + self.n_attrs]
    }

    /// One refinement pass over all inserted items: each is re-shortlisted
    /// (using its stored band keys) and moved to the best candidate cluster,
    /// with both clusters' frequency tables updated incrementally. Returns
    /// the number of moves; call until 0 to converge toward the batch result.
    ///
    /// With `config.threads > 1` this dispatches to
    /// [`Self::refine_pass_parallel`] (Jacobi); the serial pass below is
    /// Gauss–Seidel (a move is visible to later items of the same pass).
    pub fn refine_pass(&mut self) -> usize {
        if self.config.threads > 1 {
            return self.refine_pass_parallel(self.config.threads);
        }
        self.fit_scratch();
        let mut moves = 0usize;
        for item in 0..self.n_items() as u32 {
            // Reuse the stored band keys (signatures never change).
            self.index.shortlist(item, &mut self.scratch, false);
            let best = best_for(&self.clusters, self.row_of(item), &self.scratch.clusters);
            let Some((best_c, _)) = best else { continue };
            let current = self.index.cluster_of(item);
            if best_c != current {
                let row: Vec<ValueId> = self.row_of(item).to_vec();
                self.clusters[current.idx()].remove(&row);
                self.clusters[best_c.idx()].add(&row);
                self.index.set_cluster(item, best_c);
                moves += 1;
            }
        }
        moves
    }

    /// One **Jacobi** refinement pass fanned over `threads` workers: every
    /// item's best candidate cluster is computed against the frozen
    /// start-of-pass state (buckets, cluster references, modes), then the
    /// moves are revalidated against the live modes and applied in item
    /// order with the usual incremental frequency updates. Returns the
    /// number of applied moves, so `while refine_pass() > 0` terminates
    /// exactly as it does on the serial path.
    ///
    /// Candidate decisions depend only on the frozen state and the apply
    /// filter runs sequentially, so the outcome is identical at any thread
    /// count (including 1); it may differ from the Gauss–Seidel
    /// [`Self::refine_pass`] by an iteration of convergence.
    pub fn refine_pass_parallel(&mut self, threads: usize) -> usize {
        let threads = threads.max(1);
        let n = self.n_items();
        let (index, clusters, rows) = (&self.index, &self.clusters, &self.rows);
        let n_attrs = self.n_attrs;
        let targets: Vec<u32> = crate::parallel::chunked_map(
            n,
            threads,
            || index.make_scratch(clusters.len()),
            |item, scratch| {
                index.shortlist(item, scratch, false);
                let i = item as usize;
                let row = &rows[i * n_attrs..(i + 1) * n_attrs];
                match best_for(clusters, row, &scratch.clusters) {
                    Some((c, _)) => c.0,
                    None => index.cluster_of(item).0,
                }
            },
        );
        let mut moves = 0usize;
        for (item, &target) in targets.iter().enumerate() {
            let target = ClusterId(target);
            let current = self.index.cluster_of(item as u32);
            if target == current {
                continue;
            }
            // Revalidate the frozen-state candidate against the *live* modes
            // before applying (same acceptance rule as the serial pass:
            // strictly closer, or equally close with a lower id). Without
            // this, pairs of Jacobi decisions taken against the same frozen
            // state can undo each other forever and `while refine_pass() > 0`
            // would never terminate; with it, every applied move improves
            // the live objective, preserving the serial pass's termination
            // guarantee. Decisions stay deterministic at any thread count:
            // the candidates are thread-count independent and this filter
            // runs sequentially in item order.
            let row: Vec<ValueId> = self.row_of(item as u32).to_vec();
            let d_target = matching(&row, &self.clusters[target.idx()].mode);
            let d_current = matching(&row, &self.clusters[current.idx()].mode);
            if d_target < d_current || (d_target == d_current && target < current) {
                self.clusters[current.idx()].remove(&row);
                self.clusters[target.idx()].add(&row);
                self.index.set_cluster(item as u32, target);
                moves += 1;
            }
        }
        moves
    }
}

/// Best shortlisted cluster for `row` (smallest matching dissimilarity to
/// the cluster mode, ties to the lowest cluster id) — the search kernel of
/// both refinement passes and the inserter.
fn best_for(
    clusters: &[ClusterState],
    row: &[ValueId],
    shortlist: &[ClusterId],
) -> Option<(ClusterId, u32)> {
    let mut best: Option<(ClusterId, u32)> = None;
    for &c in shortlist {
        let d = matching(row, &clusters[c.idx()].mode);
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

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::Dataset;
    use lshclust_datagen::datgen::{generate, DatgenConfig};

    fn config(n_attrs: usize) -> StreamingConfig {
        StreamingConfig::new(Banding::new(16, 2), n_attrs)
    }

    fn rule_dataset() -> Dataset {
        generate(&DatgenConfig::new(200, 10, 20).seed(5))
    }

    #[test]
    fn first_item_founds_cluster_zero() {
        let mut s = StreamingMhKModes::new(config(3), Schema::anonymous(3));
        let out = s.insert(&[ValueId(1), ValueId(2), ValueId(3)]);
        assert_eq!(out.cluster, ClusterId(0));
        assert!(out.founded_new_cluster);
        assert_eq!(out.shortlist_len, 0);
        assert_eq!(s.n_clusters(), 1);
    }

    #[test]
    fn identical_items_share_a_cluster() {
        let mut s = StreamingMhKModes::new(config(3), Schema::anonymous(3));
        let row = [ValueId(1), ValueId(2), ValueId(3)];
        s.insert(&row);
        let out = s.insert(&row);
        assert_eq!(out.cluster, ClusterId(0));
        assert!(!out.founded_new_cluster);
        assert_eq!(s.cluster_size(ClusterId(0)), 2);
    }

    #[test]
    fn dissimilar_items_found_new_clusters() {
        let mut s = StreamingMhKModes::new(config(3), Schema::anonymous(3));
        s.insert(&[ValueId(1), ValueId(2), ValueId(3)]);
        let out = s.insert(&[ValueId(10), ValueId(20), ValueId(30)]);
        assert!(out.founded_new_cluster);
        assert_eq!(s.n_clusters(), 2);
    }

    #[test]
    fn max_clusters_cap_is_enforced() {
        let mut cfg = config(2);
        cfg.max_clusters = Some(2);
        cfg.distance_threshold = 0; // always prefer founding
        let mut s = StreamingMhKModes::new(cfg, Schema::anonymous(2));
        for i in 0..10u32 {
            s.insert(&[ValueId(i * 7), ValueId(i * 13)]);
        }
        assert!(s.n_clusters() <= 2);
        assert_eq!(s.n_items(), 10);
    }

    #[test]
    fn streaming_recovers_rule_clusters() {
        let ds = rule_dataset();
        let mut s = StreamingMhKModes::new(
            StreamingConfig::new(Banding::new(16, 2), ds.n_attrs()),
            ds.schema().clone(),
        );
        for i in 0..ds.n_items() {
            s.insert(ds.row(i));
        }
        // Same-label items should overwhelmingly share clusters.
        let labels = ds.labels().unwrap();
        let pred: Vec<u32> = s.assignments().iter().map(|c| c.0).collect();
        let purity = lshclust_metrics::purity(&pred, labels);
        assert!(purity > 0.8, "streaming purity {purity}");
        // And without a cap, the cluster count should be in the right ballpark
        // (not one-per-item, not a single blob).
        assert!(
            s.n_clusters() >= 10 && s.n_clusters() < 100,
            "{} clusters",
            s.n_clusters()
        );
    }

    #[test]
    fn per_item_shortlist_stays_small() {
        let ds = rule_dataset();
        let mut s = StreamingMhKModes::new(
            StreamingConfig::new(Banding::new(16, 2), ds.n_attrs()),
            ds.schema().clone(),
        );
        let mut total = 0usize;
        for i in 0..ds.n_items() {
            total += s.insert(ds.row(i)).shortlist_len;
        }
        let avg = total as f64 / ds.n_items() as f64;
        assert!(avg < 5.0, "avg streaming shortlist {avg}");
    }

    #[test]
    fn modes_track_majorities_incrementally() {
        let mut s = StreamingMhKModes::new(config(2), Schema::anonymous(2));
        s.insert(&[ValueId(1), ValueId(5)]);
        s.insert(&[ValueId(1), ValueId(6)]);
        s.insert(&[ValueId(1), ValueId(6)]);
        assert_eq!(s.n_clusters(), 1);
        assert_eq!(s.mode(ClusterId(0)), &[ValueId(1), ValueId(6)]);
    }

    #[test]
    fn refine_pass_reaches_fixpoint() {
        let ds = rule_dataset();
        let mut s = StreamingMhKModes::new(
            StreamingConfig::new(Banding::new(16, 2), ds.n_attrs()),
            ds.schema().clone(),
        );
        for i in 0..ds.n_items() {
            s.insert(ds.row(i));
        }
        let mut last = usize::MAX;
        for _ in 0..10 {
            let moves = s.refine_pass();
            assert!(moves <= ds.n_items());
            last = moves;
            if moves == 0 {
                break;
            }
        }
        assert_eq!(last, 0, "refinement did not converge");
        // Cluster sizes still sum to n.
        let total: u32 = (0..s.n_clusters())
            .map(|c| s.cluster_size(ClusterId(c as u32)))
            .sum();
        assert_eq!(total as usize, ds.n_items());
    }

    #[test]
    fn refine_improves_or_maintains_purity() {
        let ds = rule_dataset();
        let labels = ds.labels().unwrap();
        let mut s = StreamingMhKModes::new(
            StreamingConfig::new(Banding::new(8, 2), ds.n_attrs()),
            ds.schema().clone(),
        );
        for i in 0..ds.n_items() {
            s.insert(ds.row(i));
        }
        let before: Vec<u32> = s.assignments().iter().map(|c| c.0).collect();
        let p_before = lshclust_metrics::purity(&before, labels);
        for _ in 0..5 {
            if s.refine_pass() == 0 {
                break;
            }
        }
        let after: Vec<u32> = s.assignments().iter().map(|c| c.0).collect();
        let p_after = lshclust_metrics::purity(&after, labels);
        assert!(
            p_after >= p_before - 0.05,
            "purity degraded: {p_before} -> {p_after}"
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut s = StreamingMhKModes::new(config(3), Schema::anonymous(3));
        s.insert(&[ValueId(1)]);
    }
}
