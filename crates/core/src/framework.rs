//! The algorithm-agnostic acceleration framework.
//!
//! The paper presents its idea as "a general framework to accelerate existing
//! clustering algorithms … applied to a set of centroid-based clustering
//! algorithms that assign an object to the most similar cluster". This module
//! is that framework, reduced to two traits and one driver:
//!
//! * a [`CentroidModel`] owns the centroids and knows how to (a) find the
//!   best centroid for an item among a candidate set, and (b) refresh the
//!   centroids from assignments;
//! * a [`ShortlistProvider`] owns the LSH index and knows how to (a) produce
//!   the candidate-cluster shortlist for an item and (b) record assignment
//!   changes (Algorithm 2's cluster-reference update);
//! * [`fit`] alternates shortlisted assignment passes with centroid updates
//!   until convergence, instrumenting every pass.
//!
//! `MH-K-Modes` is `fit` applied to a K-Modes model and a MinHash provider;
//! the K-Means/SimHash extension reuses the identical driver, demonstrating
//! the framework's generality.

use lshclust_categorical::ClusterId;
use lshclust_kmodes::stats::{IterationStats, RunSummary};
use std::time::Instant;

/// A centroid-based clustering algorithm, abstracted to what the framework
/// needs. Distances are surfaced as `f64` so categorical (integer mismatch
/// counts) and numeric (squared Euclidean) models fit the same interface.
pub trait CentroidModel {
    /// Owned copy of the centroid state. The driver snapshots it before each
    /// pass so a cost-increasing final pass can be rolled back (the paper's
    /// "cost has minimised" criterion keeps the *minimising* state).
    type Snapshot;

    /// Number of clusters `k`.
    fn k(&self) -> usize;

    /// Number of items.
    fn n_items(&self) -> usize;

    /// Full search: the best cluster for `item` over all `k` centroids.
    fn best_full(&self, item: u32) -> (ClusterId, f64);

    /// Restricted search over `candidates`; `None` iff the slice is empty.
    fn best_among(&self, item: u32, candidates: &[ClusterId]) -> Option<(ClusterId, f64)>;

    /// Recomputes all centroids from `assignments` and reports which
    /// clusters' centroid values actually **changed** — the seed of the next
    /// iteration's [`ActivitySet`]. A cluster whose recomputed centroid
    /// equals its previous value (including empty clusters, which keep their
    /// centroid) must come back inactive, or the closure engine loses its
    /// skipping power; a cluster that changed must come back active, or
    /// byte-identity breaks.
    fn update_centroids(&mut self, assignments: &[ClusterId]) -> ActivitySet;

    /// Like [`Self::update_centroids`], but free to fan the recomputation
    /// over `threads` workers. Implementations must stay **deterministic**:
    /// the result may not depend on the thread count (the per-family models
    /// recompute cluster-by-cluster, which is bit-identical to the serial
    /// update at any thread count). The default delegates to the serial
    /// update.
    fn update_centroids_parallel(
        &mut self,
        assignments: &[ClusterId],
        threads: usize,
    ) -> ActivitySet {
        let _ = threads;
        self.update_centroids(assignments)
    }

    /// Captures the current centroid state for [`Self::restore_centroids`].
    fn snapshot_centroids(&self) -> Self::Snapshot;

    /// Restores a state captured by [`Self::snapshot_centroids`].
    fn restore_centroids(&mut self, snapshot: Self::Snapshot);

    /// Total cost of `assignments` under the current centroids.
    fn total_cost(&self, assignments: &[ClusterId]) -> f64;
}

/// The cluster search-space reducer (the LSH index of the paper).
pub trait ShortlistProvider {
    /// Writes the candidate clusters for `item` into `out` (cleared first).
    ///
    /// Implementations should include the item's *current* cluster whenever
    /// the item is indexed (self-collision) — the framework falls back to
    /// "stay put" if the shortlist comes back empty.
    fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>);

    /// Records that `item` is now assigned to `cluster` (Algorithm 2's
    /// reference update, performed after every move).
    fn record_assignment(&mut self, item: u32, cluster: ClusterId);
}

/// Convergence controls for [`fit`] — the single iteration policy shared by
/// every algorithm family (the per-config `max_iterations` fields this
/// replaces now live here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StopPolicy {
    /// Iteration cap.
    pub max_iterations: usize,
    /// Stop when an iteration makes no moves.
    pub stop_on_no_moves: bool,
    /// Stop when the cost fails to decrease (the paper's "cost has
    /// minimised" criterion). Shortlisted assignment is not guaranteed
    /// monotone, so this also guards against oscillation.
    pub stop_on_cost_increase: bool,
}

impl Default for StopPolicy {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            stop_on_no_moves: true,
            stop_on_cost_increase: true,
        }
    }
}

impl StopPolicy {
    /// The default policy with an explicit iteration cap — the common case.
    pub fn max_iterations(n: usize) -> Self {
        Self {
            max_iterations: n,
            ..Self::default()
        }
    }
}

serde::impl_serde_struct!(StopPolicy {
    max_iterations,
    stop_on_no_moves,
    stop_on_cost_increase
});

/// Which clusters are **active** — their centroid moved, or an item moved in
/// or out of them — going into an assignment pass. The heart of the
/// cluster-closure engine ("Fast Approximate K-Means via Cluster Closures"):
/// an item whose cached candidate shortlist touches no active cluster cannot
/// change its answer, so the pass skips it wholesale while staying
/// **byte-identical** to full re-evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActivitySet {
    active: Vec<bool>,
    count: usize,
}

impl ActivitySet {
    /// All `k` clusters active — the first iteration's state (every centroid
    /// was just initialised or refreshed, nothing can be skipped).
    pub fn all(k: usize) -> Self {
        Self {
            active: vec![true; k],
            count: k,
        }
    }

    /// No cluster active.
    pub fn none(k: usize) -> Self {
        Self {
            active: vec![false; k],
            count: 0,
        }
    }

    /// Rebuilds a set from the active cluster ids of [`Self::to_clusters`]
    /// (the shard wire form). Out-of-range ids are ignored.
    pub fn from_clusters(k: usize, clusters: &[u32]) -> Self {
        let mut set = Self::none(k);
        for &c in clusters {
            if (c as usize) < k {
                set.mark(ClusterId(c));
            }
        }
        set
    }

    /// Number of clusters the set ranges over.
    pub fn k(&self) -> usize {
        self.active.len()
    }

    /// Marks `cluster` active (idempotent).
    pub fn mark(&mut self, cluster: ClusterId) {
        let slot = &mut self.active[cluster.idx()];
        if !*slot {
            *slot = true;
            self.count += 1;
        }
    }

    /// Number of active clusters.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether any of `clusters` is active — the per-item skip test. An
    /// empty slice has no active member, and an item whose shortlist is
    /// empty is always skippable (the legacy pass keeps its assignment on an
    /// empty shortlist too).
    pub fn any_active_in(&self, clusters: &[ClusterId]) -> bool {
        clusters.iter().any(|&c| self.active[c.idx()])
    }

    /// The active cluster ids in ascending order (the shard wire form).
    pub fn to_clusters(&self) -> Vec<u32> {
        self.active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(c, _)| c as u32)
            .collect()
    }
}

/// Per-item cached shortlists for the closure engine. An entry is the exact
/// candidate list the provider returned the last time the item was
/// re-evaluated; while every cached cluster stays inactive, a fresh query
/// would return the same list (the index's bucketing is static and no
/// co-bucketed item has moved), so the cache substitutes for the query.
pub struct ShortlistCache {
    pub(crate) lists: Vec<Vec<ClusterId>>,
    pub(crate) valid: Vec<bool>,
}

impl ShortlistCache {
    /// An empty (all-invalid) cache for `n` items.
    pub fn new(n: usize) -> Self {
        Self {
            lists: vec![Vec::new(); n],
            valid: vec![false; n],
        }
    }

    /// Invalidates every entry (after a full-assignment reset, e.g. a shard
    /// worker's `AssignFull`), keeping the allocated lists for reuse.
    pub fn invalidate_all(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
    }

    /// Number of items the cache covers.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the cache covers zero items.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }
}

/// What one assignment pass did — returned by [`assign_once`] and
/// [`assign_full`] so callers can drive their own convergence logic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssignOutcome {
    /// Items that changed cluster during the pass.
    pub moves: usize,
    /// Summed shortlist sizes over all items (for `avg_candidates`; equals
    /// `n × k` for a full-search pass). Skipped items contribute their
    /// cached shortlist length — exactly what a fresh query would have
    /// returned — so the average is identical with closures on or off.
    pub shortlist_total: usize,
    /// Items whose re-evaluation the closure engine skipped (`0` for
    /// closure-free passes).
    pub skipped: usize,
}

/// One **shortlisted assignment pass** (Algorithm 2's modified assignment
/// step, extracted from the [`fit`] loop so serving paths can reuse it):
/// each item is shortlisted, searched among its candidates, and moved —
/// with the provider's cluster reference updated — when a better cluster is
/// found. Items with an empty shortlist keep their current assignment.
///
/// The pass is Gauss–Seidel: a move is visible to later items of the same
/// pass through the provider's cluster references.
pub fn assign_once<M: CentroidModel, P: ShortlistProvider>(
    model: &M,
    provider: &mut P,
    assignments: &mut [ClusterId],
) -> AssignOutcome {
    assert_eq!(
        assignments.len(),
        model.n_items(),
        "one starting assignment per item"
    );
    let mut outcome = AssignOutcome::default();
    let mut shortlist = Vec::new();
    for item in 0..assignments.len() as u32 {
        provider.shortlist(item, &mut shortlist);
        outcome.shortlist_total += shortlist.len();
        let current = assignments[item as usize];
        let chosen = match model.best_among(item, &shortlist) {
            Some((c, _)) => c,
            // Empty shortlist (only possible when self-collision is
            // disabled): keep the current assignment.
            None => current,
        };
        if chosen != current {
            assignments[item as usize] = chosen;
            outcome.moves += 1;
            provider.record_assignment(item, chosen);
        }
    }
    outcome
}

/// [`assign_once`] with cluster-closure skipping: an item whose cached
/// shortlist touches no active cluster keeps its assignment without being
/// re-shortlisted or re-scored — **byte-identical** to the plain pass.
///
/// Why identity holds for the Gauss–Seidel pass: an item's fresh shortlist
/// (content *and* order) and its candidate distances can only differ from
/// its cached evaluation if (a) a cached cluster's centroid changed, or
/// (b) some co-bucketed item changed cluster since the cache was filled.
/// (a) is covered because centroid changes are marked active by
/// `update_centroids`. For (b), consider the *first* co-bucketed move after
/// the cache fill: the moving item's old cluster at that moment is one the
/// cached shortlist already contains (a co-bucketed item's cluster appears
/// in the shortlist), and both endpoints of every move are marked active —
/// by the previous pass's endpoint diff in `drive`, or by `live` below
/// when the move happens *earlier in the same pass* (Gauss–Seidel makes
/// moves visible to later items immediately, hence the live marking).
/// Either way the skip test fails and the item is re-evaluated before any
/// stale answer could be returned.
pub fn assign_once_closures<M: CentroidModel, P: ShortlistProvider>(
    model: &M,
    provider: &mut P,
    assignments: &mut [ClusterId],
    activity: &ActivitySet,
    cache: &mut ShortlistCache,
) -> AssignOutcome {
    assert_eq!(
        assignments.len(),
        model.n_items(),
        "one starting assignment per item"
    );
    assert_eq!(cache.len(), assignments.len(), "one cache entry per item");
    let mut outcome = AssignOutcome::default();
    let mut live = activity.clone();
    for item in 0..assignments.len() as u32 {
        let slot = item as usize;
        if cache.valid[slot] && !live.any_active_in(&cache.lists[slot]) {
            outcome.shortlist_total += cache.lists[slot].len();
            outcome.skipped += 1;
            continue;
        }
        provider.shortlist(item, &mut cache.lists[slot]);
        cache.valid[slot] = true;
        outcome.shortlist_total += cache.lists[slot].len();
        let current = assignments[slot];
        let chosen = match model.best_among(item, &cache.lists[slot]) {
            Some((c, _)) => c,
            None => current,
        };
        if chosen != current {
            assignments[slot] = chosen;
            outcome.moves += 1;
            provider.record_assignment(item, chosen);
            // Later items of this pass see the move through the provider's
            // references; both endpoints go active immediately.
            live.mark(current);
            live.mark(chosen);
        }
    }
    outcome
}

/// One **full-search assignment pass** over all `k` centroids — the
/// baseline step every family shares, and the initial pass of every
/// accelerated run (the paper's step 2).
pub fn assign_full<M: CentroidModel>(model: &M, assignments: &mut [ClusterId]) -> AssignOutcome {
    assert_eq!(
        assignments.len(),
        model.n_items(),
        "one starting assignment per item"
    );
    let mut moves = 0usize;
    for (item, slot) in assignments.iter_mut().enumerate() {
        let (c, _) = model.best_full(item as u32);
        if c != *slot {
            moves += 1;
            *slot = c;
        }
    }
    AssignOutcome {
        moves,
        shortlist_total: assignments.len() * model.k(),
        skipped: 0,
    }
}

/// Outcome of an accelerated run.
#[derive(Clone, Debug)]
pub struct AcceleratedRun {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Instrumentation (per-iteration time, moves, avg shortlist, cost).
    pub summary: RunSummary,
}

/// Drives shortlisted assignment / centroid update rounds to convergence.
///
/// `assignments` supplies the starting state (for MH-K-Modes, the result of
/// the initial full assignment pass); `setup` is the time already spent
/// producing it (initial assignment + index build), carried into the summary
/// so total-time comparisons include it, as the paper requires.
pub fn fit<M: CentroidModel, P: ShortlistProvider>(
    model: &mut M,
    provider: &mut P,
    assignments: Vec<ClusterId>,
    setup: std::time::Duration,
    config: &StopPolicy,
    closures: bool,
) -> AcceleratedRun {
    let mut cache = ShortlistCache::new(model.n_items());
    drive(
        model,
        assignments,
        setup,
        config,
        |model, assignments, activity| {
            if closures {
                assign_once_closures(model, provider, assignments, activity, &mut cache)
            } else {
                assign_once(model, provider, assignments)
            }
        },
        |model, assignments| model.update_centroids(assignments),
    )
}

/// The **one** iteration driver every fit path shares — serial
/// (Gauss–Seidel, through [`fit`]) and parallel (Jacobi, through
/// [`crate::parallel::parallel_fit`]) differ only in the `pass` and `update`
/// strategies they plug in; iteration accounting and stop logic live here.
///
/// Stop criteria:
/// * `stop_on_no_moves` — a pass moved nothing; the state is a fixpoint.
/// * `stop_on_cost_increase` — the paper's "cost has minimised" criterion.
///   A pass whose cost comes back **strictly worse** than the previous
///   iteration is rolled back (assignments and centroids), so the run always
///   returns the minimising state. The offending pass stays in the
///   instrumentation record (its time was really spent, and the exact
///   baselines record their stopping pass the same way), so after a
///   rollback `RunSummary::final_cost` — the *last recorded pass* — is the
///   undone cost; `RunSummary::best_cost` carries the returned state's.
///
/// Both stops report `converged: true`; only exhausting `max_iterations`
/// reports `false`.
///
/// The driver also owns the **activity dataflow** of the closure engine:
/// each `pass` receives the [`ActivitySet`] for this iteration (all `k`
/// clusters on iteration 1); the next iteration's set is what `update`
/// reports changed, unioned with both endpoints of every move the pass made
/// (diffed here from the pre-pass assignments — O(n) compares, negligible
/// against the pass itself, and always computed so `active_clusters` is
/// recorded identically with closures on or off).
pub(crate) fn drive<M: CentroidModel>(
    model: &mut M,
    mut assignments: Vec<ClusterId>,
    setup: std::time::Duration,
    config: &StopPolicy,
    mut pass: impl FnMut(&M, &mut Vec<ClusterId>, &ActivitySet) -> AssignOutcome,
    mut update: impl FnMut(&mut M, &[ClusterId]) -> ActivitySet,
) -> AcceleratedRun {
    assert_eq!(
        assignments.len(),
        model.n_items(),
        "one starting assignment per item"
    );
    let n = model.n_items();
    let mut iterations = Vec::new();
    let mut converged = false;
    let mut prev_cost = f64::INFINITY;
    // Pre-pass state for cost-increase rollback. The assignment buffer is
    // allocated once and refilled per iteration (`clone_from` reuses its
    // capacity); the centroid snapshot is the only per-iteration clone, and
    // it is O(k·m) against the pass's O(n·m·shortlist).
    let mut prev_assignments: Vec<ClusterId> = Vec::new();
    let mut prev_centroids: Option<M::Snapshot> = None;
    let mut activity = ActivitySet::all(model.k());
    let mut pre_pass: Vec<ClusterId> = Vec::new();
    for iteration in 1..=config.max_iterations {
        let t = Instant::now();
        if config.stop_on_cost_increase {
            prev_assignments.clone_from(&assignments);
            prev_centroids = Some(model.snapshot_centroids());
        }
        pre_pass.clone_from(&assignments);
        let active_clusters = activity.count();
        let outcome = pass(model, &mut assignments, &activity);
        let moves = outcome.moves;
        let mut next_activity = update(model, &assignments);
        for (&old, &new) in pre_pass.iter().zip(&assignments) {
            if old != new {
                next_activity.mark(old);
                next_activity.mark(new);
            }
        }
        activity = next_activity;
        let cost = model.total_cost(&assignments);
        iterations.push(IterationStats {
            iteration,
            duration: t.elapsed(),
            moves,
            avg_candidates: if n == 0 {
                0.0
            } else {
                outcome.shortlist_total as f64 / n as f64
            },
            cost: cost as u64,
            skipped_items: outcome.skipped,
            active_clusters,
        });
        if config.stop_on_no_moves && moves == 0 {
            converged = true;
            break;
        }
        if config.stop_on_cost_increase && cost >= prev_cost {
            if cost > prev_cost {
                // The final pass made things strictly worse: restore the
                // previous pass's assignments and centroids so the returned
                // cost is the minimum over the recorded iterations.
                std::mem::swap(&mut assignments, &mut prev_assignments);
                model.restore_centroids(
                    prev_centroids
                        .take()
                        .expect("rollback state exists when the criterion is armed"),
                );
            }
            converged = true;
            break;
        }
        prev_cost = cost;
    }
    AcceleratedRun {
        assignments,
        summary: RunSummary {
            iterations,
            converged,
            setup,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A 1-D toy model: items and centroids are integers, distance is |a−b|.
    /// Centroid update moves each centroid to the rounded mean of its items.
    struct LineModel {
        items: Vec<i64>,
        centroids: Vec<i64>,
    }

    impl CentroidModel for LineModel {
        type Snapshot = Vec<i64>;
        fn snapshot_centroids(&self) -> Vec<i64> {
            self.centroids.clone()
        }
        fn restore_centroids(&mut self, snapshot: Vec<i64>) {
            self.centroids = snapshot;
        }
        fn k(&self) -> usize {
            self.centroids.len()
        }
        fn n_items(&self) -> usize {
            self.items.len()
        }
        fn best_full(&self, item: u32) -> (ClusterId, f64) {
            let x = self.items[item as usize];
            let (c, d) = self
                .centroids
                .iter()
                .enumerate()
                .map(|(c, &v)| (c, (x - v).abs()))
                .min_by_key(|&(c, d)| (d, c))
                .unwrap();
            (ClusterId(c as u32), d as f64)
        }
        fn best_among(&self, item: u32, candidates: &[ClusterId]) -> Option<(ClusterId, f64)> {
            let x = self.items[item as usize];
            candidates
                .iter()
                .map(|&c| (c, (x - self.centroids[c.idx()]).abs()))
                .min_by_key(|&(c, d)| (d, c))
                .map(|(c, d)| (c, d as f64))
        }
        fn update_centroids(&mut self, assignments: &[ClusterId]) -> ActivitySet {
            let k = self.k();
            let mut sums = vec![0i64; k];
            let mut counts = vec![0i64; k];
            for (i, &c) in assignments.iter().enumerate() {
                sums[c.idx()] += self.items[i];
                counts[c.idx()] += 1;
            }
            let mut activity = ActivitySet::none(k);
            for c in 0..k {
                if counts[c] > 0 {
                    let new = sums[c] / counts[c];
                    if new != self.centroids[c] {
                        activity.mark(ClusterId(c as u32));
                    }
                    self.centroids[c] = new;
                }
            }
            activity
        }
        fn total_cost(&self, assignments: &[ClusterId]) -> f64 {
            assignments
                .iter()
                .enumerate()
                .map(|(i, &c)| (self.items[i] - self.centroids[c.idx()]).abs() as f64)
                .sum()
        }
    }

    /// A provider that always offers every cluster (degenerate but exact).
    struct FullProvider {
        k: usize,
    }

    impl ShortlistProvider for FullProvider {
        fn shortlist(&mut self, _item: u32, out: &mut Vec<ClusterId>) {
            out.clear();
            out.extend((0..self.k as u32).map(ClusterId));
        }
        fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {}
    }

    /// A provider that only ever offers the item's current cluster — the
    /// pathological lower bound (no exploration at all).
    struct FrozenProvider {
        current: Vec<ClusterId>,
    }

    impl ShortlistProvider for FrozenProvider {
        fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
            out.clear();
            out.push(self.current[item as usize]);
        }
        fn record_assignment(&mut self, item: u32, cluster: ClusterId) {
            self.current[item as usize] = cluster;
        }
    }

    fn line_model() -> LineModel {
        LineModel {
            items: vec![0, 1, 2, 100, 101, 102],
            centroids: vec![2, 100],
        }
    }

    #[test]
    fn full_provider_reaches_exact_clustering() {
        let mut model = line_model();
        let mut provider = FullProvider { k: 2 };
        let start = vec![ClusterId(0); 6];
        let run = fit(
            &mut model,
            &mut provider,
            start,
            Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
        assert!(run.summary.converged);
        assert_eq!(run.assignments[..3], [ClusterId(0); 3]);
        assert_eq!(run.assignments[3..], [ClusterId(1); 3]);
        assert_eq!(model.centroids, vec![1, 101]);
    }

    #[test]
    fn frozen_provider_never_moves_anything() {
        let mut model = line_model();
        let start = vec![ClusterId(0); 6];
        let mut provider = FrozenProvider {
            current: start.clone(),
        };
        let run = fit(
            &mut model,
            &mut provider,
            start.clone(),
            Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
        assert_eq!(run.assignments, start);
        assert_eq!(run.summary.n_iterations(), 1); // 0 moves → immediate stop
        assert!(run.summary.converged);
    }

    #[test]
    fn avg_candidates_is_recorded() {
        let mut model = line_model();
        let mut provider = FullProvider { k: 2 };
        let run = fit(
            &mut model,
            &mut provider,
            vec![ClusterId(0); 6],
            Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
        for s in &run.summary.iterations {
            assert_eq!(s.avg_candidates, 2.0);
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let mut model = line_model();
        let mut provider = FullProvider { k: 2 };
        let cfg = StopPolicy::max_iterations(1);
        let run = fit(
            &mut model,
            &mut provider,
            vec![ClusterId(0); 6],
            Duration::ZERO,
            &cfg,
            true,
        );
        assert_eq!(run.summary.n_iterations(), 1);
        assert!(!run.summary.converged);
    }

    #[test]
    fn setup_time_propagates_to_summary() {
        let mut model = line_model();
        let mut provider = FullProvider { k: 2 };
        let setup = Duration::from_millis(123);
        let run = fit(
            &mut model,
            &mut provider,
            vec![ClusterId(0); 6],
            setup,
            &StopPolicy::default(),
            true,
        );
        assert!(run.summary.total_time() >= setup);
        assert_eq!(run.summary.setup, setup);
    }

    #[test]
    fn empty_shortlist_keeps_current_assignment() {
        struct EmptyProvider;
        impl ShortlistProvider for EmptyProvider {
            fn shortlist(&mut self, _item: u32, out: &mut Vec<ClusterId>) {
                out.clear();
            }
            fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {}
        }
        let mut model = line_model();
        let start: Vec<ClusterId> = vec![ClusterId(1); 6];
        let run = fit(
            &mut model,
            &mut EmptyProvider,
            start.clone(),
            Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
        assert_eq!(run.assignments, start);
    }

    #[test]
    fn record_assignment_sees_every_move() {
        struct CountingProvider {
            k: usize,
            records: usize,
        }
        impl ShortlistProvider for CountingProvider {
            fn shortlist(&mut self, _item: u32, out: &mut Vec<ClusterId>) {
                out.clear();
                out.extend((0..self.k as u32).map(ClusterId));
            }
            fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {
                self.records += 1;
            }
        }
        let mut model = line_model();
        let mut provider = CountingProvider { k: 2, records: 0 };
        let run = fit(
            &mut model,
            &mut provider,
            vec![ClusterId(0); 6],
            Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
        let total_moves: usize = run.summary.iterations.iter().map(|s| s.moves).sum();
        assert_eq!(provider.records, total_moves);
        assert!(total_moves >= 3); // the three far items had to move
    }

    #[test]
    fn assign_full_finds_per_item_optimum() {
        let model = line_model();
        let mut assignments = vec![ClusterId(0); 6];
        let outcome = assign_full(&model, &mut assignments);
        assert_eq!(outcome.moves, 3); // the three items near centroid 100
        assert_eq!(outcome.shortlist_total, 6 * 2);
        for item in 0..6u32 {
            assert_eq!(assignments[item as usize], model.best_full(item).0);
        }
        // A second pass is a fixpoint.
        assert_eq!(assign_full(&model, &mut assignments).moves, 0);
    }

    #[test]
    fn assign_once_with_saturating_provider_matches_assign_full() {
        let model = line_model();
        let mut provider = FullProvider { k: 2 };
        let mut shortlisted = vec![ClusterId(0); 6];
        let pass = assign_once(&model, &mut provider, &mut shortlisted);
        let mut full = vec![ClusterId(0); 6];
        assign_full(&model, &mut full);
        assert_eq!(shortlisted, full);
        assert_eq!(pass.shortlist_total, 6 * 2);
    }

    #[test]
    fn assign_once_empty_shortlist_keeps_assignment() {
        struct EmptyProvider;
        impl ShortlistProvider for EmptyProvider {
            fn shortlist(&mut self, _item: u32, out: &mut Vec<ClusterId>) {
                out.clear();
            }
            fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {}
        }
        let model = line_model();
        let mut assignments = vec![ClusterId(1); 6];
        let pass = assign_once(&model, &mut EmptyProvider, &mut assignments);
        assert_eq!(pass.moves, 0);
        assert_eq!(assignments, vec![ClusterId(1); 6]);
    }

    /// A scripted model whose cost dips and then rises: pass 1 → cost 10,
    /// pass 2 → cost 5, pass 3 → cost 8. The driver must stop at pass 3 and
    /// hand back pass 2's state (cost 5 = the minimum over iterations).
    struct ScriptedModel {
        /// Scripted (assignment-for-item-0, cost) per pass, consumed in order.
        script: std::cell::RefCell<Vec<(u32, f64)>>,
        /// Cost of the current centroid state.
        current_cost: std::cell::Cell<f64>,
    }

    impl CentroidModel for ScriptedModel {
        type Snapshot = f64;
        fn snapshot_centroids(&self) -> f64 {
            self.current_cost.get()
        }
        fn restore_centroids(&mut self, snapshot: f64) {
            self.current_cost.set(snapshot);
        }
        fn k(&self) -> usize {
            4
        }
        fn n_items(&self) -> usize {
            1
        }
        fn best_full(&self, _item: u32) -> (ClusterId, f64) {
            let (c, d) = self.script.borrow_mut().remove(0);
            (ClusterId(c), d)
        }
        fn best_among(&self, item: u32, _candidates: &[ClusterId]) -> Option<(ClusterId, f64)> {
            Some(self.best_full(item))
        }
        fn update_centroids(&mut self, _assignments: &[ClusterId]) -> ActivitySet {
            ActivitySet::none(self.k())
        }
        fn total_cost(&self, assignments: &[ClusterId]) -> f64 {
            // The scripted cost was stashed by the pass via the assignment.
            let _ = assignments;
            self.current_cost.get()
        }
    }

    #[test]
    fn cost_increase_rolls_back_to_the_minimising_pass() {
        let mut model = ScriptedModel {
            script: std::cell::RefCell::new(vec![(1, 10.0), (2, 5.0), (3, 8.0)]),
            current_cost: std::cell::Cell::new(f64::INFINITY),
        };
        let run = drive(
            &mut model,
            vec![ClusterId(0)],
            Duration::ZERO,
            &StopPolicy::default(),
            |model, assignments, _activity| {
                let (c, d) = model.best_full(0);
                let moved = assignments[0] != c;
                assignments[0] = c;
                model.current_cost.set(d);
                AssignOutcome {
                    moves: usize::from(moved),
                    shortlist_total: 4,
                    skipped: 0,
                }
            },
            |model, _| ActivitySet::none(model.k()),
        );
        assert!(run.summary.converged);
        assert_eq!(run.summary.n_iterations(), 3, "worse pass stays recorded");
        // State rolled back to the pass-2 minimum.
        assert_eq!(run.assignments, vec![ClusterId(2)]);
        assert_eq!(model.current_cost.get(), 5.0);
        let min_cost = run.summary.iterations.iter().map(|s| s.cost).min().unwrap();
        assert_eq!(
            model.total_cost(&run.assignments) as u64,
            min_cost,
            "returned cost must be the minimum over recorded iterations"
        );
    }

    #[test]
    fn equal_cost_stop_keeps_the_latest_state_without_rollback() {
        // cost 10 → cost 10: stop (no strict improvement), but the second
        // state is not worse, so it is kept.
        let mut model = ScriptedModel {
            script: std::cell::RefCell::new(vec![(1, 10.0), (2, 10.0)]),
            current_cost: std::cell::Cell::new(f64::INFINITY),
        };
        let run = drive(
            &mut model,
            vec![ClusterId(0)],
            Duration::ZERO,
            &StopPolicy::default(),
            |model, assignments, _activity| {
                let (c, d) = model.best_full(0);
                let moved = assignments[0] != c;
                assignments[0] = c;
                model.current_cost.set(d);
                AssignOutcome {
                    moves: usize::from(moved),
                    shortlist_total: 4,
                    skipped: 0,
                }
            },
            |model, _| ActivitySet::none(model.k()),
        );
        assert!(run.summary.converged);
        assert_eq!(run.assignments, vec![ClusterId(2)]);
    }

    /// A provider handing each item a fixed scripted shortlist.
    struct ScriptedProvider {
        lists: Vec<Vec<ClusterId>>,
    }

    impl ShortlistProvider for ScriptedProvider {
        fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
            out.clear();
            out.extend_from_slice(&self.lists[item as usize]);
        }
        fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {}
    }

    /// Three clusters; the far item's shortlist only references cluster 2,
    /// which never moves after iteration 1 — so the closure pass must skip
    /// it while producing a byte-identical run.
    fn closure_fixture() -> (LineModel, ScriptedProvider, Vec<ClusterId>) {
        let model = LineModel {
            items: vec![0, 1, 2, 100, 101, 102, 1000],
            centroids: vec![2, 100, 1000],
        };
        let near = vec![ClusterId(0)];
        let both = vec![ClusterId(0), ClusterId(1)];
        let far = vec![ClusterId(2)];
        let provider = ScriptedProvider {
            lists: vec![
                near.clone(),
                near.clone(),
                near,
                both.clone(),
                both.clone(),
                both,
                far,
            ],
        };
        let mut start = vec![ClusterId(0); 7];
        start[6] = ClusterId(2);
        (model, provider, start)
    }

    #[test]
    fn closures_fit_is_byte_identical_to_plain_fit() {
        let run_with = |closures: bool| {
            let (mut model, mut provider, start) = closure_fixture();
            let run = fit(
                &mut model,
                &mut provider,
                start,
                Duration::ZERO,
                &StopPolicy::default(),
                closures,
            );
            let trajectory: Vec<_> = run
                .summary
                .iterations
                .iter()
                .map(|s| (s.moves, s.cost, s.avg_candidates, s.active_clusters))
                .collect();
            (run.assignments, model.centroids, trajectory)
        };
        assert_eq!(run_with(true), run_with(false));
    }

    #[test]
    fn closure_pass_skips_items_with_only_inactive_cached_clusters() {
        let (mut model, mut provider, start) = closure_fixture();
        let run = fit(
            &mut model,
            &mut provider,
            start,
            Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
        assert!(run.summary.converged);
        assert_eq!(run.summary.n_iterations(), 2);
        // Iteration 1 evaluates everything (all clusters start active).
        assert_eq!(run.summary.iterations[0].skipped_items, 0);
        assert_eq!(run.summary.iterations[0].active_clusters, 3);
        // By iteration 2 only clusters 0 and 1 moved, so the far item —
        // whose cached shortlist is exactly [2] — is skipped.
        assert_eq!(run.summary.iterations[1].skipped_items, 1);
        assert_eq!(run.summary.iterations[1].active_clusters, 2);
        // And `avg_candidates` still counts its cached shortlist.
        assert_eq!(run.summary.iterations[1].avg_candidates, 10.0 / 7.0);
    }

    #[test]
    fn activity_set_marks_and_reports() {
        let mut set = ActivitySet::none(5);
        assert_eq!(set.count(), 0);
        assert!(!set.any_active_in(&[ClusterId(0), ClusterId(4)]));
        set.mark(ClusterId(3));
        set.mark(ClusterId(3)); // idempotent
        assert_eq!(set.count(), 1);
        assert!(set.any_active_in(&[ClusterId(3)]));
        assert!(set.any_active_in(&[ClusterId(1), ClusterId(3)]));
        assert!(!set.any_active_in(&[]));
        assert_eq!(set.to_clusters(), vec![3]);
        let back = ActivitySet::from_clusters(5, &set.to_clusters());
        assert_eq!(back, set);
        assert_eq!(ActivitySet::all(4).count(), 4);
        assert_eq!(ActivitySet::all(4).to_clusters(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "one starting assignment per item")]
    fn fit_validates_assignment_length() {
        let mut model = line_model();
        let mut provider = FullProvider { k: 2 };
        let _ = fit(
            &mut model,
            &mut provider,
            vec![],
            Duration::ZERO,
            &StopPolicy::default(),
            true,
        );
    }
}
