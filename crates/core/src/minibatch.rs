//! **Shortlisted mini-batch fitting** — Sculley-style mini-batch updates
//! composed with the paper's LSH shortlist, for every algorithm family.
//!
//! Full-batch fitting touches all `n` items per iteration; the mini-batch
//! discipline (Sculley, WWW 2010) instead samples `b ≪ n` items per step and
//! nudges only the touched centroids, so fit cost scales with `b·steps`
//! rather than `n·iterations`. That attacks the *number* of assignments; the
//! paper's shortlist attacks the *cost of each one*. This module composes
//! the two: each sampled item is assigned by probing a
//! [`crate::centroid_index::CentroidIndex`] (the index `lshclust::FittedModel`
//! serves from, and the neighbourhood-restricted assignment of the
//! cluster-closures line of work), with a full `k`-search fallback when
//! the shortlist comes back empty, and the index is **rebuilt every
//! [`MiniBatchParams::refresh_every`] steps** so it tracks the drifting
//! centroids (stale buckets would silently degrade the shortlist — the
//! LSH-survey motivation for keeping indexes fresh).
//!
//! One deterministic engine ([`minibatch_fit`]) serves all three
//! modalities, with or without an LSH scheme:
//!
//! 1. sample the batch serially from one seeded RNG stream (salted with
//!    `BATCH_SAMPLING_SALT`, so full-search and shortlisted runs draw
//!    identical batches at equal seeds),
//! 2. assign the whole batch against the step's **frozen** centroids and
//!    index, fanned over `threads` workers through
//!    [`crate::parallel::chunked_map`] (each item's result depends only on
//!    the frozen state, so the step is Jacobi-within-batch and the outcome
//!    is byte-identical at *any* thread count, including 1),
//! 3. apply the centroid nudges serially in batch order through the family's
//!    [`MiniBatchModel::absorb`] sketch.
//!
//! A final full assignment pass (also fanned over `threads`) turns the
//! drifted centroids into a complete clustering.

use crate::centroid_index::{CentroidIndex, CentroidRows, IndexScheme, ModeQuery, Salts};
use crate::framework::CentroidModel;
use crate::mhkmeans::KMeansModel;
use crate::mhkmodes::KModesModel;
use crate::mhkprototypes::KPrototypesModel;
use crate::modality::{FitParams, Modality};
use crate::parallel::{chunked_map, hash_band_keys_parallel};
use lshclust_categorical::{ClusterId, Dataset};
use lshclust_kmodes::init::{initial_modes, sample_distinct_items, InitMethod};
use lshclust_kmodes::kmeans::{kmeans_initial_centroids, KMeansInit, NumericDataset};
use lshclust_kmodes::kprototypes::{MixedDataset, Prototypes};
use lshclust_kmodes::minibatch::{FrequencySketch, BATCH_SAMPLING_SALT};
use lshclust_kmodes::modes::Modes;
use lshclust_kmodes::stats::{IterationStats, RunSummary};
use lshclust_minhash::index::LshIndexBuilder;
use lshclust_minhash::Banding;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

// Centroid indexes decorrelate their hash families from batch sampling and
// from the fit-time item indexes of the Full discipline ("mbmh" / "mbsh").
const MB_SALTS: Salts = Salts {
    minhash: 0x6d62_6d68,
    simhash: 0x6d62_7368,
};

/// The mini-batch schedule: how much is sampled, for how long, and how often
/// the centroid LSH index is rebuilt as the centroids drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MiniBatchParams {
    /// Items sampled per step (clamped to `1..=n`).
    pub batch_size: usize,
    /// Mini-batch steps before the final full assignment pass (min 1).
    pub n_steps: usize,
    /// Rebuild the centroid index every this-many steps (it is always built
    /// at step 1; `0` means never refresh after that). Irrelevant without an
    /// LSH scheme.
    pub refresh_every: usize,
    /// Cluster-closure reuse of batch assignments: a re-sampled item keeps
    /// its cached decision when no cluster in its cached shortlist has
    /// changed since — byte-identical either way. Irrelevant without an
    /// LSH scheme.
    pub closures: bool,
}

impl MiniBatchParams {
    /// Index refresh cadence used when the caller does not pick one.
    pub const DEFAULT_REFRESH_EVERY: usize = 8;

    /// A schedule with the default refresh cadence and closures enabled.
    pub fn new(batch_size: usize, n_steps: usize) -> Self {
        Self {
            batch_size,
            n_steps,
            refresh_every: Self::DEFAULT_REFRESH_EVERY,
            closures: true,
        }
    }

    /// Enables/disables cluster-closure assignment reuse.
    pub fn closures(mut self, yes: bool) -> Self {
        self.closures = yes;
        self
    }
}

/// A [`CentroidModel`] that can also absorb single items into per-cluster
/// streaming accumulators (Sculley's "nudge" update): frequency tables for
/// modes, decaying-rate means for centroids, both for prototypes.
pub trait MiniBatchModel: CentroidModel {
    /// The per-run accumulator state (owned by the driver, not the model, so
    /// a model remains reusable across disciplines).
    type Sketch;

    /// One empty accumulator sized for this model.
    fn make_sketch(&self) -> Self::Sketch;

    /// Folds `item` into `cluster`'s accumulator and nudges that cluster's
    /// centroid in place. Must be deterministic in call order. Returns
    /// whether the cluster's centroid **value** actually changed — absorbing
    /// a value that merely reinforces the current mode leaves it in place —
    /// which is what the cluster-closure reuse cache keys invalidation on.
    fn absorb(&mut self, sketch: &mut Self::Sketch, item: u32, cluster: ClusterId) -> bool;

    /// The current centroids, as the centroid index hashes them.
    fn centroid_rows(&self) -> CentroidRows<'_>;
}

impl MiniBatchModel for KModesModel<'_> {
    type Sketch = FrequencySketch;

    fn make_sketch(&self) -> FrequencySketch {
        // Flat-array counts for low-cardinality attributes (dictionary
        // sizes read off the training schema), hash maps otherwise.
        FrequencySketch::for_dataset(self.k(), self.dataset_ref())
    }

    fn absorb(&mut self, sketch: &mut FrequencySketch, item: u32, cluster: ClusterId) -> bool {
        let row = self.dataset_ref().row(item as usize);
        let mode = sketch.absorb(cluster, row);
        let changed = self.modes().of(cluster) != mode;
        self.modes_mut().set_mode(cluster, mode);
        changed
    }

    fn centroid_rows(&self) -> CentroidRows<'_> {
        CentroidRows {
            k: self.k(),
            modes: Some((self.dataset_ref().schema(), self.modes().values())),
            means: None,
        }
    }
}

impl MiniBatchModel for KMeansModel<'_> {
    /// Per-cluster absorb counts; the learning rate for the `c`-th absorb
    /// into a cluster is `1/c` (Sculley's decaying per-centre rate).
    type Sketch = Vec<u64>;

    fn make_sketch(&self) -> Vec<u64> {
        vec![0; self.k()]
    }

    fn absorb(&mut self, counts: &mut Vec<u64>, item: u32, cluster: ClusterId) -> bool {
        let data = self.data_ref();
        let row = data.row(item as usize);
        let dim = data.dim();
        counts[cluster.idx()] += 1;
        let eta = 1.0 / counts[cluster.idx()] as f64;
        let centroid = &mut self.centroids_mut()[cluster.idx() * dim..(cluster.idx() + 1) * dim];
        let mut changed = false;
        for (c, &x) in centroid.iter_mut().zip(row) {
            let new = *c + eta * (x - *c);
            changed |= new != *c;
            *c = new;
        }
        changed
    }

    fn centroid_rows(&self) -> CentroidRows<'_> {
        CentroidRows {
            k: self.k(),
            modes: None,
            means: Some((self.data_ref().dim(), self.centroids())),
        }
    }
}

/// Accumulator of the mixed-data nudge: frequency tables for the mode part,
/// absorb counts for the mean part (one shared count per cluster).
pub struct PrototypeSketch {
    freq: FrequencySketch,
    counts: Vec<u64>,
}

impl MiniBatchModel for KPrototypesModel<'_> {
    type Sketch = PrototypeSketch;

    fn make_sketch(&self) -> PrototypeSketch {
        PrototypeSketch {
            freq: FrequencySketch::for_dataset(self.k(), self.data_ref().categorical),
            counts: vec![0; self.k()],
        }
    }

    fn absorb(&mut self, sketch: &mut PrototypeSketch, item: u32, cluster: ClusterId) -> bool {
        let data = self.data_ref();
        let row = data.categorical.row(item as usize);
        let point = data.numeric.row(item as usize);
        sketch.counts[cluster.idx()] += 1;
        let eta = 1.0 / sketch.counts[cluster.idx()] as f64;
        let mode = sketch.freq.absorb(cluster, row);
        let prototypes = self.prototypes_mut();
        let mut changed = prototypes.modes.of(cluster) != mode;
        prototypes.modes.set_mode(cluster, mode);
        let dim = prototypes.dim();
        let mean = &mut prototypes.means[cluster.idx() * dim..(cluster.idx() + 1) * dim];
        for (m, &x) in mean.iter_mut().zip(point) {
            let new = *m + eta * (x - *m);
            changed |= new != *m;
            *m = new;
        }
        changed
    }

    fn centroid_rows(&self) -> CentroidRows<'_> {
        let prototypes = self.prototypes();
        CentroidRows {
            k: self.k(),
            modes: Some((
                self.data_ref().categorical.schema(),
                prototypes.modes.values(),
            )),
            means: Some((prototypes.dim(), &prototypes.means)),
        }
    }
}

/// Where a mini-batch run's time went, phase by phase, summed over all
/// steps. Wall-clock per step (`IterationStats::duration`) bundles the three
/// phases; this breakdown exists because the phases respond to different
/// levers — the shortlist attacks `assign` only, while `absorb` (the
/// sequential sketch nudges) is identical under every LSH scheme — and the
/// bench harness compares assignment cost in isolation.
#[derive(Clone, Copy, Debug, Default)]
pub struct MiniBatchProfile {
    /// Centroid-index (re)builds, including the one-time item hashing.
    pub refresh: std::time::Duration,
    /// Batch assignment (shortlist + restricted search, or full search).
    pub assign: std::time::Duration,
    /// Sequential sketch absorption and centroid nudges.
    pub absorb: std::time::Duration,
    /// Batch items whose shortlist came back empty and fell back to full
    /// search (always 0 without an LSH scheme). Counts reused fallback
    /// decisions too, so the number matches the closure-disabled run.
    pub fallbacks: usize,
    /// The subset of [`Self::fallbacks`] answered straight from the reuse
    /// cache — the full `k`-searches the fallback cache saved.
    pub fallback_reuses: usize,
}

/// One item's cached batch decision for the cluster-closure reuse path.
#[derive(Clone, Default)]
struct BatchCache {
    /// Which index refresh the cached shortlist was read under (`0` = never
    /// evaluated; epochs start at 1).
    epoch: u32,
    /// The step whose frozen centroids the decision was computed against.
    eval_step: u64,
    /// The shortlist the centroid index returned (constant within an epoch —
    /// item band keys never change and centroid buckets only move on
    /// refresh). Empty for a cached fallback decision.
    shortlist: Vec<ClusterId>,
    /// The restricted-search (or, for a fallback, full-search) winner.
    chosen: u32,
    /// Whether the cached decision was a full `k`-search fallback. Its
    /// winner read *every* centroid, so reuse additionally requires that no
    /// centroid at all has changed since `eval_step` — and the same epoch,
    /// because a refreshed index could stop the shortlist coming back empty.
    fallback: bool,
}

/// How one batch slot was decided.
#[derive(Clone, Default)]
struct BatchDecision {
    chosen: u32,
    searched: u32,
    /// Empty shortlist → full `k`-search. Cached by epoch like any other
    /// decision, but invalidated by *any* centroid change (the search read
    /// every centroid).
    fallback: bool,
    /// The fresh shortlist to cache (`None` for reused, fallback, or
    /// closure-disabled decisions; fallbacks cache through the `fallback`
    /// flag instead).
    cache: Option<Vec<ClusterId>>,
    /// Reused straight from the cache without touching the index or model.
    reused: bool,
}

/// The shared step loop: sample → (refresh →) assign frozen batch → absorb.
/// Appends one [`IterationStats`] row per step (`moves` counts absorbed
/// items, `avg_candidates` the mean searched-cluster count — `k` whenever an
/// item fell back to full search — and `cost` is a placeholder 0 that
/// [`finish`] later backfills with the run's cost: mini-batch steps do
/// not pay the `O(n·m)` objective evaluation).
///
/// ## Cluster-closure reuse (`MiniBatchParams::closures`)
///
/// A re-sampled item may keep its cached decision iff (a) the centroid index
/// has not been refreshed since (same epoch — within an epoch the index is
/// frozen, so the cached shortlist **is** what a fresh query would return),
/// and (b) no cluster in that shortlist has had its centroid *value* change
/// since the step the decision was computed (`last_changed[c] < eval_step`;
/// an absorb that merely reinforces the current mode does not count). Under
/// those conditions a fresh restricted search would scan the identical
/// shortlist against identical centroids — same winner, same searched count
/// — so the fit is byte-identical with reuse on or off. Absorbs always run
/// (reused items still nudge their cluster), keeping the centroid trajectory
/// itself untouched by the cache.
///
/// Full-`k` **fallback** decisions (empty shortlist) cache under the same
/// epoch key with a stricter invalidation: the full search read every
/// centroid, so reuse requires that *no* centroid value has changed since
/// `eval_step` (`max(last_changed) < eval_step`). Same epoch still matters —
/// a refreshed index could return a non-empty shortlist, changing both the
/// searched count and the search itself. When valid, the reused decision is
/// exactly what the fresh path would recompute (same winner, `searched = k`,
/// still counted as a fallback), so byte-identity is preserved.
fn run_steps<D: Modality>(
    data: &D,
    model: &mut D::Model<'_>,
    scheme: Option<IndexScheme>,
    params: &MiniBatchParams,
    seed: u64,
    threads: usize,
    steps_out: &mut Vec<IterationStats>,
) -> MiniBatchProfile {
    let n = model.n_items();
    let k = model.k();
    let b = params.batch_size.clamp(1, n.max(1));
    let n_steps = params.n_steps.max(1);
    let closures = params.closures && scheme.is_some();
    let mut rng = StdRng::seed_from_u64(seed ^ BATCH_SAMPLING_SALT);
    let mut sketch = model.make_sketch();
    let mut batch: Vec<u32> = Vec::with_capacity(b);
    let mut profile = MiniBatchProfile::default();
    let mut index: Option<CentroidIndex> = None;
    // `n × bands` item MinHash band keys, item-major. An item's keys depend
    // only on the item and the hash family, never on the centroids, so they
    // are hashed once (at the first refresh) and every later query is a
    // stored-key lookup plus bucket probes.
    let mut item_keys: Vec<u64> = Vec::new();
    // Closure-reuse state: per-item cached decisions, the refresh epoch they
    // were read under, and the last step each cluster's centroid value
    // changed.
    let mut cache: Vec<BatchCache> = if closures {
        vec![BatchCache::default(); n]
    } else {
        Vec::new()
    };
    let mut last_changed: Vec<u64> = vec![0; k];
    let mut epoch: u32 = 0;
    let mut changed_this_step: Vec<bool> = vec![false; k];
    for step in 1..=n_steps {
        let t = Instant::now();
        if let Some(scheme) = scheme {
            if step == 1 || (params.refresh_every > 0 && (step - 1) % params.refresh_every == 0) {
                let t_refresh = Instant::now();
                index = Some(CentroidIndex::build(
                    scheme,
                    seed,
                    MB_SALTS,
                    model.centroid_rows(),
                ));
                if let (1, Some(banding), Some(items)) = (step, scheme.minhash, data.categorical())
                {
                    let builder = LshIndexBuilder::new(banding).seed(seed ^ MB_SALTS.minhash);
                    item_keys = hash_band_keys_parallel(&builder, items, threads);
                }
                profile.refresh += t_refresh.elapsed();
                epoch += 1;
            }
        }
        batch.clear();
        batch.extend((0..b).map(|_| rng.random_range(0..n) as u32));
        // Jacobi-within-batch: every decision reads the frozen centroids and
        // index (and the frozen reuse cache — written only after the batch),
        // so the fan-out below cannot change the outcome.
        let t_assign = Instant::now();
        let frozen: &D::Model<'_> = &*model;
        let batch_ref: &[u32] = &batch;
        let cache_ref: &[BatchCache] = &cache;
        let last_changed_ref: &[u64] = &last_changed;
        // One scan serves every cached-fallback validity check this step:
        // a fallback read all k centroids, so the latest change anywhere is
        // its invalidation clock.
        let max_changed = last_changed.iter().copied().max().unwrap_or(0);
        let item_keys_ref: &[u64] = &item_keys;
        let key_width = item_keys.len() / n.max(1);
        let assigned: Vec<BatchDecision> = match index.as_ref() {
            Some(index) => chunked_map(
                b,
                threads,
                || index.scratch(),
                |i, scratch| {
                    let item = batch_ref[i as usize];
                    if closures {
                        let slot = &cache_ref[item as usize];
                        if slot.epoch == epoch {
                            if slot.fallback {
                                if max_changed < slot.eval_step {
                                    return BatchDecision {
                                        chosen: slot.chosen,
                                        searched: k as u32,
                                        fallback: true,
                                        cache: None,
                                        reused: true,
                                    };
                                }
                            } else if slot
                                .shortlist
                                .iter()
                                .all(|c| last_changed_ref[c.idx()] < slot.eval_step)
                            {
                                return BatchDecision {
                                    chosen: slot.chosen,
                                    searched: slot.shortlist.len() as u32,
                                    fallback: false,
                                    cache: None,
                                    reused: true,
                                };
                            }
                        }
                    }
                    let at = item as usize * key_width;
                    let modes = (key_width > 0)
                        .then(|| ModeQuery::Keys(&item_keys_ref[at..at + key_width]));
                    let point = data.numeric().map(|points| points.row(item as usize));
                    let shortlist = index.shortlist(modes, point, scratch);
                    match frozen.best_among(item, shortlist) {
                        Some((c, _)) => BatchDecision {
                            chosen: c.0,
                            searched: shortlist.len() as u32,
                            fallback: false,
                            cache: closures.then(|| shortlist.to_vec()),
                            reused: false,
                        },
                        // Empty shortlist: no centroid collided — fall back
                        // to full search so every batch item lands somewhere.
                        None => BatchDecision {
                            chosen: frozen.best_full(item).0 .0,
                            searched: k as u32,
                            fallback: true,
                            cache: None,
                            reused: false,
                        },
                    }
                },
            ),
            None => chunked_map(
                b,
                threads,
                || (),
                |i, _| BatchDecision {
                    chosen: frozen.best_full(batch_ref[i as usize]).0 .0,
                    searched: k as u32,
                    fallback: false,
                    cache: None,
                    reused: false,
                },
            ),
        };
        profile.assign += t_assign.elapsed();
        let searched: usize = assigned.iter().map(|d| d.searched as usize).sum();
        profile.fallbacks += assigned.iter().filter(|d| d.fallback).count();
        profile.fallback_reuses += assigned.iter().filter(|d| d.fallback && d.reused).count();
        let skipped = assigned.iter().filter(|d| d.reused).count();
        // Nudges apply serially in batch order — the one deliberately
        // sequential piece, shared by every thread count.
        let t_absorb = Instant::now();
        changed_this_step.iter_mut().for_each(|c| *c = false);
        for (&item, d) in batch.iter().zip(&assigned) {
            if model.absorb(&mut sketch, item, ClusterId(d.chosen)) {
                changed_this_step[d.chosen as usize] = true;
            }
        }
        profile.absorb += t_absorb.elapsed();
        // Record fresh decisions, then the step's centroid changes — in that
        // order, so a decision cached at step `t` whose cluster changed at
        // `t` (its own absorb included) is invalid from `t + 1` on.
        if closures {
            for (&item, d) in batch.iter().zip(&assigned) {
                let slot = &mut cache[item as usize];
                if let Some(fresh) = &d.cache {
                    slot.epoch = epoch;
                    slot.eval_step = step as u64;
                    slot.shortlist.clone_from(fresh);
                    slot.chosen = d.chosen;
                    slot.fallback = false;
                } else if d.fallback && !d.reused {
                    // A fresh full-`k` fallback: cache the verdict with an
                    // empty shortlist; the `fallback` flag switches the reuse
                    // check over to the all-centroids clock.
                    slot.epoch = epoch;
                    slot.eval_step = step as u64;
                    slot.shortlist.clear();
                    slot.chosen = d.chosen;
                    slot.fallback = true;
                }
            }
        }
        for (c, changed) in changed_this_step.iter().enumerate() {
            if *changed {
                last_changed[c] = step as u64;
            }
        }
        steps_out.push(IterationStats {
            iteration: step,
            duration: t.elapsed(),
            moves: b,
            avg_candidates: searched as f64 / b as f64,
            cost: 0,
            skipped_items: skipped,
            active_clusters: changed_this_step.iter().filter(|c| **c).count(),
        });
    }
    profile
}

/// The final full assignment pass (fanned over `threads`), appended to the
/// step series with the run's true cost.
fn finish<M: CentroidModel + Sync>(
    model: &M,
    threads: usize,
    steps: &mut Vec<IterationStats>,
) -> Vec<ClusterId> {
    let t = Instant::now();
    let assignments: Vec<ClusterId> = chunked_map(
        model.n_items(),
        threads,
        || (),
        |i, _| model.best_full(i).0 .0,
    )
    .into_iter()
    .map(ClusterId)
    .collect();
    let cost = model.total_cost(&assignments) as u64;
    // Mini-batch steps never evaluate the O(n·m) objective, so their rows
    // were recorded with a cost of 0. Backfill them with the run's true
    // cost now that it is known: `RunSummary::best_cost` is a min over the
    // rows, and a literal 0 would make every mini-batch run report a
    // perfect clustering.
    for step in steps.iter_mut() {
        step.cost = cost;
    }
    steps.push(IterationStats {
        iteration: steps.len() + 1,
        duration: t.elapsed(),
        moves: 0,
        avg_candidates: model.k() as f64,
        cost,
        skipped_items: 0,
        active_clusters: 0,
    });
    assignments
}

fn summary_of(steps: Vec<IterationStats>, setup: std::time::Duration) -> RunSummary {
    RunSummary {
        iterations: steps,
        converged: true,
        setup,
    }
}

/// Result of a mini-batch fit.
#[derive(Clone, Debug)]
pub struct MiniBatchFit<C> {
    /// Final cluster per item (one full pass under the final centroids).
    pub assignments: Vec<ClusterId>,
    /// Final centroids.
    pub centroids: C,
    /// Per-step instrumentation; the last row is the final full pass.
    /// Mini-batch steps do not evaluate the `O(n·m)` objective, so every
    /// row's `cost` carries the run's final cost (making
    /// `RunSummary::best_cost`/`final_cost` both read as the cost of the
    /// returned state, per their contract).
    pub summary: RunSummary,
    /// Phase-level timing breakdown of the steps.
    pub profile: MiniBatchProfile,
}

/// The mini-batch fit, written once for every modality: full search per
/// batch item when `cfg.scheme` names no family, shortlisted through a
/// periodically refreshed centroid index over the scheme's families
/// otherwise. Reads `cfg.k`, `cfg.scheme`, `cfg.seed`, `cfg.threads` and
/// `cfg.gamma`; the schedule (and closure reuse) comes from `params`.
/// `setup_start` should be the instant initialisation began.
pub fn minibatch_fit<D: Modality>(
    data: &D,
    cfg: &FitParams,
    params: &MiniBatchParams,
    centroids: D::Centroids,
    setup_start: Instant,
) -> MiniBatchFit<D::Centroids> {
    let mut model = data.model(centroids, cfg.gamma);
    assert!(model.k() == cfg.k && cfg.k > 0 && cfg.k <= data.n_items());
    let setup = setup_start.elapsed();
    let mut steps = Vec::new();
    let scheme = (!cfg.scheme.is_none()).then_some(cfg.scheme);
    let profile = run_steps(
        data,
        &mut model,
        scheme,
        params,
        cfg.seed,
        cfg.threads,
        &mut steps,
    );
    let assignments = finish(&model, cfg.threads, &mut steps);
    MiniBatchFit {
        assignments,
        centroids: D::centroids(model),
        summary: summary_of(steps, setup),
        profile,
    }
}

/// Result of a mini-batch K-Modes fit through this engine.
#[derive(Clone, Debug)]
pub struct MiniBatchKModesResult {
    /// Final cluster per item (one full pass under the final modes).
    pub assignments: Vec<ClusterId>,
    /// Final modes.
    pub modes: Modes,
    /// Per-step instrumentation (see [`MiniBatchFit::summary`]).
    pub summary: RunSummary,
    /// Phase-level timing breakdown of the steps.
    pub profile: MiniBatchProfile,
}

/// Mini-batch K-Modes: full search per batch item when `lsh` is `None`,
/// shortlisted through a periodically refreshed MinHash centroid index
/// otherwise.
pub fn minibatch_mh_kmodes(
    dataset: &Dataset,
    k: usize,
    init: InitMethod,
    seed: u64,
    lsh: Option<Banding>,
    params: &MiniBatchParams,
    threads: usize,
) -> MiniBatchKModesResult {
    let setup_start = Instant::now();
    let modes = initial_modes(dataset, k, init, seed);
    let scheme = IndexScheme {
        minhash: lsh,
        simhash: None,
    };
    let fit = minibatch_fit(
        dataset,
        &FitParams {
            threads,
            ..FitParams::new(k, scheme, seed)
        },
        params,
        modes,
        setup_start,
    );
    MiniBatchKModesResult {
        assignments: fit.assignments,
        modes: fit.centroids,
        summary: fit.summary,
        profile: fit.profile,
    }
}

/// Result of a mini-batch K-Means fit through this engine.
#[derive(Clone, Debug)]
pub struct MiniBatchKMeansResult {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final centroids (`k × dim`, row-major).
    pub centroids: Vec<f64>,
    /// Per-step instrumentation (see [`MiniBatchFit::summary`]).
    pub summary: RunSummary,
    /// Phase-level timing breakdown of the steps.
    pub profile: MiniBatchProfile,
}

/// Mini-batch K-Means (Sculley's algorithm): full search per batch item when
/// `lsh` is `None`, shortlisted through a refreshed SimHash centroid index
/// given `(bands, rows)`.
pub fn minibatch_mh_kmeans(
    data: &NumericDataset,
    k: usize,
    init: KMeansInit,
    seed: u64,
    lsh: Option<(u32, u32)>,
    params: &MiniBatchParams,
    threads: usize,
) -> MiniBatchKMeansResult {
    let setup_start = Instant::now();
    let centroids = kmeans_initial_centroids(data, k, init, seed);
    let scheme = IndexScheme {
        minhash: None,
        simhash: lsh,
    };
    let fit = minibatch_fit(
        data,
        &FitParams {
            threads,
            ..FitParams::new(k, scheme, seed)
        },
        params,
        centroids,
        setup_start,
    );
    MiniBatchKMeansResult {
        assignments: fit.assignments,
        centroids: fit.centroids,
        summary: fit.summary,
        profile: fit.profile,
    }
}

/// The union banding of a mixed-data mini-batch run.
#[derive(Clone, Copy, Debug)]
pub struct UnionBands {
    /// MinHash banding for the categorical part.
    pub banding: Banding,
    /// SimHash bands for the numeric part.
    pub sim_bands: u32,
    /// SimHash bits per band.
    pub sim_rows: u32,
}

/// Result of a mini-batch K-Prototypes fit through this engine.
#[derive(Clone, Debug)]
pub struct MiniBatchKPrototypesResult {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final prototypes.
    pub prototypes: Prototypes,
    /// Per-step instrumentation (see [`MiniBatchFit::summary`]).
    pub summary: RunSummary,
    /// Phase-level timing breakdown of the steps.
    pub profile: MiniBatchProfile,
}

/// Mini-batch K-Prototypes: full search per batch item when `lsh` is `None`,
/// shortlisted through a refreshed MinHash∪SimHash centroid index otherwise.
/// Initialisation draws `k` random items (the only strategy both
/// K-Prototypes paths support).
pub fn minibatch_mh_kprototypes(
    data: &MixedDataset<'_>,
    k: usize,
    gamma: f64,
    seed: u64,
    lsh: Option<UnionBands>,
    params: &MiniBatchParams,
    threads: usize,
) -> MiniBatchKPrototypesResult {
    let setup_start = Instant::now();
    let picks = sample_distinct_items(data.n_items(), k, seed);
    let prototypes = Prototypes::from_items(data, &picks);
    let scheme = IndexScheme {
        minhash: lsh.map(|u| u.banding),
        simhash: lsh.map(|u| (u.sim_bands, u.sim_rows)),
    };
    let fit = minibatch_fit(
        data,
        &FitParams {
            threads,
            gamma,
            ..FitParams::new(k, scheme, seed)
        },
        params,
        prototypes,
        setup_start,
    );
    MiniBatchKPrototypesResult {
        assignments: fit.assignments,
        prototypes: fit.centroids,
        summary: fit.summary,
        profile: fit.profile,
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

    fn blob_numeric(groups: usize, per_group: usize, dim: usize) -> NumericDataset {
        let mut data = Vec::new();
        for g in 0..groups {
            for i in 0..per_group {
                for d in 0..dim {
                    let jitter = ((i * 7 + d * 3) as f64 * 0.31).sin() * 0.2;
                    data.push(g as f64 * 12.0 + jitter);
                }
            }
        }
        NumericDataset::new(dim, data)
    }

    fn params(batch: usize, steps: usize) -> MiniBatchParams {
        MiniBatchParams {
            batch_size: batch,
            n_steps: steps,
            refresh_every: 4,
            closures: true,
        }
    }

    #[test]
    fn shortlisted_kmodes_separates_blobs() {
        let ds = blob_dataset(3, 10, 6);
        let result = minibatch_mh_kmodes(
            &ds,
            3,
            InitMethod::RandomItems,
            0,
            Some(Banding::new(8, 2)),
            &params(16, 30),
            1,
        );
        for g in 0..3 {
            let first = result.assignments[g * 10];
            for i in 0..10 {
                assert_eq!(result.assignments[g * 10 + i], first, "blob {g} split");
            }
        }
    }

    #[test]
    fn separates_blobs() {
        // Full search per batch item: no LSH scheme.
        let ds = blob_dataset(3, 10, 6);
        let result =
            minibatch_mh_kmodes(&ds, 3, InitMethod::RandomItems, 0, None, &params(16, 30), 1);
        for g in 0..3 {
            let first = result.assignments[g * 10];
            for i in 0..10 {
                assert_eq!(result.assignments[g * 10 + i], first, "blob {g} split");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blob_dataset(2, 8, 5);
        let run =
            || minibatch_mh_kmodes(&ds, 2, InitMethod::RandomItems, 7, None, &params(8, 10), 1);
        let (a, b) = (run(), run());
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.modes, b.modes);
    }

    #[test]
    fn final_assignment_is_consistent_with_modes() {
        use lshclust_kmodes::assign::best_cluster_full;
        let ds = blob_dataset(2, 6, 4);
        let result =
            minibatch_mh_kmodes(&ds, 2, InitMethod::RandomItems, 3, None, &params(4, 20), 1);
        for i in 0..ds.n_items() {
            let (best, _) = best_cluster_full(ds.row(i), &result.modes);
            assert_eq!(result.assignments[i], best);
        }
    }

    #[test]
    fn handles_batch_larger_than_dataset() {
        let ds = blob_dataset(2, 3, 4);
        let result =
            minibatch_mh_kmodes(&ds, 2, InitMethod::RandomItems, 2, None, &params(100, 5), 1);
        assert_eq!(result.assignments.len(), 6);
    }

    #[test]
    fn thread_count_does_not_change_the_fit() {
        let ds = blob_dataset(4, 8, 6);
        let run = |threads| {
            minibatch_mh_kmodes(
                &ds,
                4,
                InitMethod::RandomItems,
                5,
                Some(Banding::new(8, 2)),
                &params(12, 20),
                threads,
            )
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            let other = run(threads);
            assert_eq!(one.assignments, other.assignments, "threads={threads}");
            assert_eq!(one.modes, other.modes, "threads={threads}");
        }
    }

    #[test]
    fn closure_reuse_is_byte_identical_for_kmodes() {
        let ds = blob_dataset(4, 8, 6);
        let run = |closures| {
            minibatch_mh_kmodes(
                &ds,
                4,
                InitMethod::RandomItems,
                7,
                Some(Banding::new(8, 2)),
                &MiniBatchParams {
                    batch_size: 16,
                    n_steps: 40,
                    refresh_every: 16,
                    closures,
                },
                2,
            )
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.assignments, off.assignments);
        assert_eq!(on.modes, off.modes);
        // Trajectory identical except for the skip counter itself.
        for (a, b) in on.summary.iterations.iter().zip(&off.summary.iterations) {
            assert_eq!(a.moves, b.moves);
            assert_eq!(a.avg_candidates, b.avg_candidates);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.active_clusters, b.active_clusters);
            assert_eq!(b.skipped_items, 0);
        }
        // Once the blob modes stabilise, re-sampled items actually reuse.
        assert!(
            on.summary.total_skipped() > 0,
            "expected some reuse: {:?}",
            on.summary
                .iterations
                .iter()
                .map(|s| s.skipped_items)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fallback_decisions_cache_and_stay_byte_identical() {
        // Aggressive banding (2 bands x 16 rows) almost never lands a
        // centroid in an item's buckets, so shortlists come back empty and
        // most decisions are full-`k` fallbacks — the path satellite caching
        // has to keep byte-identical.
        let ds = blob_dataset(4, 8, 6);
        let run = |closures| {
            minibatch_mh_kmodes(
                &ds,
                4,
                InitMethod::RandomItems,
                7,
                Some(Banding::new(2, 16)),
                &MiniBatchParams {
                    batch_size: 16,
                    n_steps: 40,
                    refresh_every: 16,
                    closures,
                },
                2,
            )
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.assignments, off.assignments);
        assert_eq!(on.modes, off.modes);
        // Reused fallbacks still count as fallbacks, so the profile agrees
        // with the closure-disabled run.
        assert_eq!(on.profile.fallbacks, off.profile.fallbacks);
        for (a, b) in on.summary.iterations.iter().zip(&off.summary.iterations) {
            assert_eq!(a.moves, b.moves);
            assert_eq!(a.avg_candidates, b.avg_candidates);
            assert_eq!(a.active_clusters, b.active_clusters);
            assert_eq!(b.skipped_items, 0);
        }
        assert!(
            on.profile.fallbacks > 0,
            "banding was supposed to force fallbacks: {:?}",
            on.profile
        );
        assert!(
            on.profile.fallback_reuses > 0,
            "expected cached fallback decisions to be reused: {:?}",
            on.profile
        );
        assert_eq!(off.profile.fallback_reuses, 0);
    }

    #[test]
    fn closure_reuse_is_byte_identical_for_kmeans() {
        let data = blob_numeric(3, 10, 4);
        let run = |closures| {
            minibatch_mh_kmeans(
                &data,
                3,
                KMeansInit::PlusPlus,
                2,
                Some((4, 8)),
                &MiniBatchParams {
                    batch_size: 12,
                    n_steps: 25,
                    refresh_every: 8,
                    closures,
                },
                2,
            )
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.assignments, off.assignments);
        assert_eq!(on.centroids, off.centroids, "means must be bit-identical");
    }

    #[test]
    fn shortlisted_kmeans_separates_blobs_and_is_thread_invariant() {
        let data = blob_numeric(3, 10, 4);
        // D² seeding spreads the initial centroids across the blobs —
        // mini-batch has no empty-cluster reseeding, so an init doubled up
        // inside one blob could never recover the partition.
        let run = |threads| {
            minibatch_mh_kmeans(
                &data,
                3,
                KMeansInit::PlusPlus,
                2,
                Some((4, 8)),
                &params(12, 25),
                threads,
            )
        };
        let one = run(1);
        for g in 0..3 {
            let first = one.assignments[g * 10];
            for i in 0..10 {
                assert_eq!(one.assignments[g * 10 + i], first, "blob {g} split");
            }
        }
        let four = run(4);
        assert_eq!(one.assignments, four.assignments);
        assert_eq!(
            one.centroids, four.centroids,
            "float means must be bit-identical"
        );
    }

    #[test]
    fn shortlisted_kprototypes_runs_and_is_thread_invariant() {
        let cat = blob_dataset(3, 8, 4);
        let num = blob_numeric(3, 8, 3);
        let data = MixedDataset::new(&cat, &num);
        let lsh = UnionBands {
            banding: Banding::new(8, 2),
            sim_bands: 4,
            sim_rows: 8,
        };
        let run = |threads| {
            minibatch_mh_kprototypes(&data, 3, 1.0, 1, Some(lsh), &params(10, 20), threads)
        };
        let one = run(1);
        assert_eq!(one.assignments.len(), 24);
        let four = run(4);
        assert_eq!(one.assignments, four.assignments);
        assert_eq!(one.prototypes.means, four.prototypes.means);
        assert_eq!(one.prototypes.modes, four.prototypes.modes);
    }

    #[test]
    fn steps_record_shortlist_sizes_below_k() {
        let ds = blob_dataset(8, 6, 8);
        let result = minibatch_mh_kmodes(
            &ds,
            8,
            InitMethod::RandomItems,
            3,
            Some(Banding::new(6, 2)),
            &params(24, 15),
            1,
        );
        let steps = &result.summary.iterations[..result.summary.iterations.len() - 1];
        let mean: f64 = steps.iter().map(|s| s.avg_candidates).sum::<f64>() / steps.len() as f64;
        assert!(mean < 8.0, "mean searched clusters {mean} not below k=8");
        // The final row is the full pass and carries the true cost.
        let last = result.summary.iterations.last().unwrap();
        assert_eq!(last.avg_candidates, 8.0);
    }

    #[test]
    fn zero_step_and_zero_batch_params_are_clamped() {
        let ds = blob_dataset(2, 4, 4);
        let result = minibatch_mh_kmodes(
            &ds,
            2,
            InitMethod::RandomItems,
            0,
            None,
            &MiniBatchParams {
                batch_size: 0,
                n_steps: 0,
                refresh_every: 0,
                closures: true,
            },
            1,
        );
        assert_eq!(result.assignments.len(), 8);
        // One clamped step plus the final full pass.
        assert_eq!(result.summary.iterations.len(), 2);
    }

    #[test]
    fn refresh_never_after_initial_build_still_works() {
        let ds = blob_dataset(3, 6, 5);
        let result = minibatch_mh_kmodes(
            &ds,
            3,
            InitMethod::RandomItems,
            4,
            Some(Banding::new(8, 2)),
            &MiniBatchParams {
                batch_size: 8,
                n_steps: 10,
                refresh_every: 0,
                closures: true,
            },
            1,
        );
        assert_eq!(result.assignments.len(), 18);
    }
}
