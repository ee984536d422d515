//! The provider-agnostic parallel assignment engine (crossbeam scoped
//! threads).
//!
//! The paper's implementation is single-threaded ("our implementation was
//! single threaded and thus only used one of the available twelve cores");
//! this module exists to show the shortlist's gains compose with thread-level
//! parallelism, for **every** algorithm family. A family plugs in by
//! implementing [`SyncShortlistProvider`] — a read-only per-thread view of
//! its LSH index — and reusing the same [`parallel_fit`] entry point; the
//! MinHash, SimHash and union providers all do.
//!
//! Semantics differ slightly from the serial driver: the serial pass is
//! Gauss–Seidel (an item's move is visible to later items *within* the same
//! pass via the cluster references), whereas the parallel pass is Jacobi
//! (all shortlists are computed against the references as of the start of
//! the pass, then moves are applied at once). Both converge on the paper's
//! workloads; convergence behaviour may differ by an iteration or two.
//! Because each item's Jacobi decision depends only on the frozen start-of-
//! pass state — and the centroid update recomputes cluster by cluster — the
//! fit output is **bit-identical at any thread count > 1**.
//!
//! Iteration accounting and stop logic are *not* duplicated here: both the
//! serial and the parallel path run through `framework::drive`.

use crate::framework::{
    self, AcceleratedRun, ActivitySet, AssignOutcome, CentroidModel, ShortlistCache,
    ShortlistProvider, StopPolicy,
};
use lshclust_categorical::{ClusterId, Dataset, PresentElements};
use lshclust_minhash::hashfn::MixHashFamily;
use lshclust_minhash::index::LshIndexBuilder;
use lshclust_minhash::signature::SignatureGenerator;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A shortlist provider whose index can be probed from many threads at once:
/// shortlist queries are **read-only** (`&self`) and all mutable query state
/// lives in a per-thread [`Self::Scratch`].
///
/// Implementations must return exactly the candidates the serial
/// [`ShortlistProvider::shortlist`] would, so the Jacobi pass differs from
/// the Gauss–Seidel pass only in *when* reference updates become visible.
pub trait SyncShortlistProvider: ShortlistProvider + Sync {
    /// Per-thread query scratch (dedup stamps, hashing buffers, …).
    type Scratch: Send;

    /// Creates one scratch; the engine calls this once per worker thread.
    fn make_scratch(&self) -> Self::Scratch;

    /// Read-only shortlist query for `item` into `out` (cleared first).
    fn shortlist_into(&self, item: u32, scratch: &mut Self::Scratch, out: &mut Vec<ClusterId>);
}

/// Like [`crate::framework::fit`], but each assignment pass is a Jacobi pass
/// fanned over `threads` scoped threads, and centroid updates go through
/// [`CentroidModel::update_centroids_parallel`]. Works with any
/// [`SyncShortlistProvider`] — MinHash, SimHash, or the mixed-data union.
///
/// `closures` enables the cluster-closure active-set engine
/// ([`jacobi_assign_closures`]); `interleaved` picks the strided worker
/// schedule over the contiguous one (same output either way). Both default
/// paths are byte-identical to each other and to the closure-free pass.
///
/// `threads` is clamped to at least 1; with 1 thread the pass is still
/// Jacobi (computed inline, no spawning), so results at any `threads >= 1`
/// through this entry point are identical.
#[allow(clippy::too_many_arguments)]
pub fn parallel_fit<M, P>(
    model: &mut M,
    provider: &mut P,
    assignments: Vec<ClusterId>,
    setup: std::time::Duration,
    config: &StopPolicy,
    threads: usize,
    closures: bool,
    interleaved: bool,
) -> AcceleratedRun
where
    M: CentroidModel + Sync,
    P: SyncShortlistProvider,
{
    let threads = threads.max(1);
    let mut cache = ShortlistCache::new(model.n_items());
    framework::drive(
        model,
        assignments,
        setup,
        config,
        |model, assignments, activity| {
            let (new_assignments, shortlist_total, skipped) = if closures {
                jacobi_assign_closures(
                    model,
                    &*provider,
                    assignments,
                    activity,
                    &mut cache,
                    threads,
                    interleaved,
                )
            } else if interleaved {
                let (a, total) = jacobi_assign_interleaved(model, &*provider, assignments, threads);
                (a, total, 0)
            } else {
                let (a, total) = jacobi_assign(model, &*provider, assignments, threads);
                (a, total, 0)
            };
            let mut moves = 0usize;
            for (item, (&old, &new)) in assignments.iter().zip(&new_assignments).enumerate() {
                if old != new {
                    moves += 1;
                    provider.record_assignment(item as u32, new);
                }
            }
            *assignments = new_assignments;
            AssignOutcome {
                moves,
                shortlist_total,
                skipped,
            }
        },
        |model, assignments| model.update_centroids_parallel(assignments, threads),
    )
}

/// One Jacobi-style pass: shortlists and best-cluster searches run in
/// parallel against the frozen start-of-pass index state (through
/// [`chunked_map`], one provider scratch per worker); returns the new
/// assignment vector and the summed shortlist sizes. Items whose shortlist
/// comes back empty keep their current assignment.
///
/// The per-item result depends only on the frozen state, so the output is
/// independent of the thread count (and of the chunking).
pub fn jacobi_assign<M, P>(
    model: &M,
    provider: &P,
    assignments: &[ClusterId],
    threads: usize,
) -> (Vec<ClusterId>, usize)
where
    M: CentroidModel + Sync,
    P: SyncShortlistProvider,
{
    let per_item: Vec<(u32, u32)> = chunked_map(
        assignments.len(),
        threads,
        || (provider.make_scratch(), Vec::new()),
        |item, (scratch, shortlist)| {
            provider.shortlist_into(item, scratch, shortlist);
            let chosen = match model.best_among(item, shortlist) {
                Some((c, _)) => c,
                None => assignments[item as usize],
            };
            // Per-item shortlists are at most k clusters, so u32 suffices.
            (chosen.0, shortlist.len() as u32)
        },
    );
    let shortlist_total = per_item.iter().map(|&(_, len)| len as usize).sum();
    let new_assignments = per_item.into_iter().map(|(c, _)| ClusterId(c)).collect();
    (new_assignments, shortlist_total)
}

/// One Jacobi pass under the **cluster-closure active set**: items whose
/// cached shortlist touches no active cluster keep their assignment without
/// a fresh query; the rest are re-shortlisted (their fresh lists written
/// straight into the cache) and re-scored in parallel. Returns
/// `(new assignments, shortlist_total, skipped)`.
///
/// Why identity holds for the Jacobi pass: every per-item decision reads the
/// index state frozen at pass start (reference updates land *after* the
/// pass), so unlike the Gauss–Seidel pass no within-pass marking is needed —
/// the incoming `activity` (centroid changes ∪ both endpoints of the
/// previous pass's moves, per `framework::drive`) already covers everything
/// that could change a cached item's fresh shortlist or its distances.
/// Skipped items contribute their cached shortlist length to the total, so
/// `avg_candidates` is byte-identical with closures on or off.
///
/// The output is independent of the thread count *and* of the schedule
/// (`interleaved` strides the re-evaluated items over the workers the way
/// [`chunked_map_interleaved`] strides all items; contiguous chunks
/// otherwise) — each re-evaluated item's result is pure in the frozen state.
pub fn jacobi_assign_closures<M, P>(
    model: &M,
    provider: &P,
    assignments: &[ClusterId],
    activity: &ActivitySet,
    cache: &mut ShortlistCache,
    threads: usize,
    interleaved: bool,
) -> (Vec<ClusterId>, usize, usize)
where
    M: CentroidModel + Sync,
    P: SyncShortlistProvider,
{
    let n = assignments.len();
    assert_eq!(cache.len(), n, "one cache entry per item");
    let framework::ShortlistCache { lists, valid } = cache;
    let mut new_assignments = assignments.to_vec();
    let mut shortlist_total = 0usize;
    let mut skipped = 0usize;
    // Split items into skipped (cached answer provably unchanged) and todo.
    let mut todo: Vec<u32> = Vec::new();
    for item in 0..n {
        if valid[item] && !activity.any_active_in(&lists[item]) {
            shortlist_total += lists[item].len();
            skipped += 1;
        } else {
            todo.push(item as u32);
        }
    }
    if todo.is_empty() {
        return (new_assignments, shortlist_total, skipped);
    }
    // Disjoint `&mut` cache entries for the todo items (ascending order), so
    // workers write fresh shortlists straight into the cache without copies.
    let mut entries: Vec<&mut Vec<ClusterId>> = Vec::with_capacity(todo.len());
    let mut rest: &mut [Vec<ClusterId>] = lists;
    let mut base = 0usize;
    for &item in &todo {
        let (_, tail) = rest.split_at_mut(item as usize - base);
        let (slot, tail) = tail.split_first_mut().expect("todo item in range");
        entries.push(slot);
        rest = tail;
        base = item as usize + 1;
    }
    let threads = threads.max(1).min(todo.len());
    let results: Vec<(u32, u32)> = if threads <= 1 {
        let mut scratch = provider.make_scratch();
        todo.iter()
            .zip(entries)
            .map(|(&item, out)| {
                provider.shortlist_into(item, &mut scratch, out);
                let chosen = match model.best_among(item, out) {
                    Some((c, _)) => c,
                    None => assignments[item as usize],
                };
                (chosen.0, out.len() as u32)
            })
            .collect()
    } else {
        // Deal the todo items to worker buckets — contiguous runs, or
        // round-robin under the interleaved schedule — remembering each
        // item's position in `todo` so results scatter back in item order.
        let chunk = todo.len().div_ceil(threads);
        let worker_of = |pos: usize| {
            if interleaved {
                pos % threads
            } else {
                pos / chunk
            }
        };
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); threads];
        let mut items: Vec<Vec<u32>> = vec![Vec::new(); threads];
        let mut buckets: Vec<Vec<&mut Vec<ClusterId>>> = (0..threads).map(|_| Vec::new()).collect();
        for (pos, (&item, entry)) in todo.iter().zip(entries).enumerate() {
            let w = worker_of(pos);
            positions[w].push(pos);
            items[w].push(item);
            buckets[w].push(entry);
        }
        let per_worker: Vec<Vec<(u32, u32)>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = items
                .iter()
                .zip(buckets)
                .map(|(worker_items, worker_entries)| {
                    scope.spawn(move |_| {
                        let mut scratch = provider.make_scratch();
                        worker_items
                            .iter()
                            .zip(worker_entries)
                            .map(|(&item, out)| {
                                provider.shortlist_into(item, &mut scratch, out);
                                let chosen = match model.best_among(item, out) {
                                    Some((c, _)) => c,
                                    None => assignments[item as usize],
                                };
                                (chosen.0, out.len() as u32)
                            })
                            .collect::<Vec<(u32, u32)>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .expect("jacobi_assign_closures worker panicked");
        let mut results = vec![(0u32, 0u32); todo.len()];
        for (worker_positions, worker_results) in positions.iter().zip(per_worker) {
            for (&pos, value) in worker_positions.iter().zip(worker_results) {
                results[pos] = value;
            }
        }
        results
    };
    for (&item, (c, len)) in todo.iter().zip(results) {
        new_assignments[item as usize] = ClusterId(c);
        shortlist_total += len as usize;
        valid[item as usize] = true;
    }
    (new_assignments, shortlist_total, skipped)
}

/// One **full-search assignment pass** fanned over `threads` workers — the
/// parallel twin of [`framework::assign_full`], used for the setup phase
/// (the paper's step 2: the initial assignment over all `k` clusters before
/// the index exists). Each item's best cluster depends only on the frozen
/// centroids, so the result is **byte-identical** to the serial pass at any
/// thread count; `threads <= 1` delegates to the serial pass outright.
pub fn assign_full_parallel<M: CentroidModel + Sync>(
    model: &M,
    assignments: &mut [ClusterId],
    threads: usize,
) -> AssignOutcome {
    if threads <= 1 {
        return framework::assign_full(model, assignments);
    }
    assert_eq!(
        assignments.len(),
        model.n_items(),
        "one starting assignment per item"
    );
    let chosen: Vec<u32> = chunked_map(
        assignments.len(),
        threads,
        || (),
        |item, _| model.best_full(item).0 .0,
    );
    let mut moves = 0usize;
    for (slot, c) in assignments.iter_mut().zip(chosen) {
        let c = ClusterId(c);
        if *slot != c {
            *slot = c;
            moves += 1;
        }
    }
    AssignOutcome {
        moves,
        shortlist_total: assignments.len() * model.k(),
        skipped: 0,
    }
}

/// Every item's MinHash band keys, item-major (`n_items × bands`), hashed
/// with the builder's banding and seed and fanned over `threads` workers —
/// the hashing half of the setup phase (the paper's step 3: MinHash every
/// item). The buffer is exactly what the serial [`LshIndexBuilder::build`]
/// pass 1 emits, so feeding it back through
/// [`LshIndexBuilder::build_from_band_keys`] (whose bucket fill walks items
/// in ascending order) is byte-identical to a serial build — and the shard
/// coordinator (`crate::shard`) uses the same buffer to deal each shard its
/// items' keys.
pub fn hash_band_keys_parallel(
    builder: &LshIndexBuilder,
    dataset: &Dataset,
    threads: usize,
) -> Vec<u64> {
    let n = dataset.n_items();
    let params = builder.params();
    let banding = params.banding;
    let n_bands = banding.bands() as usize;
    let schema = dataset.schema();
    // Per-item hashing writes straight into the flat item-major key buffer
    // (one contiguous slice per worker — no per-item allocation, no second
    // copy).
    let mut band_keys = vec![0u64; n * n_bands];
    fill_chunks(&mut band_keys, n, n_bands, threads, |start, slice| {
        let generator =
            SignatureGenerator::new(MixHashFamily::new(banding.signature_len(), params.seed));
        let mut sig = Vec::new();
        let mut keys = Vec::new();
        for (offset, out) in slice.chunks_mut(n_bands).enumerate() {
            generator.signature_into(
                PresentElements::new(schema, dataset.row(start + offset)),
                &mut sig,
            );
            banding.band_keys_into(&sig, &mut keys);
            out.copy_from_slice(&keys);
        }
    });
    band_keys
}

/// Fills a flat item-major `n × width` buffer by chunking the items over
/// `threads` scoped workers: `fill(first_item, slice)` writes the rows for
/// `slice.len() / width` consecutive items starting at `first_item`. Runs
/// inline (no spawning) when `threads <= 1` or there is at most one item —
/// the shared scaffolding of the parallel index builds (MinHash here,
/// SimHash in `crate::mhkmeans`), whose only difference is the per-item
/// hashing closure.
pub fn fill_chunks<F>(buf: &mut [u64], n: usize, width: usize, threads: usize, fill: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    if buf.is_empty() || width == 0 {
        return;
    }
    assert_eq!(buf.len(), n * width, "buffer is not item-major n × width");
    if threads <= 1 || n <= 1 {
        fill(0, buf);
        return;
    }
    let chunk_items = n.div_ceil(threads).max(1);
    crossbeam::thread::scope(|scope| {
        for (tid, slice) in buf.chunks_mut(chunk_items * width).enumerate() {
            let fill = &fill;
            scope.spawn(move |_| fill(tid * chunk_items, slice));
        }
    })
    .expect("fill_chunks worker panicked");
}

/// Fans an item-indexed map over `threads` crossbeam scoped threads, with
/// one `scratch` (built by `init`) per thread — the batched-assignment
/// primitive shared by the fit-time parallel pass, the parallel centroid
/// update (mapped over *clusters*), and the serving-time
/// `FittedModel::predict` path in `lshclust`.
///
/// Returns `f(0), f(1), …, f(n-1)` in item order. With `threads <= 1` the
/// map runs inline on the calling thread, spawning nothing. The output never
/// depends on the thread count: each slot is computed independently and
/// written in place.
pub fn chunked_map<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send + Clone + Default,
    I: Fn() -> S + Sync,
    F: Fn(u32, &mut S) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return (0..n as u32).map(|item| f(item, &mut scratch)).collect();
    }
    let chunk = n.div_ceil(threads).max(1);
    let mut out = vec![T::default(); n];
    crossbeam::thread::scope(|scope| {
        for (tid, slice) in out.chunks_mut(chunk).enumerate() {
            let start = tid * chunk;
            let (init, f) = (&init, &f);
            scope.spawn(move |_| {
                let mut scratch = init();
                for (offset, slot) in slice.iter_mut().enumerate() {
                    *slot = f((start + offset) as u32, &mut scratch);
                }
            });
        }
    })
    .expect("chunked_map worker panicked");
    out
}

/// Like [`chunked_map`], but with **interleaved** (strided) scheduling:
/// worker `t` of `T` computes items `t, t+T, t+2T, …` instead of one
/// contiguous block. When per-item cost is skewed — one shard's bucket
/// distribution putting all the hot, high-collision items in one contiguous
/// range — contiguous chunking serializes on the worker that drew the hot
/// block; striding deals every worker an even mix.
///
/// The contract is identical to [`chunked_map`]: `f(0), …, f(n-1)` in item
/// order, one `init()` scratch per worker, output independent of the thread
/// count and of the schedule. Each worker collects its stride into a private
/// buffer and the caller's thread scatters the buffers back into item order
/// (no `unsafe`, no sharing of the output between workers).
pub fn chunked_map_interleaved<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send + Clone + Default,
    I: Fn() -> S + Sync,
    F: Fn(u32, &mut S) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return (0..n as u32).map(|item| f(item, &mut scratch)).collect();
    }
    let threads = threads.min(n);
    let per_worker: Vec<Vec<T>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (init, f) = (&init, &f);
                scope.spawn(move |_| {
                    let mut scratch = init();
                    ((tid as u32)..n as u32)
                        .step_by(threads)
                        .map(|item| f(item, &mut scratch))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .expect("chunked_map_interleaved worker panicked");
    let mut out = vec![T::default(); n];
    for (tid, results) in per_worker.into_iter().enumerate() {
        for (j, value) in results.into_iter().enumerate() {
            out[tid + j * threads] = value;
        }
    }
    out
}

/// [`jacobi_assign`] under the interleaved schedule of
/// [`chunked_map_interleaved`] — same frozen-state pass, same output (each
/// item's decision is pure in the start-of-pass state), but skew-resistant
/// scheduling. The shard workers of `crate::shard` use this for their local
/// passes, where bucket skew concentrates in contiguous item ranges.
pub fn jacobi_assign_interleaved<M, P>(
    model: &M,
    provider: &P,
    assignments: &[ClusterId],
    threads: usize,
) -> (Vec<ClusterId>, usize)
where
    M: CentroidModel + Sync,
    P: SyncShortlistProvider,
{
    let per_item: Vec<(u32, u32)> = chunked_map_interleaved(
        assignments.len(),
        threads,
        || (provider.make_scratch(), Vec::new()),
        |item, (scratch, shortlist)| {
            provider.shortlist_into(item, scratch, shortlist);
            let chosen = match model.best_among(item, shortlist) {
                Some((c, _)) => c,
                None => assignments[item as usize],
            };
            (chosen.0, shortlist.len() as u32)
        },
    );
    let shortlist_total = per_item.iter().map(|&(_, len)| len as usize).sum();
    let new_assignments = per_item.into_iter().map(|(c, _)| ClusterId(c)).collect();
    (new_assignments, shortlist_total)
}

// ---------------------------------------------------------------------------
// Micro-batching request queue — the serving-side plumbing.
// ---------------------------------------------------------------------------

/// Why a [`MicroBatchQueue::push`] was refused. The rejected item is handed
/// back so callers can surface it (or retry) without cloning.
#[derive(Debug)]
pub enum QueuePushError<T> {
    /// The queue is at capacity (`queue_depth` pending items).
    Full(T),
    /// The queue was closed; no further work is accepted.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue whose consumers pop **coalesced batches**:
/// a pop blocks until at least one item is pending, then keeps the window
/// open up to `flush_latency` so concurrent producers' single items merge
/// into one batch (up to `max_batch`). Items stay queued during the window,
/// so the depth bound keeps back-pressuring producers the whole time.
///
/// This is the serving-side twin of [`chunked_map`]: `chunked_map` fans one
/// caller's batch over threads, the queue turns many callers' single
/// requests *into* batches. `lshclust`'s `ModelServer` feeds one of these to
/// a worker pool; the queue lives here so the primitive is reusable (and
/// testable) without the serving layer. Plain `Mutex` + `Condvar`, no
/// external dependencies.
pub struct MicroBatchQueue<T> {
    inner: Mutex<QueueState<T>>,
    not_empty: Condvar,
    depth: usize,
}

impl<T> MicroBatchQueue<T> {
    /// An empty open queue holding at most `depth` pending items (clamped to
    /// at least 1).
    pub fn new(depth: usize) -> Self {
        Self {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// The configured capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Items currently pending (monitoring; racy by nature).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty (racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, failing fast when the queue is full or closed —
    /// submission never blocks, so a saturated server sheds load with a
    /// typed error instead of stalling its callers.
    pub fn push(&self, item: T) -> Result<(), QueuePushError<T>> {
        let mut state = self.inner.lock().expect("queue lock");
        if state.closed {
            return Err(QueuePushError::Closed(item));
        }
        if state.items.len() >= self.depth {
            return Err(QueuePushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Closes the queue: pending items remain poppable (consumers drain),
    /// further pushes fail with [`QueuePushError::Closed`], and blocked
    /// `pop_batch` calls wake up.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }

    /// Pops one coalesced **non-empty** batch into `out` (cleared first) and
    /// returns `true`, or returns `false` when the queue is closed **and**
    /// fully drained (the consumer's signal to exit).
    ///
    /// Blocks until at least one item is pending; once one is, waits up to
    /// `flush_latency` for the pending count to reach `max_batch` (clamped
    /// to at least 1) before draining up to `max_batch` items in FIFO order.
    /// With `max_batch == 1` or a zero latency the window never opens, which
    /// is exactly the "no coalescing" serving mode.
    ///
    /// Multiple consumers may race: another consumer can drain the queue
    /// while this one sits in its flush window, in which case this call goes
    /// back to waiting rather than returning an empty batch — `true` always
    /// means at least one item.
    pub fn pop_batch(&self, out: &mut Vec<T>, max_batch: usize, flush_latency: Duration) -> bool {
        let max_batch = max_batch.max(1);
        out.clear();
        let mut state = self.inner.lock().expect("queue lock");
        loop {
            while state.items.is_empty() {
                if state.closed {
                    return false;
                }
                state = self.not_empty.wait(state).expect("queue lock");
            }
            if flush_latency > Duration::ZERO && state.items.len() < max_batch && !state.closed {
                let deadline = Instant::now() + flush_latency;
                while !state.items.is_empty() && state.items.len() < max_batch && !state.closed {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (next, timeout) = self
                        .not_empty
                        .wait_timeout(state, deadline - now)
                        .expect("queue lock");
                    state = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            let take = state.items.len().min(max_batch);
            if take == 0 {
                // A competing consumer drained the queue during our flush
                // window; go back to waiting instead of handing the caller
                // an empty batch.
                continue;
            }
            out.extend(state.items.drain(..take));
            if !state.items.is_empty() {
                // Leftovers beyond max_batch: hand them to another consumer.
                self.not_empty.notify_one();
            }
            return true;
        }
    }
}

/// Consumer-side controller that scales a [`MicroBatchQueue`] flush window
/// with observed load: the window **shrinks toward zero when the queue is
/// shallow** (a lone request should not sit out a fixed coalescing delay)
/// and **grows toward the configured maximum under load** (full batches are
/// evidence that waiting buys real coalescing).
///
/// The signal is an exponential moving average of the *fill ratio* of the
/// batches this consumer pops: `batch_len / max_batch`. Each pop feeds
/// [`Self::observe`]; the next pop asks [`Self::window`] for the window to
/// wait. A consumer that keeps popping full batches converges on the full
/// window; one that keeps popping singletons converges on an immediate
/// flush. The controller is deterministic in its observation sequence and
/// holds no clock of its own, so it is unit-testable without sleeping.
///
/// This lives next to the queue (rather than inside it) because the window
/// is a per-*consumer* policy: `pop_batch` takes whatever window the caller
/// chose, and a fixed window — just passing `flush_latency` every time —
/// remains available as the escape hatch.
#[derive(Clone, Debug)]
pub struct AdaptiveWindow {
    /// EMA of observed batch fill in `0.0..=1.0`; starts empty-handed (0) so
    /// the first requests after an idle stretch flush immediately.
    fill: f64,
}

/// EMA weight of the newest observation. High enough that a load spike opens
/// the window within a few batches; low enough that one straggler batch does
/// not slam it shut.
const ADAPTIVE_GAIN: f64 = 0.25;

/// Fill levels below this round the window down to an immediate flush —
/// `Duration::mul_f64` would otherwise produce sub-microsecond windows that
/// cost a timed wait without buying any coalescing.
const ADAPTIVE_FLOOR: f64 = 1.0 / 64.0;

impl AdaptiveWindow {
    /// A fresh controller (window starts at zero: shallow until proven
    /// loaded).
    pub fn new() -> Self {
        Self { fill: 0.0 }
    }

    /// The flush window to pass to the next `pop_batch`, given the
    /// configured maximum: `max` scaled by the load estimate, rounded down
    /// to zero below the 1/64 fill floor.
    pub fn window(&self, max: Duration) -> Duration {
        if self.fill < ADAPTIVE_FLOOR {
            Duration::ZERO
        } else {
            max.mul_f64(self.fill)
        }
    }

    /// Feeds one popped batch into the load estimate. A singleton batch
    /// counts as fill 0, not `1/max_batch`: one request means the window
    /// bought no coalescing at all, so sustained singletons must converge
    /// on an immediate flush rather than hover at the floor.
    pub fn observe(&mut self, batch_len: usize, max_batch: usize) {
        let ratio = if batch_len <= 1 {
            0.0
        } else {
            (batch_len as f64 / max_batch.max(1) as f64).clamp(0.0, 1.0)
        };
        self.fill += ADAPTIVE_GAIN * (ratio - self.fill);
    }

    /// The current load estimate in `0.0..=1.0` (monitoring).
    pub fn fill(&self) -> f64 {
        self.fill
    }
}

impl Default for AdaptiveWindow {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mhkmodes::{MhKModes, MhKModesConfig};
    use lshclust_categorical::{Dataset, DatasetBuilder};
    use lshclust_minhash::Banding;

    fn blob_dataset(groups: usize, per_group: usize, n_attrs: usize) -> Dataset {
        let mut b = DatasetBuilder::anonymous(n_attrs);
        for g in 0..groups {
            for i in 0..per_group {
                let row: Vec<String> = (0..n_attrs)
                    .map(|a| {
                        if a == n_attrs - 1 {
                            format!("g{g}-n{i}")
                        } else {
                            format!("g{g}-a{a}")
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
    fn parallel_matches_serial_partition() {
        let ds = blob_dataset(4, 6, 8);
        let serial = MhKModes::new(MhKModesConfig::new(4, Banding::new(16, 2)).seed(3)).fit(&ds);
        let parallel = MhKModes::new(
            MhKModesConfig::new(4, Banding::new(16, 2))
                .seed(3)
                .threads(4),
        )
        .fit(&ds);
        // Co-membership must agree on clearly separated data.
        for i in 0..ds.n_items() {
            for j in (i + 1)..ds.n_items() {
                assert_eq!(
                    serial.assignments[i] == serial.assignments[j],
                    parallel.assignments[i] == parallel.assignments[j],
                    "items {i},{j}"
                );
            }
        }
    }

    #[test]
    fn parallel_with_one_thread_matches_framework_results() {
        let ds = blob_dataset(3, 5, 8);
        let a = MhKModes::new(MhKModesConfig::new(3, Banding::new(12, 2)).seed(1)).fit(&ds);
        let b = MhKModes::new(
            MhKModesConfig::new(3, Banding::new(12, 2))
                .seed(1)
                .threads(2),
        )
        .fit(&ds);
        // Jacobi vs Gauss–Seidel may differ mid-run but the final partitions
        // on separated blobs must coincide.
        for i in 0..ds.n_items() {
            for j in (i + 1)..ds.n_items() {
                assert_eq!(
                    a.assignments[i] == a.assignments[j],
                    b.assignments[i] == b.assignments[j],
                );
            }
        }
    }

    #[test]
    fn thread_count_larger_than_items_is_fine() {
        let ds = blob_dataset(2, 3, 5);
        let result = MhKModes::new(
            MhKModesConfig::new(2, Banding::new(8, 1))
                .seed(2)
                .threads(64),
        )
        .fit(&ds);
        assert_eq!(result.assignments.len(), 6);
    }

    #[test]
    fn parallel_converges() {
        let ds = blob_dataset(5, 4, 10);
        let result = MhKModes::new(
            MhKModesConfig::new(5, Banding::new(10, 2))
                .seed(4)
                .threads(3),
        )
        .fit(&ds);
        assert!(result.summary.converged);
        assert_eq!(result.summary.iterations.last().unwrap().moves, 0);
    }

    #[test]
    fn fit_output_is_identical_at_any_parallel_thread_count() {
        let ds = blob_dataset(6, 5, 10);
        let run = |threads: usize| {
            MhKModes::new(
                MhKModesConfig::new(6, Banding::new(12, 2))
                    .seed(9)
                    .threads(threads),
            )
            .fit(&ds)
        };
        let two = run(2);
        for threads in [3, 4, 8, 64] {
            let other = run(threads);
            assert_eq!(two.assignments, other.assignments, "threads={threads}");
            assert_eq!(two.modes, other.modes, "threads={threads}");
        }
    }

    // ---- chunked_map edge cases -------------------------------------------

    #[test]
    fn chunked_map_empty_input() {
        let out: Vec<u64> = chunked_map(0, 4, || (), |i, _| u64::from(i));
        assert!(out.is_empty());
    }

    #[test]
    fn chunked_map_fewer_items_than_threads() {
        let out: Vec<u64> = chunked_map(3, 16, || (), |i, _| u64::from(i) * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn chunked_map_preserves_item_order() {
        for threads in [1usize, 2, 3, 7, 64] {
            let out: Vec<u64> = chunked_map(1000, threads, || (), |i, _| u64::from(i) * 3 + 1);
            let expected: Vec<u64> = (0..1000u64).map(|i| i * 3 + 1).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn chunked_map_scratch_is_isolated_per_thread() {
        // Each worker counts its own calls into its scratch; a slot records
        // the scratch value *at its call*, so within each chunk the recorded
        // sequence must be 1, 2, 3, … regardless of what other threads do.
        let threads = 4usize;
        let n = 64usize;
        let out: Vec<u64> = chunked_map(
            n,
            threads,
            || 0u64,
            |_, calls| {
                *calls += 1;
                *calls
            },
        );
        let chunk = n.div_ceil(threads);
        for (slice_idx, slice) in out.chunks(chunk).enumerate() {
            for (offset, &v) in slice.iter().enumerate() {
                assert_eq!(v, offset as u64 + 1, "chunk {slice_idx} offset {offset}");
            }
        }
    }

    // ---- interleaved (strided) scheduling ---------------------------------

    #[test]
    fn chunked_map_interleaved_matches_chunked_map() {
        for (n, threads) in [
            (0usize, 4usize),
            (1, 4),
            (3, 16),
            (64, 1),
            (1000, 7),
            (97, 3),
        ] {
            let contiguous: Vec<u64> = chunked_map(n, threads, || (), |i, _| u64::from(i) * 3 + 1);
            let strided: Vec<u64> =
                chunked_map_interleaved(n, threads, || (), |i, _| u64::from(i) * 3 + 1);
            assert_eq!(strided, contiguous, "n={n} threads={threads}");
        }
    }

    #[test]
    fn chunked_map_interleaved_scratch_is_isolated_per_worker() {
        // Worker `t` computes items t, t+T, t+2T, …; its scratch counts its
        // own calls, so slot `t + j·T` must record call number `j + 1` — any
        // scratch sharing or schedule deviation breaks the arithmetic.
        let threads = 4usize;
        let n = 61usize; // deliberately not a multiple of the thread count
        let out: Vec<u64> = chunked_map_interleaved(
            n,
            threads,
            || 0u64,
            |_, calls| {
                *calls += 1;
                *calls
            },
        );
        for (item, &v) in out.iter().enumerate() {
            assert_eq!(v, (item / threads) as u64 + 1, "item {item}");
        }
    }

    #[test]
    fn jacobi_assign_interleaved_matches_contiguous() {
        use crate::mhkmodes::{KModesModel, MinHashProvider};
        use lshclust_kmodes::init::{initial_modes, InitMethod};
        let ds = blob_dataset(4, 7, 8);
        let modes = initial_modes(&ds, 4, InitMethod::RandomItems, 5);
        let model = KModesModel::new(&ds, modes);
        let initial: Vec<ClusterId> = (0..ds.n_items() as u32).map(|i| ClusterId(i % 4)).collect();
        let index = LshIndexBuilder::new(Banding::new(10, 2))
            .seed(11)
            .build(&ds, &initial);
        let provider = MinHashProvider::new(index, 4, true);
        let reference = jacobi_assign(&model, &provider, &initial, 2);
        for threads in [1usize, 2, 3, 8, 64] {
            let strided = jacobi_assign_interleaved(&model, &provider, &initial, threads);
            assert_eq!(strided, reference, "threads={threads}");
        }
    }

    #[test]
    fn jacobi_closures_match_full_reevaluation_pass_for_pass() {
        use crate::framework::{ActivitySet, CentroidModel, ShortlistCache};
        use crate::mhkmodes::{KModesModel, MinHashProvider};
        use lshclust_kmodes::init::{initial_modes, InitMethod};
        let ds = blob_dataset(5, 8, 8);
        let k = 5usize;
        let modes = initial_modes(&ds, k, InitMethod::RandomItems, 5);
        let initial: Vec<ClusterId> = (0..ds.n_items() as u32)
            .map(|i| ClusterId(i % k as u32))
            .collect();
        let index = LshIndexBuilder::new(Banding::new(10, 2))
            .seed(11)
            .build(&ds, &initial);
        let provider = MinHashProvider::new(index, k, true);
        for threads in [1usize, 2, 3, 8] {
            for interleaved in [false, true] {
                let mut model = KModesModel::new(&ds, modes.clone());
                let mut assignments = initial.clone();
                let mut cache = ShortlistCache::new(ds.n_items());
                let mut activity = ActivitySet::all(k);
                let mut total_skipped = 0usize;
                for pass in 0..6 {
                    let (on, on_total, skipped) = jacobi_assign_closures(
                        &model,
                        &provider,
                        &assignments,
                        &activity,
                        &mut cache,
                        threads,
                        interleaved,
                    );
                    let (off, off_total) = jacobi_assign(&model, &provider, &assignments, 2);
                    assert_eq!(
                        on, off,
                        "threads={threads} interleaved={interleaved} pass={pass}"
                    );
                    assert_eq!(
                        on_total, off_total,
                        "threads={threads} interleaved={interleaved} pass={pass}"
                    );
                    total_skipped += skipped;
                    // Rebuild the drive loop's activity: update-changed
                    // clusters plus both endpoints of every move.
                    let mut next = model.update_centroids(&on);
                    for (old, new) in assignments.iter().zip(&on) {
                        if old != new {
                            next.mark(*old);
                            next.mark(*new);
                        }
                    }
                    activity = next;
                    assignments = on;
                }
                assert!(
                    total_skipped > 0,
                    "closure path never skipped (threads={threads} interleaved={interleaved})"
                );
            }
        }
    }

    // ---- parallel setup phase ---------------------------------------------

    #[test]
    fn assign_full_parallel_is_byte_identical_to_serial() {
        use crate::mhkmodes::KModesModel;
        use lshclust_kmodes::init::{initial_modes, InitMethod};
        let ds = blob_dataset(5, 7, 9);
        let modes = initial_modes(&ds, 5, InitMethod::RandomItems, 3);
        let model = KModesModel::new(&ds, modes);
        let mut serial = vec![ClusterId(0); ds.n_items()];
        let serial_outcome = framework::assign_full(&model, &mut serial);
        for threads in [2usize, 3, 8, 64] {
            let mut parallel = vec![ClusterId(0); ds.n_items()];
            let outcome = assign_full_parallel(&model, &mut parallel, threads);
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(outcome.moves, serial_outcome.moves, "threads={threads}");
            assert_eq!(outcome.shortlist_total, serial_outcome.shortlist_total);
        }
    }

    #[test]
    fn build_lsh_index_parallel_is_byte_identical_to_serial() {
        let ds = blob_dataset(4, 6, 8);
        let initial: Vec<ClusterId> = (0..ds.n_items() as u32).map(|i| ClusterId(i % 4)).collect();
        let builder = LshIndexBuilder::new(Banding::new(10, 2)).seed(17);
        let serial = builder.build(&ds, &initial);
        for threads in [2usize, 3, 16] {
            let keys = hash_band_keys_parallel(&builder, &ds, threads);
            let parallel = builder.build_from_band_keys(keys, &initial);
            assert_eq!(parallel.stats(), serial.stats(), "threads={threads}");
            let mut s1 = serial.make_scratch(4);
            let mut s2 = parallel.make_scratch(4);
            for item in 0..ds.n_items() as u32 {
                serial.shortlist(item, &mut s1, false);
                parallel.shortlist(item, &mut s2, false);
                assert_eq!(s1.clusters, s2.clusters, "threads={threads} item {item}");
            }
        }
    }

    #[test]
    fn simhash_build_parallel_is_byte_identical_to_serial() {
        use crate::mhkmeans::SimHashIndex;
        use lshclust_kmodes::kmeans::NumericDataset;
        let data = NumericDataset::new(3, (0..60).map(|i| (i as f64 * 0.83).sin() * 5.0).collect());
        let family = SimHashIndex::new(&data, 6, 4, 7);
        let serial = family.band_keys(&data, 1);
        for threads in [2usize, 5, 32] {
            assert_eq!(
                family.band_keys(&data, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    // ---- micro-batch queue ------------------------------------------------

    #[test]
    fn queue_push_pop_fifo() {
        let q = MicroBatchQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 10, Duration::ZERO));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn queue_full_is_deterministic_without_a_consumer() {
        let q = MicroBatchQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        match q.push(3) {
            Err(QueuePushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn queue_close_rejects_pushes_but_drains_pops() {
        let q = MicroBatchQueue::new(4);
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        match q.push("c") {
            Err(QueuePushError::Closed("c")) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        let mut out = Vec::new();
        // Pending items survive the close (shutdown drains)...
        assert!(q.pop_batch(&mut out, 1, Duration::ZERO));
        assert_eq!(out, vec!["a"]);
        assert!(q.pop_batch(&mut out, 1, Duration::ZERO));
        assert_eq!(out, vec!["b"]);
        // ...and a drained closed queue signals the consumer to exit.
        assert!(!q.pop_batch(&mut out, 1, Duration::ZERO));
    }

    #[test]
    fn queue_max_batch_splits_and_leftovers_wake_the_next_pop() {
        let q = MicroBatchQueue::new(16);
        for i in 0..7 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 4, Duration::ZERO));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(q.pop_batch(&mut out, 4, Duration::ZERO));
        assert_eq!(out, vec![4, 5, 6]);
    }

    #[test]
    fn queue_coalesces_concurrent_producers_into_one_batch() {
        let q = MicroBatchQueue::new(64);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..6 {
                    q.push(i).unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            let mut out = Vec::new();
            let mut total = 0usize;
            let mut pops = 0usize;
            while total < 6 {
                assert!(q.pop_batch(&mut out, 16, Duration::from_millis(200)));
                total += out.len();
                pops += 1;
            }
            // The 200ms window must have merged the 2ms-apart pushes into
            // far fewer pops than items (normally exactly one).
            assert!(pops < 6, "no coalescing happened: {pops} pops for 6 items");
        });
    }

    #[test]
    fn queue_competing_consumers_never_receive_an_empty_true_batch() {
        // Two consumers both in flush windows, one producer: `true` must
        // always come with at least one item even when the other consumer
        // drained the queue mid-window, and nothing is lost or duplicated.
        let q = MicroBatchQueue::new(256);
        let n_items = 200u32;
        let collected: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        let mut mine = Vec::new();
                        while q.pop_batch(&mut out, 8, Duration::from_millis(5)) {
                            assert!(!out.is_empty(), "true must mean a non-empty batch");
                            mine.extend_from_slice(&out);
                        }
                        mine
                    })
                })
                .collect();
            for i in 0..n_items {
                q.push(i).unwrap();
                if i % 16 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            // Give the windows a moment to drain, then close.
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            consumers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let mut all: Vec<u32> = collected.into_iter().flatten().collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..n_items).collect();
        assert_eq!(all, expected, "every item served exactly once");
    }

    #[test]
    fn adaptive_window_starts_at_zero_and_grows_under_full_batches() {
        let mut w = AdaptiveWindow::new();
        let max = Duration::from_micros(200);
        assert_eq!(w.window(max), Duration::ZERO, "idle start flushes at once");
        for _ in 0..32 {
            w.observe(64, 64); // full batches: sustained load
        }
        assert!(
            w.window(max) > max.mul_f64(0.95),
            "sustained full batches must open the window toward the max, got {:?}",
            w.window(max)
        );
    }

    #[test]
    fn adaptive_window_decays_back_to_an_immediate_flush_when_shallow() {
        let mut w = AdaptiveWindow::new();
        for _ in 0..32 {
            w.observe(64, 64);
        }
        for _ in 0..64 {
            w.observe(1, 64); // singleton batches: the queue went shallow
        }
        assert_eq!(
            w.window(Duration::from_micros(200)),
            Duration::ZERO,
            "sustained singletons must shrink the window to zero"
        );
    }

    #[test]
    fn adaptive_window_is_deterministic_in_its_observation_sequence() {
        let mut a = AdaptiveWindow::new();
        let mut b = AdaptiveWindow::new();
        for i in 0..100 {
            a.observe(i % 17, 16);
            b.observe(i % 17, 16);
        }
        assert_eq!(a.fill(), b.fill());
        assert_eq!(
            a.window(Duration::from_micros(500)),
            b.window(Duration::from_micros(500))
        );
    }

    #[test]
    fn queue_blocking_pop_wakes_on_push() {
        let q = std::sync::Arc::new(MicroBatchQueue::new(4));
        let q2 = q.clone();
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            assert!(q2.pop_batch(&mut out, 1, Duration::ZERO));
            out[0]
        });
        std::thread::sleep(Duration::from_millis(20));
        q.push(42u32).unwrap();
        assert_eq!(handle.join().unwrap(), 42);
    }
}
