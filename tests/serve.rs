//! Concurrent-serving contract of `lshclust::serve::ModelServer`:
//!
//! * **determinism** — coalesced, multi-caller serving returns byte-identical
//!   assignments to the serial `FittedModel::predict` path, for all three
//!   modalities and any batching the queue happens to form;
//! * **hot reload** — the model swaps without dropping in-flight requests,
//!   generations are monotone in serving order, and post-reload answers come
//!   from the new model;
//! * **lifecycle** — queue-full sheds load with a typed error, shutdown
//!   drains every accepted request, and submits after shutdown fail.

use lshclust::serve::{ModelServer, ServeError, ServerConfig};
use lshclust::{
    ClusterId, ClusterSpec, Clusterer, DatasetBuilder, FittedModel, Lsh, NumericDataset,
};
use lshclust_kmodes::kprototypes::MixedDataset;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn categorical_blobs(groups: usize, per_group: usize, n_attrs: usize) -> lshclust::Dataset {
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

fn numeric_blobs(groups: usize, per_group: usize, dim: usize) -> NumericDataset {
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

/// A config that forces real coalescing: one worker, wide batches, a window
/// long enough that concurrent submissions genuinely merge.
fn coalescing_config() -> ServerConfig {
    ServerConfig::default()
        .workers(2)
        .max_batch(8)
        .flush_latency(Duration::from_millis(2))
        .queue_depth(4096)
}

/// Submits every row of `expected`'s index space from `callers` threads and
/// checks each served answer against the serial expectation.
fn assert_concurrent_matches_serial<F>(callers: usize, n: usize, submit_and_check: F)
where
    F: Fn(usize) + Sync,
{
    std::thread::scope(|scope| {
        for caller in 0..callers {
            let submit_and_check = &submit_and_check;
            scope.spawn(move || {
                for i in (caller..n).step_by(callers) {
                    submit_and_check(i);
                }
            });
        }
    });
}

#[test]
fn categorical_serving_is_byte_identical_to_serial_predict() {
    let ds = categorical_blobs(4, 8, 6);
    let spec = ClusterSpec::new(4)
        .lsh(Lsh::MinHash { bands: 10, rows: 2 })
        .seed(5);
    let run = Clusterer::new(spec).fit(&ds).unwrap();
    let expected = run.model.predict(&ds).unwrap();
    let server = ModelServer::start(run.model.clone(), coalescing_config());
    assert_concurrent_matches_serial(4, ds.n_items(), |i| {
        let served = server.predict_row(ds.row(i).to_vec()).unwrap();
        assert_eq!(served.cluster, expected[i], "row {i}");
        assert_eq!(served.generation, 0);
    });
    server.shutdown();
}

#[test]
fn numeric_serving_is_byte_identical_to_serial_predict() {
    let data = numeric_blobs(3, 10, 4);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::SimHash { bands: 6, rows: 4 })
        .seed(2);
    let run = Clusterer::new(spec).fit(&data).unwrap();
    let expected = run.model.predict(&data).unwrap();
    let server = ModelServer::start(run.model.clone(), coalescing_config());
    assert_concurrent_matches_serial(4, data.n_items(), |i| {
        let served = server.predict_point(data.row(i).to_vec()).unwrap();
        assert_eq!(served.cluster, expected[i], "point {i}");
    });
    server.shutdown();
}

#[test]
fn mixed_serving_is_byte_identical_to_serial_predict() {
    let cat = categorical_blobs(3, 8, 4);
    let num = numeric_blobs(3, 8, 3);
    let data = MixedDataset::new(&cat, &num);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::Union {
            bands: 10,
            rows: 2,
            sim_bands: 4,
            sim_rows: 8,
        })
        .seed(3);
    let run = Clusterer::new(spec).fit(&data).unwrap();
    let expected = run.model.predict(&data).unwrap();
    let server = ModelServer::start(run.model.clone(), coalescing_config());
    assert_concurrent_matches_serial(3, data.n_items(), |i| {
        let served = server
            .predict_mixed(cat.row(i).to_vec(), num.row(i).to_vec())
            .unwrap();
        assert_eq!(served.cluster, expected[i], "item {i}");
    });
    server.shutdown();
}

#[test]
fn str_mixed_serving_encodes_at_serve_time_and_matches_the_library_call() {
    let cat = categorical_blobs(3, 6, 4);
    let num = numeric_blobs(3, 6, 2);
    let data = MixedDataset::new(&cat, &num);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::Union {
            bands: 8,
            rows: 2,
            sim_bands: 4,
            sim_rows: 8,
        })
        .seed(7);
    let run = Clusterer::new(spec).fit(&data).unwrap();
    let server = ModelServer::start(run.model.clone(), coalescing_config());
    // Raw strings (incl. an unseen value) + numeric part; the served answer
    // must equal encode-then-predict through the library.
    let rows: [[&str; 4]; 3] = [
        ["g0-a0", "g0-a1", "g0-a2", "unseen"],
        ["g1-a0", "g1-a1", "g1-a2", "g1-n0"],
        ["g2-a0", "g2-a1", "g2-a2", "g2-n3"],
    ];
    for (i, row) in rows.iter().enumerate() {
        let point = num.row(i * 6).to_vec();
        let served = server.predict_str_mixed(row, point.clone()).unwrap();
        let encoded = run.model.encode_row(row).unwrap();
        assert_eq!(
            served.cluster,
            run.model.predict_mixed_one(&encoded, &point).unwrap(),
            "row {i}"
        );
    }
    server.shutdown();
}

#[test]
fn str_row_serving_matches_the_library_call_under_concurrency() {
    let ds = categorical_blobs(3, 6, 5);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .seed(9);
    let run = Clusterer::new(spec).fit(&ds).unwrap();
    let server = ModelServer::start(run.model.clone(), coalescing_config());
    // Raw strings, including values the training schema never saw.
    let rows: Vec<Vec<String>> = (0..12)
        .map(|i| {
            (0..5)
                .map(|a| {
                    if a == 4 {
                        format!("unseen-{i}")
                    } else {
                        format!("g{}-a{a}", i % 3)
                    }
                })
                .collect()
        })
        .collect();
    assert_concurrent_matches_serial(4, rows.len(), |i| {
        let refs: Vec<&str> = rows[i].iter().map(String::as_str).collect();
        let served = server.predict_str_row(&refs).unwrap();
        assert_eq!(
            served.cluster,
            run.model.predict_str_row(&refs).unwrap(),
            "row {i}"
        );
    });
    server.shutdown();
}

#[test]
fn coalescing_on_and_off_serve_identical_answers() {
    // Same requests through a maximally-coalescing server and a strictly
    // one-row-per-call server: byte-identical clusters either way.
    let ds = categorical_blobs(4, 6, 6);
    let spec = ClusterSpec::new(4)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .seed(11);
    let run = Clusterer::new(spec).fit(&ds).unwrap();
    let coalesced = ModelServer::start(run.model.clone(), coalescing_config());
    let single = ModelServer::start(
        run.model.clone(),
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .flush_latency(Duration::ZERO),
    );
    for i in 0..ds.n_items() {
        let a = coalesced.predict_row(ds.row(i).to_vec()).unwrap();
        let b = single.predict_row(ds.row(i).to_vec()).unwrap();
        assert_eq!(a.cluster, b.cluster, "row {i}");
    }
    coalesced.shutdown();
    single.shutdown();
}

#[test]
fn reload_under_load_keeps_generations_monotone_and_drops_nothing() {
    let ds = categorical_blobs(3, 8, 5);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .seed(1);
    let v1 = Clusterer::new(spec.clone()).fit(&ds).unwrap();
    let v2 = Clusterer::new(spec.seed(2)).fit(&ds).unwrap();

    // One worker ⇒ batches pop FIFO and each batch snapshots at pop time,
    // so generations are non-decreasing in submission order.
    let server = ModelServer::start(
        v1.model.clone(),
        ServerConfig::default()
            .workers(1)
            .max_batch(4)
            .flush_latency(Duration::from_micros(500))
            .queue_depth(4096),
    );
    let handle = server.handle();
    let rounds = 120;
    let predictions = std::thread::scope(|scope| {
        let caller = scope.spawn(|| {
            let mut tickets = Vec::with_capacity(rounds);
            for i in 0..rounds {
                tickets.push(
                    server
                        .submit_row(ds.row(i % ds.n_items()).to_vec())
                        .unwrap(),
                );
            }
            tickets
                .into_iter()
                .map(|t| t.wait().expect("no request dropped across the reload"))
                .collect::<Vec<_>>()
        });
        std::thread::sleep(Duration::from_millis(1));
        let generation = handle.reload(v2.model.clone());
        assert_eq!(generation, 1);
        caller.join().unwrap()
    });

    assert_eq!(predictions.len(), rounds, "every ticket resolved");
    let mut last = 0u64;
    for (i, p) in predictions.iter().enumerate() {
        assert!(
            p.generation >= last,
            "generation ran backwards at request {i}: {} < {last}",
            p.generation
        );
        last = p.generation;
        // Every answer matches the library predict of the generation that
        // served it — reload swaps models, never mixes them.
        let model = if p.generation == 0 {
            &v1.model
        } else {
            &v2.model
        };
        assert_eq!(
            p.cluster,
            model.predict_one(ds.row(i % ds.n_items())).unwrap(),
            "request {i} (generation {})",
            p.generation
        );
    }
    // A request submitted after the reload must see the new generation.
    let after = server.predict_row(ds.row(0).to_vec()).unwrap();
    assert_eq!(after.generation, 1);
    server.shutdown();
}

#[test]
fn reload_from_json_round_trips_and_rejects_garbage() {
    let ds = categorical_blobs(2, 6, 4);
    let spec = ClusterSpec::new(2)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .seed(4);
    let run = Clusterer::new(spec).fit(&ds).unwrap();
    let server = ModelServer::start(run.model.clone(), ServerConfig::default());
    let handle = server.handle();
    // A bad envelope must not swap anything.
    assert!(handle.reload_from_json("{\"format\":\"nope\"}").is_err());
    assert_eq!(server.generation(), 0);
    // The model's own envelope reloads cleanly.
    assert_eq!(handle.reload_from_json(&run.model.to_json()).unwrap(), 1);
    let served = server.predict_row(ds.row(0).to_vec()).unwrap();
    assert_eq!(served.generation, 1);
    assert_eq!(served.cluster, run.assignments[0]);
    server.shutdown();
}

#[test]
fn queue_full_sheds_load_with_a_typed_error() {
    let ds = categorical_blobs(2, 4, 4);
    let run = Clusterer::new(ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 4, rows: 2 }))
        .fit(&ds)
        .unwrap();
    // depth 4, one worker whose coalescing window (max_batch above the
    // depth, long flush) leaves items *in* the queue while it waits — so
    // filling the queue within the window is deterministic.
    let server = ModelServer::start(
        run.model.clone(),
        ServerConfig::default()
            .workers(1)
            .max_batch(64)
            .flush_latency(Duration::from_millis(500))
            .queue_depth(4),
    );
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for i in 0..32 {
        match server.submit_row(ds.row(i % ds.n_items()).to_vec()) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull) => shed += 1,
            Err(other) => panic!("expected QueueFull, got {other:?}"),
        }
    }
    assert!(shed > 0, "an overfilled bounded queue must shed load");
    assert!(tickets.len() >= 4, "the queue accepted up to its depth");
    // Every accepted request still resolves.
    for t in tickets {
        t.wait().expect("accepted requests are served");
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_accepted_requests_then_rejects_new_ones() {
    let ds = categorical_blobs(3, 5, 5);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .seed(6);
    let run = Clusterer::new(spec).fit(&ds).unwrap();
    let server = ModelServer::start(
        run.model.clone(),
        ServerConfig::default()
            .workers(1)
            .max_batch(4)
            .flush_latency(Duration::from_millis(20))
            .queue_depth(256),
    );
    let tickets: Vec<_> = (0..ds.n_items())
        .map(|i| server.submit_row(ds.row(i).to_vec()).unwrap())
        .collect();
    let handle = server.handle();
    server.shutdown();
    // Drained: every pre-shutdown ticket resolves with the right answer.
    for (i, t) in tickets.into_iter().enumerate() {
        let served = t.wait().expect("shutdown drains the queue");
        assert_eq!(served.cluster, run.model.predict_one(ds.row(i)).unwrap());
    }
    // The handle outlives the server, but the server itself is gone; a new
    // server on the same handle-model still works (models are plain data).
    let revived = ModelServer::start((*handle.model()).clone(), ServerConfig::default());
    let again = revived.predict_row(ds.row(0).to_vec()).unwrap();
    assert_eq!(again.cluster, run.model.predict_one(ds.row(0)).unwrap());
    revived.shutdown();
}

#[test]
fn submits_after_shutdown_fail_with_shutdown_error() {
    // `shutdown` consumes the server, so "submit after shutdown" is only
    // reachable through a clone of the intake side — model the daemon case:
    // the queue closes while a caller still holds the server reference.
    let ds = categorical_blobs(2, 4, 4);
    let run = Clusterer::new(ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 4, rows: 2 }))
        .fit(&ds)
        .unwrap();
    let server = ModelServer::start(run.model.clone(), ServerConfig::default());
    std::thread::scope(|scope| {
        let server_ref = &server;
        let row = ds.row(0).to_vec();
        scope.spawn(move || {
            // Wait until the main thread has closed intake.
            loop {
                match server_ref.submit_row(row.clone()) {
                    Err(ServeError::ShutDown) => break,
                    Ok(ticket) => {
                        let _ = ticket.wait();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(other) => panic!("unexpected {other:?}"),
                }
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        server.close_intake();
    });
    server.shutdown();
}

#[test]
fn set_threads_zero_clamps_to_one_like_every_other_boundary() {
    // The spec-boundary rule (`threads(0)` ⇒ serial) must hold at serve
    // time too: a zero override may not reach `chunked_map`.
    let ds = categorical_blobs(2, 5, 4);
    let run = Clusterer::new(ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 8, rows: 2 }))
        .fit(&ds)
        .unwrap();
    let mut model = run.model.clone();
    model.set_threads(0);
    assert_eq!(model.spec().threads, 1, "set_threads(0) must clamp to 1");
    // The clamped model still predicts (and through a server too).
    assert_eq!(model.predict(&ds).unwrap(), run.assignments);
    let server = ModelServer::start(model, ServerConfig::default());
    assert_eq!(
        server.predict_row(ds.row(0).to_vec()).unwrap().cluster,
        run.assignments[0]
    );
    server.shutdown();
    // And a non-zero override round-trips through the envelope.
    let mut model = run.model.clone();
    model.set_threads(3);
    let reloaded = lshclust::FittedModel::from_json(&model.to_json()).unwrap();
    assert_eq!(reloaded.spec().threads, 3);
}

// ---------------------------------------------------------------------------
// Deadline semantics
// ---------------------------------------------------------------------------

#[test]
fn expired_on_arrival_requests_are_never_scored() {
    let ds = categorical_blobs(2, 6, 4);
    let run = Clusterer::new(ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 8, rows: 2 }))
        .fit(&ds)
        .unwrap();
    // Cache enabled so the hit/miss counters witness every trip through the
    // scoring path; a long fixed flush guarantees the deadline has passed by
    // the time the worker pops the batch.
    let server = ModelServer::start(
        run.model.clone(),
        ServerConfig::default()
            .workers(1)
            .max_batch(64)
            .flush_latency(Duration::from_millis(30))
            .adaptive_flush(false)
            .hot_keys(64),
    );
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit_row_deadline(ds.row(i).to_vec(), Some(Duration::ZERO))
                .unwrap()
        })
        .collect();
    for t in tickets {
        match t.wait() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expired-on-arrival must resolve DeadlineExceeded, got {other:?}"),
        }
    }
    // An expired request replies before the cache lookup, so neither counter
    // moved: nothing was scored, nothing was cached.
    let cache = server.hot_key_stats();
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 0, 0));
    let tickets = server.ticket_stats();
    assert_eq!(
        (tickets.submitted, tickets.resolved),
        (6, 6),
        "deadline skips still resolve their tickets"
    );
    server.shutdown();
}

#[test]
fn default_deadline_covers_plain_submits_and_explicit_none_overrides_it() {
    let ds = categorical_blobs(2, 5, 4);
    let run = Clusterer::new(ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 8, rows: 2 }))
        .fit(&ds)
        .unwrap();
    let server = ModelServer::start(
        run.model.clone(),
        ServerConfig::default()
            .workers(1)
            .max_batch(16)
            .flush_latency(Duration::from_millis(10))
            .adaptive_flush(false)
            .default_deadline(Some(Duration::ZERO)),
    );
    // Plain submits inherit the (instantly-expired) config default...
    match server.predict_row(ds.row(0).to_vec()) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("config default deadline must apply, got {other:?}"),
    }
    // ...and an explicit `None` opts a single request out of it entirely.
    let served = server
        .submit_row_deadline(ds.row(0).to_vec(), None)
        .unwrap()
        .wait()
        .expect("deadline-exempt request is served");
    assert_eq!(served.cluster, run.model.predict_one(ds.row(0)).unwrap());
    server.shutdown();
}

#[test]
fn saturated_queue_resolves_deadlined_tickets_promptly() {
    let ds = categorical_blobs(2, 6, 4);
    let run = Clusterer::new(ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 8, rows: 2 }))
        .fit(&ds)
        .unwrap();
    // One worker parked in a long fixed flush window while the queue fills:
    // deadlined requests sit in the queue past their deadline, and the pop
    // must resolve them as DeadlineExceeded instead of scoring stale work.
    let server = ModelServer::start(
        run.model.clone(),
        ServerConfig::default()
            .workers(1)
            .max_batch(64)
            .flush_latency(Duration::from_millis(150))
            .adaptive_flush(false)
            .queue_depth(256),
    );
    let started = Instant::now();
    let deadlined: Vec<_> = (0..24)
        .map(|i| {
            server
                .submit_row_deadline(
                    ds.row(i % ds.n_items()).to_vec(),
                    Some(Duration::from_millis(2)),
                )
                .unwrap()
        })
        .collect();
    let exempt = server
        .submit_row_deadline(ds.row(0).to_vec(), None)
        .unwrap();
    let mut expired = 0usize;
    for t in deadlined {
        match t.wait() {
            Err(ServeError::DeadlineExceeded) => expired += 1,
            Ok(_) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        expired > 0,
        "a 2ms deadline under a 150ms flush must expire"
    );
    // Deadlined tickets resolve at the same pop as the rest of the batch —
    // nothing hangs for anything like the wait-cap timescale.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadlined tickets must resolve promptly, took {:?}",
        started.elapsed()
    );
    // The same batch still serves requests that carried no deadline.
    let served = exempt.wait().expect("deadline-free request is served");
    assert_eq!(served.cluster, run.model.predict_one(ds.row(0)).unwrap());
    let tickets = server.ticket_stats();
    assert_eq!(tickets.submitted, tickets.resolved);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Hot-key cache: byte-identity properties
// ---------------------------------------------------------------------------

/// Fixtures are fitted once per process: proptest cases then only pay for
/// server startup and queries, not refits.
struct CatFixture {
    ds: lshclust::Dataset,
    model: FittedModel,
    expected: Vec<ClusterId>,
}

fn cat_fixture() -> &'static CatFixture {
    static FIX: OnceLock<CatFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = categorical_blobs(4, 8, 6);
        let spec = ClusterSpec::new(4)
            .lsh(Lsh::MinHash { bands: 10, rows: 2 })
            .seed(5);
        let run = Clusterer::new(spec).fit(&ds).unwrap();
        let expected = run.model.predict(&ds).unwrap();
        CatFixture {
            ds,
            model: run.model,
            expected,
        }
    })
}

struct NumFixture {
    data: NumericDataset,
    model: FittedModel,
    expected: Vec<ClusterId>,
}

fn num_fixture() -> &'static NumFixture {
    static FIX: OnceLock<NumFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = numeric_blobs(3, 10, 4);
        let spec = ClusterSpec::new(3)
            .lsh(Lsh::SimHash { bands: 6, rows: 4 })
            .seed(2);
        let run = Clusterer::new(spec).fit(&data).unwrap();
        let expected = run.model.predict(&data).unwrap();
        NumFixture {
            data,
            model: run.model,
            expected,
        }
    })
}

struct MixedFixture {
    cat: lshclust::Dataset,
    num: NumericDataset,
    model: FittedModel,
    expected: Vec<ClusterId>,
}

fn mixed_fixture() -> &'static MixedFixture {
    static FIX: OnceLock<MixedFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let cat = categorical_blobs(3, 8, 4);
        let num = numeric_blobs(3, 8, 3);
        let data = MixedDataset::new(&cat, &num);
        let spec = ClusterSpec::new(3)
            .lsh(Lsh::Union {
                bands: 10,
                rows: 2,
                sim_bands: 4,
                sim_rows: 8,
            })
            .seed(3);
        let run = Clusterer::new(spec).fit(&data).unwrap();
        let expected = run.model.predict(&data).unwrap();
        MixedFixture {
            cat,
            num,
            model: run.model,
            expected,
        }
    })
}

fn cached_pair(model: &FittedModel) -> (ModelServer, ModelServer) {
    let cached = ModelServer::start(model.clone(), coalescing_config().hot_keys(512));
    let uncached = ModelServer::start(model.clone(), coalescing_config().hot_keys(0));
    (cached, uncached)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any query sequence (replayed twice so every key repeats), the
    /// cached server, the uncached server, and serial `predict` agree
    /// byte-for-byte — and the second pass is answered from the cache.
    #[test]
    fn cached_and_uncached_categorical_serving_agree(
        indices in prop::collection::vec(0usize..32, 8..40),
    ) {
        let fix = cat_fixture();
        let (cached, uncached) = cached_pair(&fix.model);
        for pass in 0..2 {
            for &i in &indices {
                let a = cached.predict_row(fix.ds.row(i).to_vec()).unwrap();
                let b = uncached.predict_row(fix.ds.row(i).to_vec()).unwrap();
                prop_assert_eq!(a.cluster, fix.expected[i], "pass {} row {}", pass, i);
                prop_assert_eq!(b.cluster, fix.expected[i], "pass {} row {}", pass, i);
            }
        }
        let stats = cached.hot_key_stats();
        prop_assert!(
            stats.hits >= indices.len() as u64,
            "second pass must be cache hits: {} hits for {} repeats",
            stats.hits, indices.len()
        );
        prop_assert_eq!(uncached.hot_key_stats(), Default::default(), "hot_keys(0) disables");
        cached.shutdown();
        uncached.shutdown();
    }

    #[test]
    fn cached_and_uncached_numeric_serving_agree(
        indices in prop::collection::vec(0usize..30, 8..40),
    ) {
        let fix = num_fixture();
        let (cached, uncached) = cached_pair(&fix.model);
        for pass in 0..2 {
            for &i in &indices {
                let a = cached.predict_point(fix.data.row(i).to_vec()).unwrap();
                let b = uncached.predict_point(fix.data.row(i).to_vec()).unwrap();
                prop_assert_eq!(a.cluster, fix.expected[i], "pass {} point {}", pass, i);
                prop_assert_eq!(b.cluster, fix.expected[i], "pass {} point {}", pass, i);
            }
        }
        prop_assert!(cached.hot_key_stats().hits >= indices.len() as u64);
        cached.shutdown();
        uncached.shutdown();
    }

    #[test]
    fn cached_and_uncached_mixed_serving_agree(
        indices in prop::collection::vec(0usize..24, 8..40),
    ) {
        let fix = mixed_fixture();
        let (cached, uncached) = cached_pair(&fix.model);
        for pass in 0..2 {
            for &i in &indices {
                let a = cached
                    .predict_mixed(fix.cat.row(i).to_vec(), fix.num.row(i).to_vec())
                    .unwrap();
                let b = uncached
                    .predict_mixed(fix.cat.row(i).to_vec(), fix.num.row(i).to_vec())
                    .unwrap();
                prop_assert_eq!(a.cluster, fix.expected[i], "pass {} item {}", pass, i);
                prop_assert_eq!(b.cluster, fix.expected[i], "pass {} item {}", pass, i);
            }
        }
        prop_assert!(cached.hot_key_stats().hits >= indices.len() as u64);
        cached.shutdown();
        uncached.shutdown();
    }

    /// A reload must invalidate the cache: after the generation bump, every
    /// answer matches the *new* model's serial predict even for keys the old
    /// generation had cached.
    #[test]
    fn reload_invalidates_the_hot_key_cache(
        indices in prop::collection::vec(0usize..24, 8..30),
    ) {
        static V2: OnceLock<(FittedModel, Vec<ClusterId>)> = OnceLock::new();
        let fix = cat_fixture();
        let (v2, v2_expected) = V2.get_or_init(|| {
            let spec = ClusterSpec::new(4)
                .lsh(Lsh::MinHash { bands: 10, rows: 2 })
                .seed(17);
            let run = Clusterer::new(spec).fit(&fix.ds).unwrap();
            let expected = run.model.predict(&fix.ds).unwrap();
            (run.model, expected)
        });
        let server = ModelServer::start(fix.model.clone(), coalescing_config().hot_keys(512));
        // Populate the cache with generation-0 answers for these exact keys.
        for &i in &indices {
            let served = server.predict_row(fix.ds.row(i).to_vec()).unwrap();
            prop_assert_eq!(served.cluster, fix.expected[i]);
        }
        prop_assert_eq!(server.reload(v2.clone()), 1);
        // The same keys must now answer from the new model — a stale hit
        // would surface wherever the two fits disagree.
        for &i in &indices {
            let served = server.predict_row(fix.ds.row(i).to_vec()).unwrap();
            prop_assert_eq!(served.generation, 1u64);
            prop_assert_eq!(
                served.cluster, v2_expected[i],
                "stale cache hit at row {} after reload", i
            );
        }
        server.shutdown();
    }
}

// ---- non-finite query coordinates ----------------------------------------

/// Asserts a served answer is the typed non-finite error for `dimension`.
fn assert_non_finite(served: Result<lshclust::serve::Prediction, ServeError>, dimension: usize) {
    match served {
        Err(ServeError::Model(lshclust::ModelError::NonFinite { dimension: d })) => {
            assert_eq!(d, dimension)
        }
        other => panic!("expected a non-finite error at {dimension}, got {other:?}"),
    }
}

#[test]
fn non_finite_points_are_typed_errors_and_never_cached() {
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let num = num_fixture();
    let server = ModelServer::start(num.model.clone(), coalescing_config().hot_keys(64));
    for x in bad {
        assert_non_finite(server.predict_point(vec![0.0, x, 0.0, 0.0]), 1);
        // The same payload again: still scored, still an error.
        assert_non_finite(server.predict_point(vec![0.0, x, 0.0, 0.0]), 1);
    }
    assert_eq!(
        server.hot_key_stats().entries,
        0,
        "errors must not be cached"
    );
    // A finite query is answered and cached as usual.
    let ok = server.predict_point(num.data.row(0).to_vec()).unwrap();
    assert_eq!(ok.cluster, num.expected[0]);
    assert_eq!(server.hot_key_stats().entries, 1);
    server.shutdown();

    let mixed = mixed_fixture();
    let server = ModelServer::start(mixed.model.clone(), coalescing_config().hot_keys(64));
    let row = mixed.cat.row(0).to_vec();
    let strings = ["g0-a0", "g0-a1", "g0-a2", "g0-n0"];
    for x in bad {
        assert_non_finite(server.predict_mixed(row.clone(), vec![x, 0.0, 0.0]), 0);
        assert_non_finite(server.predict_str_mixed(&strings, vec![0.0, 0.0, x]), 2);
    }
    assert_eq!(
        server.hot_key_stats().entries,
        0,
        "errors must not be cached"
    );
    server.shutdown();
}

/// The NDJSON protocol behind `cluster serve` (stdin and socket fronts
/// alike) answers a non-finite point with an `err` line. JSON has no NaN,
/// but an overflowing literal such as `1e999` parses to infinity.
#[test]
fn wire_requests_with_overflowing_coordinates_get_err_lines() {
    use lshclust::serve::proto::{render_reply, LineOutcome, ProtoEngine};
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let cases = [
        (
            "model-numeric.v1.json",
            vec![
                r#"{"predict":{"point":[1e999,0]},"id":1}"#,
                r#"{"predict":{"point":[-1e999,1e999]},"id":2}"#,
            ],
        ),
        (
            "model-mixed.v1.json",
            vec![
                r#"{"predict":{"row":["g0-a0","g0-a1","g0-a2","g0-a3","g0-a4","x"],"point":[0,-1e999]},"id":3}"#,
            ],
        ),
    ];
    for (file, lines) in cases {
        let model = FittedModel::load(fixtures.join(file)).unwrap();
        let server = std::sync::Arc::new(ModelServer::start(model, ServerConfig::default()));
        let engine = ProtoEngine::new(server.clone(), None);
        for line in lines {
            let LineOutcome::Reply(out) = engine.handle_line(line) else {
                panic!("{file}: `{line}` was not answered");
            };
            let reply = render_reply(out, Duration::from_secs(20));
            assert!(
                reply.contains(r#""err":"#) && reply.contains("not a finite number"),
                "{file}: `{line}` answered {reply}"
            );
        }
        assert_eq!(server.hot_key_stats().entries, 0, "{file}");
    }
}

/// `{"stats"}` is answered in reply order: written behind N predicts in one
/// write, its reply counts all N as submitted and resolved.
#[test]
fn stats_reply_counts_every_reply_written_before_it() {
    use lshclust::serve::proto::ProtoEngine;
    use lshclust::serve::socket::{SocketOptions, SocketServer};
    use std::io::{BufRead, BufReader, Write};

    let num = num_fixture();
    let n = num.data.n_items();
    let server = std::sync::Arc::new(ModelServer::start(num.model.clone(), coalescing_config()));
    let socket = SocketServer::bind_tcp(
        "127.0.0.1:0",
        ProtoEngine::new(server, None),
        SocketOptions::default(),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(socket.local_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut lines = String::new();
    for i in 0..n {
        let point = serde_json::to_string(&num.data.row(i).to_vec()).unwrap();
        lines += &format!("{{\"predict\":{{\"point\":{point}}},\"id\":{i}}}\n");
    }
    lines += "{\"stats\":true}\n";
    stream.write_all(lines.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let mut read_reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        (serde_json::parse(line.trim()).unwrap(), line)
    };
    for i in 0..n {
        let (reply, line) = read_reply();
        assert_eq!(reply.get("id").and_then(|v| v.as_u64()), Some(i as u64));
        let cluster = reply.get("ok").and_then(|ok| ok.get("cluster")?.as_u64());
        assert_eq!(cluster, Some(u64::from(num.expected[i].0)), "{line}");
    }
    let (stats, line) = read_reply();
    let field = |name: &str| stats.get("ok").and_then(|ok| ok.get(name)?.as_u64());
    assert_eq!(field("submitted"), Some(n as u64), "{line}");
    assert_eq!(field("resolved"), Some(n as u64), "{line}");
    drop(reader);
    socket.shutdown();
}
