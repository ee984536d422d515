//! The train/serve split, end to end: every `ClusterRun` owns a
//! `FittedModel` whose JSON envelope round-trips **byte-identically**, whose
//! `predict` reproduces the converged run's training assignments across all
//! three dataset modalities, and whose centroids warm-start refits.

use lshclust::{
    ClusterSpec, Clusterer, DatasetBuilder, FittedModel, Lsh, MixedDataset, ModelError,
    NumericDataset, SpecError, StreamOptions,
};
use lshclust_categorical::{ClusterId, Dataset, Schema, ValueId};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixtures: well-separated blobs in each modality.
// ---------------------------------------------------------------------------

/// `groups` categorical blobs of `per_group` items over `n_attrs`
/// attributes; a blob shares all but the last (noise) attribute.
fn cat_blobs(groups: usize, per_group: usize, n_attrs: usize) -> Dataset {
    let mut b = DatasetBuilder::anonymous(n_attrs);
    for g in 0..groups {
        for i in 0..per_group {
            let row: Vec<String> = (0..n_attrs)
                .map(|a| {
                    if a == n_attrs - 1 {
                        format!("g{g}-noise{i}")
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

/// `groups` numeric blobs on a circle of radius 10, 2-D.
fn num_blobs(groups: usize, per_group: usize) -> NumericDataset {
    let mut data = Vec::new();
    for g in 0..groups {
        let angle = g as f64 / groups as f64 * std::f64::consts::TAU;
        let (cx, cy) = (10.0 * angle.cos(), 10.0 * angle.sin());
        for i in 0..per_group {
            let jx = (i as f64 * 0.37).sin() * 0.2;
            let jy = (i as f64 * 0.71).cos() * 0.2;
            data.extend_from_slice(&[cx + jx, cy + jy]);
        }
    }
    NumericDataset::new(2, data)
}

fn mixed_blobs(groups: usize, per_group: usize) -> (Dataset, NumericDataset) {
    (
        cat_blobs(groups, per_group, 6),
        num_blobs(groups, per_group),
    )
}

// ---------------------------------------------------------------------------
// Acceptance: JSON round-trips byte-identically; predict on the training
// batch reproduces the converged run's assignments, per modality.
// ---------------------------------------------------------------------------

fn assert_byte_identical_round_trip(model: &lshclust::FittedModel) -> FittedModel {
    let json = model.to_json();
    let back = FittedModel::from_json(&json).expect("model envelope parses");
    assert_eq!(back.to_json(), json, "save → load → save changed bytes");
    back
}

#[test]
fn categorical_model_round_trips_and_reproduces_training_assignments() {
    let ds = cat_blobs(4, 6, 8);
    let spec = ClusterSpec::new(4)
        .lsh(Lsh::MinHash { bands: 16, rows: 2 })
        .seed(3);
    let run = Clusterer::new(spec).fit(&ds).unwrap();
    assert!(run.summary.converged);

    let reloaded = assert_byte_identical_round_trip(&run.model);
    assert_eq!(run.model.predict(&ds).unwrap(), run.assignments);
    assert_eq!(reloaded.predict(&ds).unwrap(), run.assignments);
    // Single-row path agrees with the batch path.
    for i in 0..ds.n_items() {
        assert_eq!(reloaded.predict_one(ds.row(i)).unwrap(), run.assignments[i]);
    }
}

#[test]
fn categorical_exact_baseline_model_serves_by_full_search() {
    let ds = cat_blobs(3, 5, 6);
    let run = Clusterer::new(ClusterSpec::new(3).seed(7))
        .fit(&ds)
        .unwrap();
    assert!(run.summary.converged);
    assert!(!run.model.has_index(), "Lsh::None serves by full search");
    let reloaded = assert_byte_identical_round_trip(&run.model);
    assert_eq!(reloaded.predict(&ds).unwrap(), run.assignments);
}

#[test]
fn numeric_model_round_trips_and_reproduces_training_assignments() {
    let data = num_blobs(4, 8);
    for lsh in [Lsh::None, Lsh::SimHash { bands: 10, rows: 3 }] {
        let run = Clusterer::new(ClusterSpec::new(4).lsh(lsh).seed(1))
            .fit(&data)
            .unwrap();
        assert!(run.summary.converged, "{lsh:?}");
        let reloaded = assert_byte_identical_round_trip(&run.model);
        assert_eq!(reloaded.predict(&data).unwrap(), run.assignments, "{lsh:?}");
        for i in 0..data.n_items() {
            assert_eq!(
                reloaded.predict_point(data.row(i)).unwrap(),
                run.assignments[i]
            );
        }
    }
}

#[test]
fn mixed_model_round_trips_and_reproduces_training_assignments() {
    let (cat, num) = mixed_blobs(4, 6);
    let data = MixedDataset::new(&cat, &num);
    let union = Lsh::Union {
        bands: 16,
        rows: 2,
        sim_bands: 8,
        sim_rows: 4,
    };
    for lsh in [Lsh::None, union] {
        let run = Clusterer::new(ClusterSpec::new(4).lsh(lsh).seed(1))
            .fit(&data)
            .unwrap();
        assert!(run.summary.converged, "{lsh:?}");
        let reloaded = assert_byte_identical_round_trip(&run.model);
        assert_eq!(reloaded.gamma(), run.model.gamma(), "γ survives the trip");
        assert_eq!(reloaded.predict(&data).unwrap(), run.assignments, "{lsh:?}");
        for i in 0..data.n_items() {
            assert_eq!(
                reloaded.predict_mixed_one(cat.row(i), num.row(i)).unwrap(),
                run.assignments[i]
            );
        }
    }
}

#[test]
fn model_save_load_through_a_file() {
    let ds = cat_blobs(3, 4, 6);
    let run = Clusterer::new(
        ClusterSpec::new(3)
            .lsh(Lsh::MinHash { bands: 8, rows: 2 })
            .seed(5),
    )
    .fit(&ds)
    .unwrap();
    let path = std::env::temp_dir().join("lshclust-serving-test-model.json");
    run.model.save(&path).unwrap();
    let loaded = FittedModel::load(&path).unwrap();
    assert_eq!(loaded.to_json(), run.model.to_json());
    assert_eq!(loaded.predict(&ds).unwrap(), run.assignments);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Serving unseen items: threads, string rows, unseen values.
// ---------------------------------------------------------------------------

#[test]
fn batched_predict_is_thread_count_invariant() {
    let ds = cat_blobs(5, 8, 8);
    let run = Clusterer::new(
        ClusterSpec::new(5)
            .lsh(Lsh::MinHash { bands: 16, rows: 2 })
            .seed(2)
            .threads(4), // the model inherits the spec's thread count
    )
    .fit(&ds)
    .unwrap();
    let parallel = run.model.predict(&ds).unwrap();
    // Per-row predictions are inherently serial; they must agree.
    let serial: Vec<ClusterId> = (0..ds.n_items())
        .map(|i| run.model.predict_one(ds.row(i)).unwrap())
        .collect();
    assert_eq!(parallel, serial);
}

#[test]
fn unseen_rows_and_unseen_values_are_served() {
    let ds = cat_blobs(3, 5, 6);
    let run = Clusterer::new(
        ClusterSpec::new(3)
            .lsh(Lsh::MinHash { bands: 16, rows: 2 })
            .seed(4),
    )
    .fit(&ds)
    .unwrap();
    // A fresh item from blob 1's distribution, with a never-seen noise value.
    let fresh = ["g1-a0", "g1-a1", "g1-a2", "g1-a3", "g1-a4", "totally-new"];
    let c = run.model.predict_str_row(&fresh).unwrap();
    assert_eq!(c, run.assignments[5], "fresh item joins blob 1's cluster");
    // encode_row maps unseen strings to NOT_PRESENT.
    let encoded = run.model.encode_row(&fresh).unwrap();
    assert_eq!(encoded[5], lshclust_categorical::NOT_PRESENT);
}

#[test]
fn streaming_hand_off_produces_a_serving_model() {
    let ds = cat_blobs(4, 8, 8);
    let spec = ClusterSpec::new(0)
        .lsh(Lsh::MinHash { bands: 16, rows: 2 })
        .seed(9)
        .stream(StreamOptions {
            distance_threshold: Some(4),
            max_clusters: None,
        });
    let mut stream = Clusterer::new(spec).streaming(ds.schema().clone()).unwrap();
    for i in 0..ds.n_items() {
        stream.insert(ds.row(i));
    }
    while stream.refine_pass() > 0 {}

    let model = FittedModel::from_streaming(&stream).unwrap();
    assert_eq!(model.k(), stream.n_clusters());
    assert_eq!(model.modality(), "categorical");
    // The snapshot serves the already-inserted items exactly as the stream
    // assigned them (refinement reached a fixpoint).
    for i in 0..ds.n_items() {
        assert_eq!(
            model.predict_one(ds.row(i)).unwrap(),
            stream.assignments()[i],
            "item {i}"
        );
    }
    // And the hand-off artifact round-trips like any other model.
    let reloaded = assert_byte_identical_round_trip(&model);
    assert_eq!(reloaded.predict(&ds).unwrap(), stream.assignments());
}

#[test]
fn empty_stream_cannot_hand_off() {
    let spec = ClusterSpec::new(0).lsh(Lsh::MinHash { bands: 4, rows: 1 });
    let stream = Clusterer::new(spec)
        .streaming(Schema::anonymous(3))
        .unwrap();
    assert_eq!(
        FittedModel::from_streaming(&stream).unwrap_err(),
        ModelError::EmptyModel
    );
}

// ---------------------------------------------------------------------------
// Warm starts.
// ---------------------------------------------------------------------------

#[test]
fn warm_start_resumes_from_served_centroids() {
    let ds = cat_blobs(4, 6, 8);
    let spec = ClusterSpec::new(4)
        .lsh(Lsh::MinHash { bands: 16, rows: 2 })
        .seed(3);
    let run = Clusterer::new(spec.clone()).fit(&ds).unwrap();
    assert!(run.summary.converged);

    // Refitting from the converged model is a no-op: the first shortlisted
    // pass makes no moves.
    let refit = spec.clone().warm_start(&run.model).fit(&ds).unwrap();
    assert_eq!(refit.assignments, run.assignments);
    assert_eq!(refit.summary.n_iterations(), 1);
    assert_eq!(refit.summary.iterations[0].moves, 0);

    // A different seed draws different hashes but the same warm centroids
    // still pin the partition on separated blobs.
    let reseeded = spec.seed(99).warm_start(&run.model).fit(&ds).unwrap();
    assert_eq!(reseeded.assignments, run.assignments);
}

#[test]
fn warm_start_works_across_all_modalities_and_baselines() {
    // Numeric.
    let data = num_blobs(3, 6);
    for lsh in [Lsh::None, Lsh::SimHash { bands: 8, rows: 3 }] {
        let spec = ClusterSpec::new(3).lsh(lsh).seed(1);
        let run = Clusterer::new(spec.clone()).fit(&data).unwrap();
        let refit = spec.warm_start(&run.model).fit(&data).unwrap();
        assert_eq!(refit.assignments, run.assignments, "{lsh:?}");
    }
    // Mixed (γ flows from the warm model when the spec leaves it unset).
    let (cat, num) = mixed_blobs(3, 5);
    let data = MixedDataset::new(&cat, &num);
    let union = Lsh::Union {
        bands: 16,
        rows: 2,
        sim_bands: 8,
        sim_rows: 4,
    };
    for lsh in [Lsh::None, union] {
        let spec = ClusterSpec::new(3).lsh(lsh).seed(2);
        let run = Clusterer::new(spec.clone()).fit(&data).unwrap();
        let refit = spec.warm_start(&run.model).fit(&data).unwrap();
        assert_eq!(refit.assignments, run.assignments, "{lsh:?}");
        assert_eq!(refit.model.gamma(), run.model.gamma());
    }
    // Categorical exact baseline.
    let ds = cat_blobs(3, 5, 6);
    let spec = ClusterSpec::new(3).seed(7);
    let run = Clusterer::new(spec.clone()).fit(&ds).unwrap();
    let refit = spec.warm_start(&run.model).fit(&ds).unwrap();
    assert_eq!(refit.assignments, run.assignments);
}

#[test]
fn warm_start_mismatches_are_typed_errors() {
    let ds = cat_blobs(3, 5, 6);
    let num = num_blobs(3, 5);
    let spec = ClusterSpec::new(3).lsh(Lsh::MinHash { bands: 8, rows: 2 });
    let run = Clusterer::new(spec.clone()).fit(&ds).unwrap();

    // Wrong modality: a categorical model cannot seed a numeric fit.
    let err = ClusterSpec::new(3)
        .lsh(Lsh::SimHash { bands: 8, rows: 2 })
        .warm_start(&run.model)
        .fit(&num)
        .unwrap_err();
    assert!(matches!(err, SpecError::WarmStartMismatch { .. }), "{err}");

    // Wrong k: the spec must request exactly the model's cluster count.
    let err = ClusterSpec::new(5)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .warm_start(&run.model)
        .fit(&ds)
        .unwrap_err();
    assert!(matches!(err, SpecError::WarmStartMismatch { .. }), "{err}");

    // Wrong arity: a dataset with a different attribute count.
    let narrow = cat_blobs(3, 5, 4);
    let err = spec.warm_start(&run.model).fit(&narrow).unwrap_err();
    assert!(matches!(err, SpecError::WarmStartMismatch { .. }), "{err}");
}

// ---------------------------------------------------------------------------
// Error surfaces: every SpecError variant behaves, every ModelError
// variant is reachable.
// ---------------------------------------------------------------------------

#[test]
fn streaming_rejects_non_minhash_schemes_with_typed_errors() {
    let schema = Schema::anonymous(4);
    for lsh in [
        Lsh::None,
        Lsh::SimHash { bands: 8, rows: 2 },
        Lsh::Union {
            bands: 8,
            rows: 2,
            sim_bands: 4,
            sim_rows: 4,
        },
    ] {
        let err = Clusterer::new(ClusterSpec::new(0).lsh(lsh))
            .streaming(schema.clone())
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::UnsupportedLsh {
                modality: "streaming",
                lsh: lsh.name(),
            }
        );
        assert!(err.to_string().contains("streaming"), "{err}");
    }
}

#[test]
fn remaining_spec_error_variants_fire_in_context() {
    let ds = cat_blobs(2, 3, 4);
    // InvalidK.
    assert_eq!(
        Clusterer::new(ClusterSpec::new(0)).fit(&ds).unwrap_err(),
        SpecError::InvalidK { k: 0, n_items: 6 }
    );
    // UnsupportedInit.
    assert!(matches!(
        Clusterer::new(ClusterSpec::new(2).init(lshclust::Init::PlusPlus))
            .fit(&ds)
            .unwrap_err(),
        SpecError::UnsupportedInit {
            modality: "categorical",
            ..
        }
    ));
    // UnsupportedLsh.
    assert!(matches!(
        Clusterer::new(ClusterSpec::new(2).lsh(Lsh::SimHash { bands: 4, rows: 2 }))
            .fit(&ds)
            .unwrap_err(),
        SpecError::UnsupportedLsh {
            modality: "categorical",
            ..
        }
    ));
}

#[test]
fn model_error_variants_are_reachable_and_descriptive() {
    let ds = cat_blobs(2, 4, 5);
    let run = Clusterer::new(ClusterSpec::new(2).seed(1))
        .fit(&ds)
        .unwrap();
    let model = &run.model;

    // WrongModality.
    let err = model.predict_point(&[1.0]).unwrap_err();
    assert_eq!(
        err,
        ModelError::WrongModality {
            expected: "categorical",
            got: "numeric",
        }
    );
    assert!(err.to_string().contains("categorical"), "{err}");

    // ShapeMismatch.
    let err = model.predict_one(&[ValueId(0)]).unwrap_err();
    assert!(
        matches!(
            err,
            ModelError::ShapeMismatch {
                expected: 5,
                got: 1,
                ..
            }
        ),
        "{err}"
    );

    // Json: garbage input.
    assert!(matches!(
        FittedModel::from_json("not json").unwrap_err(),
        ModelError::Json(_)
    ));

    // Envelope: wrong format marker and unsupported version.
    let json = model.to_json();
    let wrong_format = json.replacen("lshclust-model", "other-format", 1);
    assert!(matches!(
        FittedModel::from_json(&wrong_format).unwrap_err(),
        ModelError::Envelope(_)
    ));
    let wrong_version = json.replacen("\"version\": 1", "\"version\": 999", 1);
    let err = FittedModel::from_json(&wrong_version).unwrap_err();
    assert!(matches!(err, ModelError::Envelope(_)));
    assert!(err.to_string().contains("999"), "{err}");

    // Json: an internally consistent modes block whose arity disagrees
    // with the schema is rejected instead of misindexing rows at query
    // time. (Tree surgery: the public API cannot produce this artifact.)
    {
        use lshclust_kmodes::modes::Modes;
        use serde::{Deserialize, Serialize, Value};
        fn entry<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
            let Value::Object(entries) = v else {
                panic!("expected object")
            };
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("key present")
                .1
        }
        let mut tree = Serialize::to_value(&run.model);
        let modes = entry(entry(entry(&mut tree, "centroids"), "Categorical"), "modes");
        // 3-attr modes under the 5-attr schema.
        *modes = Serialize::to_value(&Modes::from_parts(2, 3, vec![ValueId(0); 6]));
        let err = <FittedModel as Deserialize>::from_value(&tree).unwrap_err();
        assert!(err.0.contains("attributes"), "{err}");
    }

    // Io: loading a missing path.
    assert!(matches!(
        FittedModel::load("/nonexistent/model.json").unwrap_err(),
        ModelError::Io(_)
    ));
}

// ---------------------------------------------------------------------------
// Property: across all three modalities, a converged run's model reproduces
// the training assignments (the deterministic proptest shim draws the
// dataset shapes and seeds).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_categorical_predict_reproduces_training_batch(
        groups in 2usize..6,
        per_group in 3usize..8,
        seed in 0u64..1000,
    ) {
        let ds = cat_blobs(groups, per_group, 8);
        let spec = ClusterSpec::new(groups)
            .lsh(Lsh::MinHash { bands: 24, rows: 2 })
            .seed(seed);
        let run = Clusterer::new(spec).fit(&ds).unwrap();
        prop_assume!(run.summary.converged);
        let served = run.model.predict(&ds).unwrap();
        prop_assert_eq!(served, run.assignments);
    }

    #[test]
    fn prop_numeric_predict_reproduces_training_batch(
        groups in 2usize..6,
        per_group in 4usize..9,
        seed in 0u64..1000,
    ) {
        let data = num_blobs(groups, per_group);
        let spec = ClusterSpec::new(groups)
            .lsh(Lsh::SimHash { bands: 10, rows: 3 })
            .seed(seed);
        let run = Clusterer::new(spec).fit(&data).unwrap();
        prop_assume!(run.summary.converged);
        let served = run.model.predict(&data).unwrap();
        prop_assert_eq!(served, run.assignments);
    }

    #[test]
    fn prop_mixed_predict_reproduces_training_batch(
        groups in 2usize..5,
        per_group in 3usize..7,
        seed in 0u64..1000,
    ) {
        let (cat, num) = mixed_blobs(groups, per_group);
        let data = MixedDataset::new(&cat, &num);
        let spec = ClusterSpec::new(groups)
            .lsh(Lsh::Union { bands: 24, rows: 2, sim_bands: 8, sim_rows: 4 })
            .seed(seed);
        let run = Clusterer::new(spec).fit(&data).unwrap();
        prop_assume!(run.summary.converged);
        let served = run.model.predict(&data).unwrap();
        prop_assert_eq!(served, run.assignments);
    }

    #[test]
    fn prop_model_json_round_trip_is_byte_identical(
        groups in 2usize..5,
        seed in 0u64..1000,
    ) {
        let ds = cat_blobs(groups, 4, 6);
        let spec = ClusterSpec::new(groups)
            .lsh(Lsh::MinHash { bands: 12, rows: 2 })
            .seed(seed);
        let run = Clusterer::new(spec).fit(&ds).unwrap();
        let json = run.model.to_json();
        let back = FittedModel::from_json(&json).unwrap();
        prop_assert_eq!(back.to_json(), json);
    }
}

// ---------------------------------------------------------------------------
// Non-finite query coordinates (NaN, ±inf) have no nearest centroid: every
// predict entry point answers them with a typed error instead of a cluster.
// ---------------------------------------------------------------------------

const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// The training points with coordinate `dimension` of item `item` replaced.
fn with_coordinate(data: &NumericDataset, item: usize, dimension: usize, x: f64) -> NumericDataset {
    let mut values: Vec<f64> = (0..data.n_items())
        .flat_map(|i| data.row(i).to_vec())
        .collect();
    values[item * data.dim() + dimension] = x;
    NumericDataset::new(data.dim(), values)
}

#[test]
fn numeric_models_reject_non_finite_points() {
    let data = num_blobs(3, 6);
    for lsh in [Lsh::SimHash { bands: 8, rows: 2 }, Lsh::None] {
        let run = Clusterer::new(ClusterSpec::new(3).lsh(lsh).seed(4))
            .fit(&data)
            .unwrap();
        let model = &run.model;
        for bad in NON_FINITE {
            for dimension in 0..2 {
                let mut point = [1.0, -1.0];
                point[dimension] = bad;
                assert_eq!(
                    model.predict_point(&point),
                    Err(ModelError::NonFinite { dimension }),
                    "{lsh:?} point {point:?}"
                );
            }
            let batch = with_coordinate(&data, 4, 1, bad);
            assert_eq!(
                model.predict(&batch),
                Err(ModelError::NonFinite { dimension: 1 }),
                "{lsh:?} batch with {bad}"
            );
        }
        let err = model.predict_point(&[f64::INFINITY, 0.0]).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        // Finite queries are unaffected.
        assert_eq!(model.predict(&data).unwrap(), run.assignments);
    }
}

#[test]
fn mixed_models_reject_non_finite_points() {
    let (cat, num) = mixed_blobs(3, 6);
    let data = MixedDataset::new(&cat, &num);
    let spec = ClusterSpec::new(3)
        .lsh(Lsh::Union {
            bands: 8,
            rows: 2,
            sim_bands: 8,
            sim_rows: 2,
        })
        .seed(4);
    let run = Clusterer::new(spec).fit(&data).unwrap();
    let model = &run.model;
    for bad in NON_FINITE {
        assert_eq!(
            model.predict_mixed_one(cat.row(0), &[0.0, bad]),
            Err(ModelError::NonFinite { dimension: 1 })
        );
        let bad_num = with_coordinate(&num, 7, 0, bad);
        assert_eq!(
            model.predict(&MixedDataset::new(&cat, &bad_num)),
            Err(ModelError::NonFinite { dimension: 0 })
        );
    }
    assert_eq!(model.predict(&data).unwrap(), run.assignments);
}

// ---------------------------------------------------------------------------
// The schema is shared, never copied: a fit's model holds the dataset's own
// schema allocation, under every discipline that builds a categorical part.
// ---------------------------------------------------------------------------

#[test]
fn fitted_models_share_the_dataset_schema_allocation() {
    use lshclust::Fit;
    use std::sync::Arc;

    let minibatch = Fit::MiniBatch {
        batch_size: 8,
        n_steps: 20,
        refresh_every: 4,
    };
    let union = Lsh::Union {
        bands: 16,
        rows: 2,
        sim_bands: 8,
        sim_rows: 4,
    };
    let minhash = Lsh::MinHash { bands: 16, rows: 2 };
    let (cat, num) = mixed_blobs(4, 6);
    let mixed = MixedDataset::new(&cat, &num);
    for (lsh, modality) in [(minhash, "categorical"), (union, "mixed")] {
        let specs = [
            ClusterSpec::new(4).lsh(lsh),
            ClusterSpec::new(4).lsh(Lsh::None),
            ClusterSpec::new(4).lsh(lsh).fit(minibatch),
            ClusterSpec::new(4).lsh(lsh).shards(2),
        ];
        for spec in specs {
            let spec = spec.seed(1);
            let label = format!(
                "{modality} {:?} {:?} shards={}",
                spec.lsh, spec.fit, spec.shards
            );
            let clusterer = Clusterer::new(spec);
            let run = if modality == "mixed" {
                clusterer.fit(&mixed)
            } else {
                clusterer.fit(&cat)
            }
            .unwrap();
            let schema = run.model.shared_schema().expect("a mode part");
            assert!(Arc::ptr_eq(schema, cat.shared_schema()), "{label}");
            if run.summary.converged {
                let predicted = if modality == "mixed" {
                    run.model.predict(&mixed)
                } else {
                    run.model.predict(&cat)
                };
                assert_eq!(predicted.unwrap(), run.assignments, "{label}");
            }
        }
    }
}

/// Single-item predicts reuse one scratch per thread across models; calls
/// interleaved over models of different `k`, index families and
/// modalities still answer exactly as each model's batch predict.
#[test]
fn interleaved_single_predicts_across_models_match_batch_predicts() {
    let (cat, num) = mixed_blobs(4, 6);
    let mixed = MixedDataset::new(&cat, &num);
    // The SimHash-only model has the largest k, so the scratch it sizes
    // must also serve the MinHash probes of the smaller models.
    let numeric = Clusterer::new(
        ClusterSpec::new(6)
            .lsh(Lsh::SimHash { bands: 8, rows: 2 })
            .seed(2),
    )
    .fit(&num)
    .unwrap()
    .model;
    let small = Clusterer::new(
        ClusterSpec::new(2)
            .lsh(Lsh::MinHash { bands: 16, rows: 2 })
            .seed(2),
    )
    .fit(&cat)
    .unwrap()
    .model;
    let large = Clusterer::new(
        ClusterSpec::new(5)
            .lsh(Lsh::MinHash { bands: 16, rows: 2 })
            .seed(2),
    )
    .fit(&cat)
    .unwrap()
    .model;
    let union = Clusterer::new(
        ClusterSpec::new(3)
            .lsh(Lsh::Union {
                bands: 16,
                rows: 2,
                sim_bands: 8,
                sim_rows: 4,
            })
            .seed(2),
    )
    .fit(&mixed)
    .unwrap()
    .model;
    let exact = Clusterer::new(ClusterSpec::new(3).lsh(Lsh::None).seed(2))
        .fit(&cat)
        .unwrap()
        .model;
    let batches = [
        numeric.predict(&num).unwrap(),
        small.predict(&cat).unwrap(),
        large.predict(&cat).unwrap(),
        union.predict(&mixed).unwrap(),
        exact.predict(&cat).unwrap(),
    ];
    for i in 0..cat.n_items() {
        let singles = [
            numeric.predict_point(num.row(i)).unwrap(),
            small.predict_one(cat.row(i)).unwrap(),
            large.predict_one(cat.row(i)).unwrap(),
            union.predict_mixed_one(cat.row(i), num.row(i)).unwrap(),
            exact.predict_one(cat.row(i)).unwrap(),
        ];
        for (m, (single, batch)) in singles.iter().zip(&batches).enumerate() {
            assert_eq!(*single, batch[i], "model {m}, item {i}");
        }
    }
}
