//! One validated input boundary: every fit (each modality, each discipline,
//! sharded or not) and every similarity run rejects an LSH scheme with an
//! empty hash family, and a numeric input holding NaN or ±∞, with a typed
//! [`SpecError`] before any work starts — instead of a panic inside the
//! banding, or an `Ok` run over non-finite centroids.

use lshclust::{
    ClusterSpec, Clusterer, Dataset, DatasetBuilder, Fit, Lsh, MixedDataset, NumericDataset, Sim,
    SimSpec, SpecError,
};
use lshclust_core::shard::{NumShardInit, ShardInit, ShardWorker};

const N: usize = 40;
const DIM: usize = 3;

/// Four groups of ten rows each.
fn categorical() -> Dataset {
    let mut b = DatasetBuilder::anonymous(4);
    for i in 0..N {
        let g = i % 4;
        let row: Vec<String> = (0..4)
            .map(|a| {
                if a == 3 {
                    format!("n{i}")
                } else {
                    format!("g{g}a{a}")
                }
            })
            .collect();
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        b.push_str_row(&refs, None).unwrap();
    }
    b.finish()
}

/// Four blobs, with `bad` written into cell `(item, dim)` when given.
fn numeric(bad: Option<(usize, usize, f64)>) -> NumericDataset {
    let mut values: Vec<f64> = (0..N * DIM)
        .map(|cell| ((cell / DIM) % 4) as f64 * 10.0 + (cell as f64 * 0.37).sin())
        .collect();
    if let Some((item, dim, value)) = bad {
        values[item * DIM + dim] = value;
    }
    NumericDataset::new(DIM, values)
}

const SIMHASH: Lsh = Lsh::SimHash { bands: 6, rows: 4 };
const UNION: Lsh = Lsh::Union {
    bands: 8,
    rows: 2,
    sim_bands: 6,
    sim_rows: 4,
};
const MINI_BATCH: Fit = Fit::MiniBatch {
    batch_size: 8,
    n_steps: 10,
    refresh_every: 4,
};

/// The same spec under every discipline: full (serial and threaded),
/// mini-batch, and two shards.
fn disciplines(lsh: Lsh) -> Vec<ClusterSpec> {
    let spec = ClusterSpec::new(4).lsh(lsh).seed(3);
    vec![
        spec.clone(),
        spec.clone().threads(2),
        spec.clone().fit(MINI_BATCH),
        spec.shards(2),
    ]
}

fn banding(lsh: &'static str, family: &'static str, bands: u32, rows: u32) -> SpecError {
    SpecError::InvalidBanding {
        lsh,
        family,
        bands,
        rows,
    }
}

#[test]
fn empty_minhash_bandings_are_typed_errors_on_categorical_data() {
    let data = categorical();
    for (lsh, bands, rows) in [
        (Lsh::MinHash { bands: 0, rows: 2 }, 0, 2),
        (Lsh::MinHash { bands: 8, rows: 0 }, 8, 0),
    ] {
        for spec in disciplines(lsh) {
            let err = Clusterer::new(spec.clone()).fit(&data).unwrap_err();
            assert_eq!(err, banding("MinHash", "MinHash", bands, rows), "{spec:?}");
        }
    }
}

#[test]
fn empty_simhash_bandings_are_typed_errors_on_numeric_data() {
    let data = numeric(None);
    for (lsh, bands, rows) in [
        (Lsh::SimHash { bands: 5, rows: 0 }, 5, 0),
        (Lsh::SimHash { bands: 0, rows: 4 }, 0, 4),
    ] {
        for spec in disciplines(lsh) {
            let err = Clusterer::new(spec.clone()).fit(&data).unwrap_err();
            assert_eq!(err, banding("SimHash", "SimHash", bands, rows), "{spec:?}");
        }
    }
}

#[test]
fn empty_union_families_are_typed_errors_on_mixed_data() {
    let (cat, num) = (categorical(), numeric(None));
    let data = MixedDataset::new(&cat, &num);
    let cases = [
        (
            Lsh::Union {
                bands: 0,
                rows: 2,
                sim_bands: 6,
                sim_rows: 4,
            },
            banding("Union", "MinHash", 0, 2),
        ),
        (
            Lsh::Union {
                bands: 8,
                rows: 2,
                sim_bands: 6,
                sim_rows: 0,
            },
            banding("Union", "SimHash", 6, 0),
        ),
    ];
    for (lsh, want) in cases {
        for spec in disciplines(lsh) {
            let err = Clusterer::new(spec.clone()).fit(&data).unwrap_err();
            assert_eq!(err, want, "{spec:?}");
        }
    }
}

#[test]
fn every_family_of_the_scheme_is_checked_even_where_it_does_not_apply() {
    // A zero-row SimHash scheme on categorical data names the empty family,
    // not the modality mismatch.
    let err = Clusterer::new(ClusterSpec::new(4).lsh(Lsh::SimHash { bands: 5, rows: 0 }))
        .fit(&categorical())
        .unwrap_err();
    assert_eq!(err, banding("SimHash", "SimHash", 5, 0));
}

#[test]
fn non_finite_numeric_cells_are_typed_errors_in_every_discipline() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let data = numeric(Some((17, 1, bad)));
        let mut specs = disciplines(SIMHASH);
        specs.push(ClusterSpec::new(4).seed(3)); // the exact baseline
        specs.push(ClusterSpec::new(4).seed(3).fit(MINI_BATCH)); // its mini-batch
        for spec in specs {
            let err = Clusterer::new(spec.clone()).fit(&data).unwrap_err();
            assert_eq!(err, SpecError::NonFinite { item: 17, dim: 1 }, "{spec:?}");
        }
    }
}

#[test]
fn non_finite_mixed_cells_are_typed_errors() {
    let cat = categorical();
    let num = numeric(Some((39, 2, f64::INFINITY)));
    let data = MixedDataset::new(&cat, &num);
    let mut specs = disciplines(UNION);
    specs.push(ClusterSpec::new(4).seed(3));
    for spec in specs {
        let err = Clusterer::new(spec.clone()).fit(&data).unwrap_err();
        assert_eq!(err, SpecError::NonFinite { item: 39, dim: 2 }, "{spec:?}");
    }
}

#[test]
fn similarity_runs_reject_empty_families_and_non_finite_cells() {
    let cat = categorical();
    let empty = SimSpec::new(1.0).lsh(Lsh::MinHash { bands: 0, rows: 2 });
    assert_eq!(
        Sim::new(empty.clone()).dedup(&cat).unwrap_err(),
        banding("MinHash", "MinHash", 0, 2)
    );
    assert_eq!(
        Sim::new(empty).join(&cat).unwrap_err(),
        banding("MinHash", "MinHash", 0, 2)
    );

    let num = numeric(Some((5, 0, f64::NAN)));
    let spec = SimSpec::new(1e9).lsh(SIMHASH);
    let nan = SpecError::NonFinite { item: 5, dim: 0 };
    assert_eq!(Sim::new(spec.clone()).dedup(&num).unwrap_err(), nan);
    // A threshold no finite distance exceeds: before the check, the NaN
    // row's pairs were silently dropped from the join.
    assert_eq!(Sim::new(spec).join(&num).unwrap_err(), nan);

    let inf = numeric(Some((8, 2, f64::INFINITY)));
    let mixed = MixedDataset::new(&cat, &inf);
    assert_eq!(
        Sim::new(SimSpec::new(1.0).lsh(UNION))
            .join(&mixed)
            .unwrap_err(),
        SpecError::NonFinite { item: 8, dim: 2 }
    );
}

#[test]
fn hierarchy_rejects_an_empty_family() {
    let num = numeric(None);
    let run = Clusterer::new(ClusterSpec::new(4).lsh(SIMHASH).seed(3))
        .fit(&num)
        .unwrap();
    let spec = SimSpec::new(0.0).lsh(Lsh::SimHash { bands: 4, rows: 0 });
    assert_eq!(
        Sim::new(spec).hierarchy(&run.model).unwrap_err(),
        banding("SimHash", "SimHash", 4, 0)
    );
}

#[test]
fn shard_worker_rejects_an_empty_simhash_banding() {
    let init = ShardInit {
        k: 2,
        threads: 1,
        gamma: 0.0,
        closures: true,
        categorical: None,
        numeric: Some(NumShardInit {
            dim: 1,
            values: vec![0.0, 1.0],
            bands: 3,
            rows: 0,
            seed: 0,
            mean: vec![0.5],
            band_keys: vec![0; 6],
        }),
    };
    let err = ShardWorker::new(init).err().expect("a typed init error");
    assert!(err.0.contains("banding 3×0"), "{err}");
}
