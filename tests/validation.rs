//! One validated input boundary: every fit (each modality, each discipline,
//! sharded or not) and every similarity run rejects an LSH scheme with an
//! empty hash family, and a numeric input holding NaN or ±∞, with a typed
//! [`SpecError`] before any work starts — instead of a panic inside the
//! banding, or an `Ok` run over non-finite centroids. Both model envelopes
//! reject a stored non-finite mean or γ with a typed [`ModelError`].

use lshclust::{
    ClusterSpec, Clusterer, Dataset, DatasetBuilder, Fit, FittedModel, Lsh, MixedDataset,
    ModelError, NumericDataset, Sim, SimSpec, SpecError,
};
use lshclust_categorical::ValueId;
use lshclust_core::shard::{CatShardInit, NumShardInit, ShardInit, ShardWorker};

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
fn shard_worker_rejects_rows_of_the_wrong_shape() {
    // A worker receives rows only: the banding is checked before any worker
    // spawns (see `empty_simhash_bandings_are_typed_errors_on_numeric_data`).
    let init = |categorical: Option<CatShardInit>, numeric: Option<NumShardInit>| ShardInit {
        k: 2,
        threads: 1,
        gamma: 0.0,
        categorical,
        numeric,
    };
    let numeric = |dim: usize, values: Vec<f64>| Some(NumShardInit { dim, values });
    let two_rows = Some(CatShardInit {
        n_attrs: 1,
        values: vec![ValueId(0), ValueId(1)],
    });
    for (init, want) in [
        (init(None, numeric(0, vec![])), "numeric init with zero dim"),
        (
            init(None, numeric(2, vec![0.0, 1.0, 2.0])),
            "numeric values (3) are not a multiple of dim (2)",
        ),
        (
            init(two_rows, numeric(1, vec![0.0, 1.0, 2.0])),
            "categorical items (2) disagree with numeric items (3)",
        ),
    ] {
        let err = ShardWorker::new(init).err().expect("a typed init error");
        assert_eq!(err.0, want);
    }
}

#[test]
fn exact_join_rejects_non_finite_cells() {
    let num = numeric(Some((5, 0, f64::NAN)));
    let sim = Sim::new(SimSpec::new(1e9).lsh(SIMHASH));
    // Before the check, the NaN row's 39 pairs were silently dropped: the
    // exact join returned 741 of the 780.
    assert_eq!(
        sim.join_exact(&num).unwrap_err(),
        SpecError::NonFinite { item: 5, dim: 0 }
    );
    assert_eq!(
        sim.join_exact(&numeric(None)).unwrap().matched,
        N * (N - 1) / 2
    );
}

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/../../tests/fixtures/model-{name}.v1.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(path).unwrap()
}

/// `text` with its one occurrence of `from` replaced by `to`.
fn replace_once(text: &str, from: &str, to: &str) -> String {
    assert_eq!(text.matches(from).count(), 1, "`{from}`");
    text.replacen(from, to, 1)
}

/// A v2 envelope of the v1 `text` with the one stored copy of `value`
/// overwritten by `to`.
fn v2_with(text: &str, value: f64, to: f64) -> Vec<u8> {
    let mut bytes = FittedModel::from_json(text).unwrap().to_bytes();
    let needle = value.to_le_bytes();
    let hits: Vec<usize> = (0..bytes.len() - 7)
        .filter(|&i| bytes[i..i + 8] == needle)
        .collect();
    assert_eq!(hits.len(), 1, "{value} is stored once");
    bytes[hits[0]..hits[0] + 8].copy_from_slice(&to.to_le_bytes());
    bytes
}

#[test]
fn both_envelopes_reject_non_finite_means() {
    let text = fixture("numeric");
    // Before the check, this model loaded and predicted cluster 3 for the
    // origin.
    let first = replace_once(&text, "0.1302341972677346", "1e999");
    let want = ModelError::NonFiniteCentroid {
        cluster: 0,
        dimension: 0,
    };
    assert_eq!(FittedModel::from_json(&first).unwrap_err(), want);
    let bytes = v2_with(&text, 0.1302341972677346, f64::NAN);
    assert_eq!(FittedModel::from_bytes(&bytes).unwrap_err(), want);

    let inner = replace_once(&text, "9.983077814460113", "-1e999");
    let want = ModelError::NonFiniteCentroid {
        cluster: 2,
        dimension: 1,
    };
    assert_eq!(FittedModel::from_json(&inner).unwrap_err(), want);
    let bytes = v2_with(&text, 9.983077814460113, f64::INFINITY);
    assert_eq!(FittedModel::from_bytes(&bytes).unwrap_err(), want);
    assert!(want.to_string().contains("centroid 2"), "{want}");
}

#[test]
fn both_envelopes_reject_a_non_finite_gamma() {
    let text = fixture("mixed");
    let gamma = replace_once(&text, "0.019995348728813585", "1e999");
    assert_eq!(
        FittedModel::from_json(&gamma).unwrap_err(),
        ModelError::NonFiniteGamma
    );
    let bytes = v2_with(&text, 0.019995348728813585, f64::NAN);
    assert_eq!(
        FittedModel::from_bytes(&bytes).unwrap_err(),
        ModelError::NonFiniteGamma
    );
    let mean = replace_once(&text, "-9.869765802732264", "1e999");
    assert!(matches!(
        FittedModel::from_json(&mean).unwrap_err(),
        ModelError::NonFiniteCentroid { dimension: 0, .. }
    ));
}
