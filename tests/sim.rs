//! Similarity workloads through the facade: `Sim::dedup` / `Sim::join` must
//! emit **exactly** the brute-force pair set at or under the threshold —
//! precision 1.0 holds by construction (every emitted pair is exact-verified),
//! and recall 1.0 is pinned here with generous banding (`rows = 1`, many
//! bands) on small fixtures — for all three modalities and at every thread
//! count. `Sim::hierarchy` must be byte-deterministic at any thread count and
//! agree with the exhaustive `Lsh::None` search on small `k`.
//!
//! The proptest shim replays fixed deterministic seeds, so a green run here
//! is stable, not a sampling accident.

use lshclust::{
    ClusterSpec, Clusterer, FittedModel, Lsh, MixedDataset, NumericDataset, Sim, SimSpec, SpecError,
};
use lshclust_categorical::Dataset;
use lshclust_datagen::datgen::{generate, DatgenConfig};
use proptest::prelude::*;

/// Small clustered categorical data: 40 rows, 5 planted groups, 8 attrs.
fn categorical_fixture(seed: u64) -> Dataset {
    generate(&DatgenConfig::new(40, 5, 8).seed(seed))
}

/// Numeric blobs keyed off the categorical labels (same shape as the
/// closures suite): rows with the same label land within ~0.2 per axis.
/// Blob centres sit in `[-centre, 100 - centre)` per axis; `centre = 50`
/// spreads their directions over the whole sphere, which is what gives
/// SimHash (an angular hash) something to discriminate on.
fn numeric_blobs(labels: &[u32], dim: usize, centre: f64) -> NumericDataset {
    let data: Vec<f64> = labels
        .iter()
        .enumerate()
        .flat_map(|(i, &l)| {
            (0..dim).map(move |d| {
                let h = lshclust_minhash::hashfn::mix64(u64::from(l) ^ ((d as u64) << 40));
                (h % 100) as f64 - centre + ((i * 13 + d) as f64 * 0.37).sin() * 0.1
            })
        })
        .collect();
    NumericDataset::new(dim, data)
}

/// Generous banding: one row per band means any pair sharing a single
/// minhash collides, so on 8-attribute rows with matching distance ≤ 3 the
/// miss probability is (3/8)^24 — recall 1.0 on these fixtures.
const GENEROUS_MINHASH: Lsh = Lsh::MinHash { bands: 24, rows: 1 };
const GENEROUS_SIMHASH: Lsh = Lsh::SimHash { bands: 16, rows: 1 };
const GENEROUS_UNION: Lsh = Lsh::Union {
    bands: 24,
    rows: 1,
    sim_bands: 16,
    sim_rows: 1,
};

/// Join output must equal the brute-force ground truth (same threshold, cap,
/// and tie-order) and dedup must emit the same pair set in `(a, b)` order.
fn assert_matches_brute_force<D: lshclust::SimInput + ?Sized>(
    spec: SimSpec,
    data: &D,
    label: &str,
) {
    let sim = Sim::new(spec);
    let exact = sim.join_exact(data).expect("exact join");
    let join = sim.join(data).unwrap();
    assert_eq!(join.pairs, exact.pairs, "{label}: join vs brute force");
    assert_eq!(join.matched, exact.matched, "{label}: matched count");
    assert_eq!(join.capped, exact.capped, "{label}: capped flag");
    for p in &join.pairs {
        assert!(p.a < p.b, "{label}: pair ordering");
        assert!(
            p.distance <= sim.spec().threshold,
            "{label}: emitted pair above threshold (precision violated)"
        );
    }

    let dedup = sim.dedup(data).unwrap();
    let mut by_id = exact.pairs.clone();
    by_id.sort_by_key(|x| (x.a, x.b));
    assert_eq!(dedup.pairs, by_id, "{label}: dedup vs brute force");
    // The representative map must be consistent with the pair set: every
    // duplicate points at a smaller id, singletons point at themselves.
    for (i, &rep) in dedup.representative.iter().enumerate() {
        assert!(rep as usize <= i, "{label}: representative above item");
        if rep as usize == i {
            continue;
        }
        assert_eq!(
            dedup.representative[rep as usize], rep,
            "{label}: representative is not a root"
        );
    }
    assert_eq!(
        dedup.n_duplicates,
        dedup
            .representative
            .iter()
            .enumerate()
            .filter(|(i, &r)| r as usize != *i)
            .count(),
        "{label}: duplicate count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Categorical dedup/join equal brute force at every thread count.
    #[test]
    fn categorical_pairs_match_brute_force(seed in 0u64..32) {
        let data = categorical_fixture(seed);
        for threads in [1usize, 2, 4] {
            let spec = SimSpec::new(3.0)
                .lsh(GENEROUS_MINHASH)
                .seed(seed)
                .threads(threads);
            assert_matches_brute_force(spec, &data, &format!("categorical t={threads}"));
        }
    }

    /// Numeric dedup/join equal brute force at every thread count.
    #[test]
    fn numeric_pairs_match_brute_force(seed in 0u64..32) {
        let labels = categorical_fixture(seed).labels().unwrap().to_vec();
        let data = numeric_blobs(&labels, 4, 0.0);
        for threads in [1usize, 2, 4] {
            let spec = SimSpec::new(1.0)
                .lsh(GENEROUS_SIMHASH)
                .seed(seed)
                .threads(threads);
            assert_matches_brute_force(spec, &data, &format!("numeric t={threads}"));
        }
    }

    /// Mixed dedup/join equal brute force at every thread count.
    #[test]
    fn mixed_pairs_match_brute_force(seed in 0u64..32) {
        let cats = categorical_fixture(seed);
        let labels = cats.labels().unwrap().to_vec();
        let nums = numeric_blobs(&labels, 4, 0.0);
        let data = MixedDataset::new(&cats, &nums);
        for threads in [1usize, 2, 4] {
            let spec = SimSpec::new(4.0)
                .lsh(GENEROUS_UNION)
                .seed(seed)
                .threads(threads);
            assert_matches_brute_force(spec, &data, &format!("mixed t={threads}"));
        }
    }
}

/// Reports are byte-identical at any thread count — not merely "the same
/// pairs", the whole report including candidate volume.
#[test]
fn join_reports_are_thread_invariant() {
    let cats = categorical_fixture(17);
    let spec = |threads| {
        SimSpec::new(3.0)
            .lsh(GENEROUS_MINHASH)
            .seed(17)
            .threads(threads)
            .max_pairs(10)
    };
    let base = Sim::new(spec(1)).join(&cats).unwrap();
    for threads in [2usize, 4] {
        let got = Sim::new(spec(threads)).join(&cats).unwrap();
        assert_eq!(got, base, "join t={threads} differs from t=1");
    }
    let base = Sim::new(spec(1)).dedup(&cats).unwrap();
    for threads in [2usize, 4] {
        let got = Sim::new(spec(threads)).dedup(&cats).unwrap();
        assert_eq!(got, base, "dedup t={threads} differs from t=1");
    }
}

/// At production banding (16b2r MinHash, 8b16r SimHash, their union) the
/// buckets must still find at least 95 % of the true pairs on clustered
/// data, while nominating fewer pairs than brute force verifies.
#[test]
fn production_banding_recall_meets_the_floor() {
    const RECALL_FLOOR: f64 = 0.95;
    let n = 1_000;
    let seed = 7;
    let cats = generate(&DatgenConfig::new(n, 20, 16).seed(seed));
    let labels = cats.labels().unwrap().to_vec();
    let nums = numeric_blobs(&labels, 8, 50.0);
    let mixed = MixedDataset::new(&cats, &nums);
    let spec = |lsh: Lsh, threshold: f64| SimSpec::new(threshold).lsh(lsh).seed(seed).threads(2);

    fn check<D: lshclust::SimInput + ?Sized>(spec: SimSpec, data: &D, label: &str) {
        let sim = Sim::new(spec);
        let join = sim.join(data).unwrap();
        let exact = sim.join_exact(data).expect("exact join");
        let all_pairs = join.n_items * (join.n_items - 1) / 2;
        assert!(exact.matched > 0, "{label}: nothing to find");
        let recall = join.matched as f64 / exact.matched as f64;
        assert!(
            recall >= RECALL_FLOOR,
            "{label}: recall {recall:.4} under the floor {RECALL_FLOOR}"
        );
        assert!(
            join.candidate_pairs < all_pairs,
            "{label}: {} candidates, not below the {all_pairs} brute-force pairs",
            join.candidate_pairs
        );
    }

    check(
        spec(Lsh::MinHash { bands: 16, rows: 2 }, 3.0),
        &cats,
        "categorical",
    );
    check(
        spec(Lsh::SimHash { bands: 8, rows: 16 }, 1.0),
        &nums,
        "numeric",
    );
    let union = Lsh::Union {
        bands: 16,
        rows: 2,
        sim_bands: 8,
        sim_rows: 16,
    };
    check(spec(union, 4.0), &mixed, "mixed");
}

/// A NaN or negative threshold can match nothing, so dedup and join reject
/// it as a typed error instead of returning an empty report; 0 (exact
/// duplicates only) stays valid.
#[test]
fn nan_and_negative_thresholds_are_typed_errors() {
    let cats = categorical_fixture(3);
    let labels = cats.labels().unwrap().to_vec();
    let nums = numeric_blobs(&labels, 4, 0.0);
    let mixed = MixedDataset::new(&cats, &nums);

    fn check<D: lshclust::SimInput + ?Sized>(lsh: Lsh, data: &D, label: &str) {
        for bad in [f64::NAN, -1.0] {
            let sim = Sim::new(SimSpec::new(bad).lsh(lsh));
            for err in [sim.dedup(data).unwrap_err(), sim.join(data).unwrap_err()] {
                assert!(
                    matches!(err, SpecError::InvalidThreshold { .. }),
                    "{label} threshold {bad}: {err}"
                );
            }
        }
        let sim = Sim::new(SimSpec::new(0.0).lsh(lsh));
        assert!(sim.dedup(data).is_ok(), "{label}: threshold 0 dedup");
        assert!(sim.join(data).is_ok(), "{label}: threshold 0 join");
    }

    check(GENEROUS_MINHASH, &cats, "categorical");
    check(GENEROUS_SIMHASH, &nums, "numeric");
    check(GENEROUS_UNION, &mixed, "mixed");
}

fn numeric_model(k: usize, seed: u64) -> FittedModel {
    let labels = categorical_fixture(seed).labels().unwrap().to_vec();
    let data = numeric_blobs(&labels, 4, 0.0);
    let spec = ClusterSpec::new(k)
        .lsh(Lsh::SimHash { bands: 8, rows: 2 })
        .seed(seed);
    Clusterer::new(spec).fit(&data).unwrap().model
}

fn categorical_model(k: usize, seed: u64) -> FittedModel {
    let data = categorical_fixture(seed);
    let spec = ClusterSpec::new(k)
        .lsh(Lsh::MinHash { bands: 12, rows: 2 })
        .seed(seed);
    Clusterer::new(spec).fit(&data).unwrap().model
}

/// Hierarchy is byte-deterministic at any thread count, and with generous
/// banding the shortlisted merges equal the exhaustive `Lsh::None` search on
/// small `k` (the shortlist nominates every near pair, so the running
/// minimum is the true minimum at each step).
#[test]
fn hierarchy_is_thread_invariant_and_matches_full_search() {
    let model = numeric_model(6, 23);
    let shortlisted = |threads| {
        SimSpec::new(0.0)
            .lsh(GENEROUS_SIMHASH)
            .seed(23)
            .threads(threads)
    };
    let base = Sim::new(shortlisted(1)).hierarchy(&model).unwrap();
    assert_eq!(base.k, 6);
    assert_eq!(base.merges.len(), 5, "k - 1 merges");
    for (m, merge) in base.merges.iter().enumerate() {
        assert!(merge.a < merge.b, "merge {m}: node order");
        assert!(
            (merge.b as usize) < 6 + m,
            "merge {m}: references a node created later"
        );
        assert!(merge.height >= 0.0, "merge {m}: negative height");
    }
    for threads in [2usize, 4] {
        let got = Sim::new(shortlisted(threads)).hierarchy(&model).unwrap();
        assert_eq!(got, base, "hierarchy t={threads} differs from t=1");
    }
    let full = Sim::new(SimSpec::new(0.0).lsh(Lsh::None).seed(23).threads(2))
        .hierarchy(&model)
        .unwrap();
    assert_eq!(full.fallback_steps, 0, "Lsh::None never counts fallbacks");
    assert_eq!(
        base.merges, full.merges,
        "shortlisted merges diverge from full search"
    );
}

/// Same guarantees for a categorical (k-modes) model under MinHash.
#[test]
fn categorical_hierarchy_matches_full_search() {
    let model = categorical_model(5, 29);
    let base = Sim::new(SimSpec::new(0.0).lsh(GENEROUS_MINHASH).seed(29).threads(1))
        .hierarchy(&model)
        .unwrap();
    let threaded = Sim::new(SimSpec::new(0.0).lsh(GENEROUS_MINHASH).seed(29).threads(4))
        .hierarchy(&model)
        .unwrap();
    assert_eq!(threaded, base, "hierarchy threads changed the dendrogram");
    let full = Sim::new(SimSpec::new(0.0).lsh(Lsh::None).seed(29))
        .hierarchy(&model)
        .unwrap();
    assert_eq!(base.merges, full.merges, "shortlisted vs full search");
    assert_eq!(base.merges.len(), 4);
}

/// The dendrogram survives both serialization paths end to end.
#[test]
fn dendrogram_round_trips_from_a_fitted_model() {
    let model = numeric_model(4, 31);
    let dendro = Sim::new(SimSpec::new(0.0).lsh(Lsh::None))
        .hierarchy(&model)
        .unwrap();
    let back = lshclust::Dendrogram::from_bytes(&dendro.to_bytes()).unwrap();
    assert_eq!(back, dendro, "binary envelope round trip");
    let json = serde_json::to_string(&dendro).unwrap();
    let back: lshclust::Dendrogram = serde_json::from_str(&json).unwrap();
    assert_eq!(back, dendro, "JSON round trip");
}
