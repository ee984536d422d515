//! Integration tests for the further-work extensions: streaming clustering,
//! mixed-data MH-K-Prototypes, numeric MH-K-Means, canopy shortlists, and
//! mini-batch K-Modes — all exercised across crate boundaries on generated
//! data.

use lshclust_categorical::ClusterId;
use lshclust_core::canopy::{Canopies, CanopyConfig, CanopyProvider};
use lshclust_core::framework::{fit, CentroidModel, StopPolicy};
use lshclust_core::mhkmeans::{mh_kmeans, MhKMeansConfig};
use lshclust_core::mhkmodes::KModesModel;
use lshclust_core::mhkprototypes::{mh_kprototypes, MhKPrototypesConfig};
use lshclust_core::minibatch::{minibatch_mh_kmodes, MiniBatchParams};
use lshclust_core::streaming::{StreamingConfig, StreamingMhKModes};
use lshclust_datagen::datgen::{generate, DatgenConfig};
use lshclust_kmodes::assign::assign_all_full;
use lshclust_kmodes::init::{initial_modes, InitMethod};
use lshclust_kmodes::kmeans::{kmeans, KMeansConfig, NumericDataset};
use lshclust_kmodes::kprototypes::{suggest_gamma, MixedDataset};
use lshclust_metrics::{normalized_mutual_information, purity};
use lshclust_minhash::Banding;

fn predictions(assignments: &[ClusterId]) -> Vec<u32> {
    assignments.iter().map(|c| c.0).collect()
}

/// Numeric columns that agree with the categorical labels.
fn aligned_numeric(labels: &[u32], dim: usize) -> NumericDataset {
    let data: Vec<f64> = labels
        .iter()
        .enumerate()
        .flat_map(|(i, &l)| {
            (0..dim).map(move |d| {
                let h = lshclust_minhash::hashfn::mix64(u64::from(l) ^ ((d as u64) << 40));
                (h % 100) as f64 + ((i * 13 + d) as f64 * 0.37).sin() * 0.1
            })
        })
        .collect();
    NumericDataset::new(dim, data)
}

#[test]
fn streaming_matches_batch_quality_on_rule_data() {
    let dataset = generate(&DatgenConfig::new(800, 80, 40).seed(41));
    let labels = dataset.labels().unwrap().to_vec();
    let mut config = StreamingConfig::new(Banding::new(16, 2), dataset.n_attrs());
    config.distance_threshold = (dataset.n_attrs() as u32) * 7 / 10;
    let mut clusterer = StreamingMhKModes::new(config, dataset.schema().clone());
    for i in 0..dataset.n_items() {
        clusterer.insert(dataset.row(i));
    }
    while clusterer.refine_pass() > 0 {}
    let pred = predictions(clusterer.assignments());
    let nmi = normalized_mutual_information(&pred, &labels);
    assert!(nmi > 0.9, "streaming nmi {nmi}");
    // Cluster count in the right order of magnitude (not n, not 1).
    assert!(clusterer.n_clusters() >= 80);
    assert!(
        clusterer.n_clusters() <= 3 * 80,
        "{} clusters",
        clusterer.n_clusters()
    );
}

#[test]
fn streaming_insert_is_index_consistent() {
    // Every insert's reported cluster must match the stored assignment, and
    // cluster sizes must always sum to the number of inserted items.
    let dataset = generate(&DatgenConfig::new(200, 20, 20).seed(43));
    let mut clusterer = StreamingMhKModes::new(
        StreamingConfig::new(Banding::new(8, 2), dataset.n_attrs()),
        dataset.schema().clone(),
    );
    for i in 0..dataset.n_items() {
        let out = clusterer.insert(dataset.row(i));
        assert_eq!(clusterer.assignments()[out.item as usize], out.cluster);
        let total: u32 = (0..clusterer.n_clusters())
            .map(|c| clusterer.cluster_size(ClusterId(c as u32)))
            .sum();
        assert_eq!(total as usize, i + 1);
    }
}

#[test]
fn mh_kprototypes_uses_both_modalities() {
    let categorical = generate(&DatgenConfig::new(600, 60, 20).seed(47));
    let labels = categorical.labels().unwrap().to_vec();
    let numeric = aligned_numeric(&labels, 8);
    let data = MixedDataset::new(&categorical, &numeric);
    let gamma = suggest_gamma(&numeric);
    let result = mh_kprototypes(&data, &MhKPrototypesConfig::new(60, gamma));
    let p = purity(&predictions(&result.assignments), &labels);
    assert!(p > 0.7, "mixed purity {p}");
    assert!(result.summary.converged);
    // Union shortlist stays below k.
    let last = result.summary.iterations.last().unwrap();
    assert!(last.avg_candidates < 60.0);
}

#[test]
fn mh_kmeans_matches_exact_kmeans_quality() {
    // Numeric-only: compare inertia of accelerated vs exact K-Means on
    // blobs derived from labels.
    let labels: Vec<u32> = (0..600).map(|i| (i % 40) as u32).collect();
    let data = aligned_numeric(&labels, 8);
    let exact = kmeans(&data, &KMeansConfig::new(40));
    let accel = mh_kmeans(&data, &MhKMeansConfig::new(40, 8, 16));
    let accel_pred = predictions(&accel.assignments);
    let exact_nmi = normalized_mutual_information(&exact.assignments, &labels);
    let accel_nmi = normalized_mutual_information(&accel_pred, &labels);
    assert!(
        accel_nmi >= exact_nmi - 0.1,
        "accelerated nmi {accel_nmi} vs exact {exact_nmi}"
    );
}

#[test]
fn canopy_provider_clusters_comparable_to_lsh_provider() {
    let dataset = generate(&DatgenConfig::new(500, 50, 30).seed(53));
    let labels = dataset.labels().unwrap().to_vec();
    let k = 50;

    // Shared setup: same init, same initial assignment.
    let modes = initial_modes(&dataset, k, InitMethod::RandomItems, 53);
    let mut assignments = vec![ClusterId(0); dataset.n_items()];
    let mut model = KModesModel::new(&dataset, modes);
    assign_all_full(&dataset, model.modes(), &mut assignments);
    model.update_centroids(&assignments);

    let canopies = Canopies::build(&dataset, &CanopyConfig::new());
    let mut provider = CanopyProvider::new(canopies, &assignments);
    let run = fit(
        &mut model,
        &mut provider,
        assignments,
        std::time::Duration::ZERO,
        &StopPolicy {
            max_iterations: 30,
            ..StopPolicy::default()
        },
        true,
    );
    let canopy_purity = purity(&predictions(&run.assignments), &labels);

    let (_, mh) = lshclust_core::mhkmodes::paired_run(&dataset, k, Banding::new(20, 5), 53, 30);
    let mh_purity = purity(&predictions(&mh.assignments), &labels);
    assert!(
        (canopy_purity - mh_purity).abs() < 0.15,
        "canopy {canopy_purity} vs MH {mh_purity}"
    );
}

#[test]
fn minibatch_quality_close_to_full_batch() {
    let dataset = generate(&DatgenConfig::new(600, 60, 30).seed(59));
    let labels = dataset.labels().unwrap().to_vec();
    let full = lshclust_kmodes::KModes::new(
        lshclust_kmodes::KModesConfig::new(60)
            .seed(59)
            .max_iterations(30),
    )
    .fit(&dataset);
    let mini = minibatch_mh_kmodes(
        &dataset,
        60,
        InitMethod::RandomItems,
        59,
        None,
        &MiniBatchParams::new(128, 40),
        1,
    );
    let fp = purity(&predictions(&full.assignments), &labels);
    let mp = purity(&predictions(&mini.assignments), &labels);
    assert!(mp > fp - 0.15, "mini-batch purity {mp} vs full {fp}");
}

#[test]
fn union_of_providers_never_shrinks_the_shortlist() {
    use lshclust_core::framework::ShortlistProvider;
    use lshclust_core::mhkprototypes::UnionProvider;

    struct Fixed(Vec<ClusterId>);
    impl ShortlistProvider for Fixed {
        fn shortlist(&mut self, _item: u32, out: &mut Vec<ClusterId>) {
            out.clear();
            out.extend_from_slice(&self.0);
        }
        fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {}
    }

    let a = vec![ClusterId(1), ClusterId(4)];
    let b = vec![ClusterId(4), ClusterId(9), ClusterId(2)];
    let mut union = UnionProvider::new(Fixed(a.clone()), Fixed(b.clone()));
    let mut out = Vec::new();
    union.shortlist(0, &mut out);
    for c in a.iter().chain(&b) {
        assert!(out.contains(c), "union lost {c:?}");
    }
    // Dedup: |union| = 4.
    assert_eq!(out.len(), 4);
}
