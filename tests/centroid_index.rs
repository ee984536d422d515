//! Pinned outputs of every LSH index built **over centroids**: the serving
//! index of a `FittedModel`, the refreshed index of a shortlisted mini-batch
//! fit, and the per-step index of `Sim::hierarchy`, for each hash family
//! (MinHash over modes, SimHash over means, and their union over
//! prototypes).
//!
//! The expected values are constants recorded from a reference build, not
//! recomputed by the code under test: a v2 envelope digest covers the stored
//! centroid band keys and the SimHash centring mean, the held-out
//! predictions cover the query path, the mini-batch digests cover every
//! shortlist the index returned (through assignments, centroid bits and the
//! per-step candidate counts), and the dendrogram digest covers every
//! per-step candidate set of the hierarchy. Data is generated from integer
//! hashing and basic float arithmetic only, so the inputs are the same on
//! every platform.

use lshclust::{
    ClusterSpec, Clusterer, DatasetBuilder, FittedModel, Lsh, MixedDataset, NumericDataset, Sim,
    SimSpec,
};
use lshclust_categorical::{ClusterId, Dataset};
use lshclust_core::minibatch::{
    minibatch_mh_kmeans, minibatch_mh_kmodes, minibatch_mh_kprototypes, MiniBatchParams,
    MiniBatchProfile, UnionBands,
};
use lshclust_kmodes::init::InitMethod;
use lshclust_kmodes::kmeans::KMeansInit;
use lshclust_kmodes::kprototypes::suggest_gamma;
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::Banding;

// ---------------------------------------------------------------------------
// Deterministic inputs and digests.
// ---------------------------------------------------------------------------

const N_ATTRS: usize = 10;
const DIM: usize = 4;
/// Held-out rows are drawn from item ids far past any training id.
const HELD_OUT: std::ops::Range<u64> = 10_000..10_060;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from 53 hash bits.
fn unit(x: u64) -> f64 {
    (splitmix(x) >> 11) as f64 / (1u64 << 53) as f64
}

fn group_of(item: u64, groups: u64) -> u64 {
    splitmix(item) % groups
}

/// Item `item` of a planted partition: each cell keeps its group's value
/// three times in four, and otherwise takes one of six shared noise values.
/// A group's value is one of five per attribute, so groups overlap by
/// chance and centroids of different groups still collide in some bands.
fn cat_row(item: u64, groups: u64) -> Vec<String> {
    let g = group_of(item, groups);
    (0..N_ATTRS as u64)
        .map(|a| {
            let h = splitmix(item.wrapping_mul(131).wrapping_add(a + 7));
            if !h.is_multiple_of(4) {
                format!("a{a}v{}", splitmix(g * 100 + a) % 5)
            } else {
                format!("n{}", (h >> 8) % 6)
            }
        })
        .collect()
}

/// Item `item` as a point near its group's centre (centres spread over a
/// 20-wide box, jitter of ±1 per coordinate).
fn num_row(item: u64, groups: u64) -> Vec<f64> {
    let g = group_of(item, groups);
    (0..DIM as u64)
        .map(|d| 20.0 * unit(g * 1_000 + d) + 2.0 * unit(item * 97 + d + 1) - 1.0)
        .collect()
}

fn cat_dataset(items: std::ops::Range<u64>, groups: u64) -> Dataset {
    let mut b = DatasetBuilder::anonymous(N_ATTRS);
    for item in items {
        let row = cat_row(item, groups);
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        b.push_str_row(&refs, None).unwrap();
    }
    b.finish()
}

fn num_dataset(items: std::ops::Range<u64>, groups: u64) -> NumericDataset {
    NumericDataset::new(DIM, items.flat_map(|i| num_row(i, groups)).collect())
}

/// FNV-1a 64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    fn clusters(&mut self, clusters: &[ClusterId]) -> &mut Self {
        clusters.iter().for_each(|c| {
            self.word(u64::from(c.0));
        });
        self
    }

    fn floats(&mut self, xs: &[f64]) -> &mut Self {
        xs.iter().for_each(|x| {
            self.word(x.to_bits());
        });
        self
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).0
}

// ---------------------------------------------------------------------------
// Serving index: envelope digest + held-out predictions, per family.
// ---------------------------------------------------------------------------

/// What a fitted model's serving index is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct ModelPin {
    /// FNV-1a of the v2 envelope (spec, centroids, stored band keys and
    /// centring mean).
    envelope: u64,
    /// FNV-1a of the predictions on the held-out rows.
    held_out: u64,
    /// FNV-1a of the batch predictions on the training rows.
    training: u64,
}

/// The envelope must survive both load paths byte for byte, and the
/// reloaded models must answer the held-out rows as the fitted one does.
fn pin_model(model: &FittedModel, held_out: impl Fn(&FittedModel) -> Vec<ClusterId>) -> u64 {
    let bytes = model.to_bytes();
    let from_v2 = FittedModel::from_bytes(&bytes).expect("v2 envelope loads");
    let from_v1 = FittedModel::from_json(&model.to_json()).expect("v1 envelope loads");
    assert_eq!(
        from_v2.to_bytes(),
        bytes,
        "v2 load re-saves different bytes"
    );
    assert_eq!(
        from_v1.to_bytes(),
        bytes,
        "v1 load rebuilds a different index"
    );
    let answers = held_out(model);
    assert_eq!(
        held_out(&from_v2),
        answers,
        "v2-loaded model answers differ"
    );
    assert_eq!(
        held_out(&from_v1),
        answers,
        "v1-loaded model answers differ"
    );
    fnv(&bytes)
}

#[test]
fn minhash_serving_index_is_pinned() {
    let ds = cat_dataset(0..400, 8);
    let spec = ClusterSpec::new(8)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .seed(11);
    let run = Clusterer::new(spec).fit(&ds).unwrap();
    let held_out = |m: &FittedModel| -> Vec<ClusterId> {
        HELD_OUT
            .map(|i| {
                let row = cat_row(i, 8);
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                m.predict_str_row(&refs).unwrap()
            })
            .collect()
    };
    let got = ModelPin {
        envelope: pin_model(&run.model, held_out),
        held_out: Fnv::new().clusters(&held_out(&run.model)).0,
        training: Fnv::new().clusters(&run.model.predict(&ds).unwrap()).0,
    };
    assert_eq!(
        got,
        ModelPin {
            envelope: 13_113_955_985_186_606_257,
            held_out: 3_243_161_894_853_729_059,
            training: 11_767_491_574_034_706_243,
        }
    );
}

#[test]
fn simhash_serving_index_is_pinned() {
    let data = num_dataset(0..400, 8);
    let spec = ClusterSpec::new(8)
        .lsh(Lsh::SimHash { bands: 6, rows: 4 })
        .seed(12);
    let run = Clusterer::new(spec).fit(&data).unwrap();
    let held_out = |m: &FittedModel| -> Vec<ClusterId> {
        HELD_OUT
            .map(|i| m.predict_point(&num_row(i, 8)).unwrap())
            .collect()
    };
    let got = ModelPin {
        envelope: pin_model(&run.model, held_out),
        held_out: Fnv::new().clusters(&held_out(&run.model)).0,
        training: Fnv::new().clusters(&run.model.predict(&data).unwrap()).0,
    };
    assert_eq!(
        got,
        ModelPin {
            envelope: 17_210_567_769_112_771_242,
            held_out: 7_805_903_505_944_146_338,
            training: 16_498_767_971_907_640_231,
        }
    );
}

#[test]
fn union_serving_index_is_pinned() {
    let cat = cat_dataset(0..400, 8);
    let num = num_dataset(0..400, 8);
    let data = MixedDataset::new(&cat, &num);
    let spec = ClusterSpec::new(8)
        .lsh(Lsh::Union {
            bands: 8,
            rows: 2,
            sim_bands: 6,
            sim_rows: 4,
        })
        .seed(13);
    let run = Clusterer::new(spec).fit(&data).unwrap();
    let held_out = |m: &FittedModel| -> Vec<ClusterId> {
        HELD_OUT
            .map(|i| {
                let row = cat_row(i, 8);
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                let encoded = m.encode_row(&refs).unwrap();
                m.predict_mixed_one(&encoded, &num_row(i, 8)).unwrap()
            })
            .collect()
    };
    let got = ModelPin {
        envelope: pin_model(&run.model, held_out),
        held_out: Fnv::new().clusters(&held_out(&run.model)).0,
        training: Fnv::new().clusters(&run.model.predict(&data).unwrap()).0,
    };
    assert_eq!(
        got,
        ModelPin {
            envelope: 3_032_785_819_893_270_742,
            held_out: 6_202_010_964_841_571_202,
            training: 18_269_218_118_668_511_654,
        }
    );
}

// ---------------------------------------------------------------------------
// Mini-batch index: assignments, centroid bits, per-step stats, fallbacks.
// ---------------------------------------------------------------------------

/// What a shortlisted mini-batch fit is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct MiniBatchPin {
    /// FNV-1a of the final assignments.
    assignments: u64,
    /// FNV-1a of the final centroids (mode value ids and/or mean bits).
    centroids: u64,
    /// FNV-1a of every step's `avg_candidates` bits.
    avg_candidates: u64,
    /// FNV-1a of every step's `skipped_items`.
    skipped_items: u64,
    fallbacks: usize,
    fallback_reuses: usize,
}

fn minibatch_pin(
    assignments: &[ClusterId],
    centroids: u64,
    summary: &RunSummary,
    profile: &MiniBatchProfile,
) -> MiniBatchPin {
    let mut candidates = Fnv::new();
    let mut skipped = Fnv::new();
    for step in &summary.iterations {
        candidates.word(step.avg_candidates.to_bits());
        skipped.word(step.skipped_items as u64);
    }
    MiniBatchPin {
        assignments: Fnv::new().clusters(assignments).0,
        centroids,
        avg_candidates: candidates.0,
        skipped_items: skipped.0,
        fallbacks: profile.fallbacks,
        fallback_reuses: profile.fallback_reuses,
    }
}

/// Small batches, frequent refreshes and tight bands, so the pins cover
/// shortlisted decisions, reused decisions and full-search fallbacks.
fn params() -> MiniBatchParams {
    MiniBatchParams {
        batch_size: 48,
        n_steps: 60,
        refresh_every: 6,
        closures: true,
    }
}

fn mode_bits(values: &[lshclust_categorical::ValueId]) -> Fnv {
    let mut h = Fnv::new();
    values.iter().for_each(|v| {
        h.word(u64::from(v.0));
    });
    h
}

#[test]
fn minhash_minibatch_index_is_pinned() {
    let ds = cat_dataset(0..600, 12);
    let result = minibatch_mh_kmodes(
        &ds,
        12,
        InitMethod::RandomItems,
        21,
        Some(Banding::new(6, 3)),
        &params(),
        2,
    );
    let got = minibatch_pin(
        &result.assignments,
        mode_bits(result.modes.values()).0,
        &result.summary,
        &result.profile,
    );
    assert_eq!(
        got,
        MiniBatchPin {
            assignments: 15_591_651_634_596_784_421,
            centroids: 11_820_896_529_207_753_961,
            avg_candidates: 5_365_889_225_056_148_188,
            skipped_items: 1_491_912_978_350_308_746,
            fallbacks: 983,
            fallback_reuses: 73,
        }
    );
}

#[test]
fn simhash_minibatch_index_is_pinned() {
    let data = num_dataset(0..600, 12);
    let result = minibatch_mh_kmeans(
        &data,
        12,
        KMeansInit::PlusPlus,
        22,
        Some((4, 6)),
        &params(),
        2,
    );
    let got = minibatch_pin(
        &result.assignments,
        Fnv::new().floats(&result.centroids).0,
        &result.summary,
        &result.profile,
    );
    assert_eq!(
        got,
        MiniBatchPin {
            assignments: 1_176_665_358_077_470_176,
            centroids: 8_865_716_157_431_556_094,
            avg_candidates: 4_989_595_835_325_387_969,
            skipped_items: 13_373_210_677_973_581_637,
            fallbacks: 8,
            fallback_reuses: 0,
        }
    );
}

#[test]
fn union_minibatch_index_is_pinned() {
    let cat = cat_dataset(0..600, 12);
    let num = num_dataset(0..600, 12);
    let data = MixedDataset::new(&cat, &num);
    let lsh = UnionBands {
        banding: Banding::new(6, 3),
        sim_bands: 4,
        sim_rows: 6,
    };
    let result =
        minibatch_mh_kprototypes(&data, 12, suggest_gamma(&num), 23, Some(lsh), &params(), 2);
    let mut centroids = mode_bits(result.prototypes.modes.values());
    centroids.floats(&result.prototypes.means);
    let got = minibatch_pin(
        &result.assignments,
        centroids.0,
        &result.summary,
        &result.profile,
    );
    assert_eq!(
        got,
        MiniBatchPin {
            assignments: 5_133_593_947_881_216_463,
            centroids: 16_627_659_417_578_829_273,
            avg_candidates: 916_387_827_771_120_166,
            skipped_items: 13_373_210_677_973_581_637,
            fallbacks: 41,
            fallback_reuses: 0,
        }
    );
}

// ---------------------------------------------------------------------------
// Hierarchy index: one LSH dendrogram over 64 centroids, per family.
// ---------------------------------------------------------------------------

const TREE_K: usize = 64;

/// `(FNV-1a of the dendrogram envelope, fallback steps)`; the shortlist must
/// have nominated a pair on most steps for the pin to cover it.
fn pin_dendrogram(model: &FittedModel, lsh: Lsh) -> (u64, usize) {
    let tree = Sim::new(SimSpec::new(0.0).lsh(lsh).seed(31).threads(2))
        .hierarchy(model)
        .unwrap();
    assert_eq!(tree.k, TREE_K);
    assert_eq!(tree.merges.len(), TREE_K - 1);
    assert!(
        tree.fallback_steps < TREE_K - 1,
        "every step fell back to full search"
    );
    (fnv(&tree.to_bytes()), tree.fallback_steps)
}

#[test]
fn minhash_hierarchy_index_is_pinned() {
    let ds = cat_dataset(0..512, 64);
    let spec = ClusterSpec::new(TREE_K)
        .lsh(Lsh::MinHash { bands: 8, rows: 2 })
        .seed(41);
    let model = Clusterer::new(spec).fit(&ds).unwrap().model;
    let got = pin_dendrogram(&model, Lsh::MinHash { bands: 16, rows: 2 });
    assert_eq!(got, (7_345_405_893_001_958_121, 10));
}

#[test]
fn simhash_hierarchy_index_is_pinned() {
    let data = num_dataset(0..512, 64);
    let spec = ClusterSpec::new(TREE_K)
        .lsh(Lsh::SimHash { bands: 6, rows: 4 })
        .seed(42);
    let model = Clusterer::new(spec).fit(&data).unwrap().model;
    let got = pin_dendrogram(&model, Lsh::SimHash { bands: 8, rows: 3 });
    assert_eq!(got, (17_066_044_079_211_295_722, 2));
}

#[test]
fn union_hierarchy_index_is_pinned() {
    let cat = cat_dataset(0..512, 64);
    let num = num_dataset(0..512, 64);
    let data = MixedDataset::new(&cat, &num);
    let spec = ClusterSpec::new(TREE_K)
        .lsh(Lsh::Union {
            bands: 8,
            rows: 2,
            sim_bands: 6,
            sim_rows: 4,
        })
        .seed(43);
    let model = Clusterer::new(spec).fit(&data).unwrap().model;
    let got = pin_dendrogram(
        &model,
        Lsh::Union {
            bands: 16,
            rows: 2,
            sim_bands: 8,
            sim_rows: 3,
        },
    );
    assert_eq!(got, (7_235_061_270_894_338_165, 2));
}
