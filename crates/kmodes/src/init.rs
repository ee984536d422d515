//! Centroid initialisation.
//!
//! The paper randomly selects `k` initial centroids ("we will randomly select
//! the k initial centroids", §IV-A) but notes that "numerous methods exist";
//! we additionally provide Huang's frequency-based method (\[3\] in the paper)
//! and the density method of Cao et al. (\[22\] in the paper) so the
//! initialisation choice can be studied.
//!
//! Crucially, initial modes depend only on `(dataset, method, seed)` — both
//! the baseline and the accelerated algorithm call [`initial_modes`] with the
//! same arguments, fulfilling the paper's controlled-comparison requirement
//! that "the same initial centroid points were selected".

use crate::modes::Modes;
use lshclust_categorical::dissimilarity::matching;
use lshclust_categorical::{AttrId, Dataset, ValueId, NOT_PRESENT};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Initialisation strategy for the `k` starting modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitMethod {
    /// `k` distinct items chosen uniformly at random (the paper's choice).
    #[default]
    RandomItems,
    /// Huang (1998): synthesise modes from frequent attribute values, then
    /// snap each to its nearest item to guarantee realisable centroids.
    Huang,
    /// Cao, Liang & Bai (2009): density-weighted farthest-first traversal.
    /// Deterministic given the dataset; `O(n·k·m)`, intended for modest `n`.
    Cao,
}

/// Computes the `k` initial modes for `dataset`.
///
/// Panics if `k` is zero or exceeds the number of items.
pub fn initial_modes(dataset: &Dataset, k: usize, method: InitMethod, seed: u64) -> Modes {
    assert!(k > 0, "k must be positive");
    assert!(
        k <= dataset.n_items(),
        "k={k} exceeds number of items {}",
        dataset.n_items()
    );
    match method {
        InitMethod::RandomItems => random_items(dataset, k, seed),
        InitMethod::Huang => huang(dataset, k, seed),
        InitMethod::Cao => cao(dataset, k),
    }
}

/// Selects `k` distinct item indices uniformly (partial Fisher–Yates).
pub fn sample_distinct_items(n_items: usize, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x696e_6974);
    let mut pool: Vec<u32> = (0..n_items as u32).collect();
    for i in 0..k {
        let j = rng.random_range(i..n_items);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

fn random_items(dataset: &Dataset, k: usize, seed: u64) -> Modes {
    let picks = sample_distinct_items(dataset.n_items(), k, seed);
    Modes::from_items(dataset, &picks)
}

fn huang(dataset: &Dataset, k: usize, seed: u64) -> Modes {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0068_7561_6e67);
    let freqs = Frequencies::per_attribute(dataset);
    // Draw k synthetic modes: each attribute sampled proportionally to its
    // value frequency, then snap to the nearest actual item (distinct items
    // preferred) so every initial mode is realisable.
    let n = dataset.n_items();
    let mut used = vec![false; n];
    let mut picks = Vec::with_capacity(k);
    let mut synthetic = vec![ValueId(0); dataset.n_attrs()];
    for _ in 0..k {
        for (slot, f) in synthetic.iter_mut().zip(&freqs) {
            *slot = f.draw(rng.random_range(0..f.total()));
        }
        let mut best = usize::MAX;
        let mut best_d = u32::MAX;
        for (i, &is_used) in used.iter().enumerate() {
            let d = matching(&synthetic, dataset.row(i));
            let penalty = u32::from(is_used); // prefer unused items on ties
            if d + penalty < best_d {
                best_d = d + penalty;
                best = i;
            }
        }
        used[best] = true;
        picks.push(best as u32);
    }
    Modes::from_items(dataset, &picks)
}

/// One attribute's empirical value frequencies, values in first-seen row
/// order, kept as running totals so a draw is a binary search.
struct Frequencies {
    values: Vec<ValueId>,
    /// `cumulative[j]` sums the counts of `values[..=j]`.
    cumulative: Vec<u32>,
}

impl Frequencies {
    /// Every attribute's frequencies in one pass over the rows, counted in
    /// a table indexed by [`ValueId`]: sized from the attribute's
    /// dictionary and grown for ids past it (a dataset assembled from raw
    /// ids may carry an empty schema); `NOT_PRESENT` cells have a slot of
    /// their own.
    fn per_attribute(dataset: &Dataset) -> Vec<Self> {
        let n_attrs = dataset.n_attrs();
        let mut counts: Vec<Vec<u32>> = (0..n_attrs)
            .map(|a| vec![0; dataset.schema().dictionary(AttrId(a as u32)).len()])
            .collect();
        let mut absent = vec![0u32; n_attrs];
        let mut order: Vec<Vec<ValueId>> = vec![Vec::new(); n_attrs];
        for row in dataset.rows() {
            for (a, &v) in row.iter().enumerate() {
                let slot = if v == NOT_PRESENT {
                    &mut absent[a]
                } else {
                    let table = &mut counts[a];
                    if v.idx() >= table.len() {
                        table.resize(v.idx() + 1, 0);
                    }
                    &mut table[v.idx()]
                };
                if *slot == 0 {
                    order[a].push(v);
                }
                *slot += 1;
            }
        }
        order
            .into_iter()
            .enumerate()
            .map(|(a, values)| {
                let mut total = 0u32;
                let cumulative = values
                    .iter()
                    .map(|&v| {
                        total += if v == NOT_PRESENT {
                            absent[a]
                        } else {
                            counts[a][v.idx()]
                        };
                        total
                    })
                    .collect();
                Self { values, cumulative }
            })
            .collect()
    }

    /// Items counted.
    fn total(&self) -> u32 {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// The value a draw `t` in `0..total` lands on: the first whose running
    /// total exceeds `t`, which is where walking the list and subtracting
    /// each count from `t` stops.
    fn draw(&self, t: u32) -> ValueId {
        self.values[self.cumulative.partition_point(|&c| c <= t)]
    }
}

fn cao(dataset: &Dataset, k: usize) -> Modes {
    let n = dataset.n_items();
    let n_attrs = dataset.n_attrs();
    // Density of an item = average relative frequency of its attribute values.
    let mut freqs: Vec<std::collections::HashMap<u32, u32>> = vec![Default::default(); n_attrs];
    for row in dataset.rows() {
        for (a, &v) in row.iter().enumerate() {
            *freqs[a].entry(v.0).or_insert(0) += 1;
        }
    }
    let density: Vec<f64> = (0..n)
        .map(|i| {
            dataset
                .row(i)
                .iter()
                .enumerate()
                .map(|(a, &v)| f64::from(freqs[a][&v.0]) / n as f64)
                .sum::<f64>()
                / n_attrs as f64
        })
        .collect();

    let mut picks: Vec<u32> = Vec::with_capacity(k);
    // First centre: maximum density (ties to lowest index).
    let first = density
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))
        .map(|(i, _)| i as u32)
        .expect("non-empty dataset");
    picks.push(first);
    // min distance to any chosen centre, refreshed incrementally.
    let mut min_dist: Vec<u32> = (0..n)
        .map(|i| matching(dataset.row(i), dataset.row(first as usize)))
        .collect();
    while picks.len() < k {
        let next = (0..n)
            .filter(|&i| !picks.contains(&(i as u32)))
            .max_by(|&a, &b| {
                let sa = density[a] * f64::from(min_dist[a]);
                let sb = density[b] * f64::from(min_dist[b]);
                sa.total_cmp(&sb).then(b.cmp(&a))
            })
            .expect("k <= n leaves a candidate");
        picks.push(next as u32);
        for (i, slot) in min_dist.iter_mut().enumerate() {
            *slot = (*slot).min(matching(dataset.row(i), dataset.row(next)));
        }
    }
    Modes::from_items(dataset, &picks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;
    use proptest::prelude::*;

    fn dataset(n: usize) -> Dataset {
        let mut b = DatasetBuilder::anonymous(3);
        for i in 0..n {
            let v0 = format!("v{}", i % 4);
            let v1 = format!("w{}", i % 3);
            let v2 = format!("u{}", i % 2);
            b.push_str_row(&[&v0, &v1, &v2], None).unwrap();
        }
        b.finish()
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let picks = sample_distinct_items(100, 20, 7);
        assert_eq!(picks.len(), 20);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 20);
        assert!(picks.iter().all(|&p| p < 100));
    }

    #[test]
    fn sample_all_items() {
        let mut picks = sample_distinct_items(5, 5, 3);
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_init_is_seed_deterministic() {
        let ds = dataset(50);
        let a = initial_modes(&ds, 5, InitMethod::RandomItems, 11);
        let b = initial_modes(&ds, 5, InitMethod::RandomItems, 11);
        let c = initial_modes(&ds, 5, InitMethod::RandomItems, 12);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn all_methods_produce_k_modes_over_dataset_rows() {
        let ds = dataset(30);
        for method in [InitMethod::RandomItems, InitMethod::Huang, InitMethod::Cao] {
            let modes = initial_modes(&ds, 4, method, 5);
            assert_eq!(modes.k(), 4, "{method:?}");
            assert_eq!(modes.n_attrs(), 3);
            for c in 0..4 {
                assert!(
                    (0..ds.n_items()).any(|i| ds.row(i) == modes.mode(c)),
                    "{method:?} produced a mode that is not a dataset item"
                );
            }
        }
    }

    #[test]
    fn cao_is_deterministic_without_seed() {
        let ds = dataset(25);
        let a = initial_modes(&ds, 3, InitMethod::Cao, 0);
        let b = initial_modes(&ds, 3, InitMethod::Cao, 999);
        assert_eq!(a, b, "Cao init must ignore the seed");
    }

    #[test]
    fn cao_first_centre_has_max_density() {
        // A dataset where one row repeats: that row's values dominate the
        // frequency tables, so a copy of it must be the first centre.
        let mut b = DatasetBuilder::anonymous(2);
        for _ in 0..5 {
            b.push_str_row(&["common", "common"], None).unwrap();
        }
        b.push_str_row(&["rare", "rare"], None).unwrap();
        let ds = b.finish();
        let modes = initial_modes(&ds, 1, InitMethod::Cao, 0);
        assert_eq!(modes.mode(0), ds.row(0));
    }

    #[test]
    fn cao_spreads_centres() {
        // Two tight groups: the second centre should come from the other group.
        let mut b = DatasetBuilder::anonymous(2);
        for _ in 0..4 {
            b.push_str_row(&["g1", "g1"], None).unwrap();
        }
        for _ in 0..4 {
            b.push_str_row(&["g2", "g2"], None).unwrap();
        }
        let ds = b.finish();
        let modes = initial_modes(&ds, 2, InitMethod::Cao, 0);
        assert_ne!(modes.mode(0), modes.mode(1));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let ds = dataset(3);
        let _ = initial_modes(&ds, 0, InitMethod::RandomItems, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds number of items")]
    fn oversized_k_rejected() {
        let ds = dataset(3);
        let _ = initial_modes(&ds, 4, InitMethod::RandomItems, 0);
    }

    #[test]
    fn huang_is_seed_deterministic() {
        let ds = dataset(40);
        let a = initial_modes(&ds, 6, InitMethod::Huang, 21);
        let b = initial_modes(&ds, 6, InitMethod::Huang, 21);
        assert_eq!(a, b);
    }

    /// Huang's initialisation as first written: linear-search counting in
    /// first-seen order, and a walk of each frequency list per draw.
    fn huang_reference(dataset: &Dataset, k: usize, seed: u64) -> Modes {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0068_7561_6e67);
        let n_attrs = dataset.n_attrs();
        let mut freqs: Vec<Vec<(ValueId, u32)>> = vec![Vec::new(); n_attrs];
        for row in dataset.rows() {
            for (a, &v) in row.iter().enumerate() {
                match freqs[a].iter().position(|&(val, _)| val == v) {
                    Some(j) => freqs[a][j].1 += 1,
                    None => freqs[a].push((v, 1)),
                }
            }
        }
        let n = dataset.n_items();
        let mut used = vec![false; n];
        let mut picks = Vec::with_capacity(k);
        let mut synthetic = vec![ValueId(0); n_attrs];
        for _ in 0..k {
            for (a, f) in freqs.iter().enumerate() {
                let total: u32 = f.iter().map(|&(_, c)| c).sum();
                let mut t = rng.random_range(0..total);
                synthetic[a] = f
                    .iter()
                    .find(|&&(_, c)| {
                        if t < c {
                            true
                        } else {
                            t -= c;
                            false
                        }
                    })
                    .expect("frequency total covers draw")
                    .0;
            }
            let mut best = usize::MAX;
            let mut best_d = u32::MAX;
            for (i, &is_used) in used.iter().enumerate() {
                let d = matching(&synthetic, dataset.row(i));
                let penalty = u32::from(is_used);
                if d + penalty < best_d {
                    best_d = d + penalty;
                    best = i;
                }
            }
            used[best] = true;
            picks.push(best as u32);
        }
        Modes::from_items(dataset, &picks)
    }

    #[test]
    fn huang_matches_reference_over_a_shared_schema_out_of_id_order() {
        // Intern a..e in order, then lay the rows out so that the
        // first-seen order (e, c, a, …) is not the id order.
        let mut b = DatasetBuilder::anonymous(2);
        for v in ["a", "b", "c", "d", "e"] {
            b.push_str_row(&[v, v], None).unwrap();
        }
        let interned = b.finish();
        let order = [4, 2, 0, 4, 1, 2, 4, 3, 2, 4, 0, 4];
        let values: Vec<ValueId> = order
            .iter()
            .flat_map(|&i| interned.row(i).iter().copied())
            .collect();
        let ds = Dataset::from_parts(interned.shared_schema().clone(), values, None);
        for seed in 0..20 {
            for k in 1..=ds.n_items() {
                assert_eq!(
                    huang(&ds, k, seed),
                    huang_reference(&ds, k, seed),
                    "k={k} seed={seed}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn huang_matches_reference(
            n in 1usize..40,
            n_attrs in 1usize..5,
            domain in 1u32..12,
            cells in prop::collection::vec(0u32..1_000, 160),
            k_pick in 0usize..1_000,
            seed in 0u64..1_000,
        ) {
            // Raw ids over an empty schema (as generated datasets are), with
            // one extra draw per domain standing in for a missing value.
            let values: Vec<ValueId> = cells[..n * n_attrs]
                .iter()
                .map(|&x| match x % (domain + 1) {
                    x if x == domain => NOT_PRESENT,
                    x => ValueId(x),
                })
                .collect();
            let ds = Dataset::from_parts(
                lshclust_categorical::Schema::anonymous(n_attrs),
                values,
                None,
            );
            let k = 1 + k_pick % n;
            prop_assert_eq!(huang(&ds, k, seed), huang_reference(&ds, k, seed));
        }
    }
}
