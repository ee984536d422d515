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
use lshclust_categorical::{Dataset, ValueId};
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
    let n_attrs = dataset.n_attrs();
    // Per attribute: empirical frequency of each value.
    let mut freqs: Vec<Vec<(ValueId, u32)>> = vec![Vec::new(); n_attrs];
    for row in dataset.rows() {
        for (a, &v) in row.iter().enumerate() {
            match freqs[a].iter_mut().find(|(val, _)| *val == v) {
                Some((_, c)) => *c += 1,
                None => freqs[a].push((v, 1)),
            }
        }
    }
    // Draw k synthetic modes: each attribute sampled proportionally to its
    // value frequency, then snap to the nearest actual item (distinct items
    // preferred) so every initial mode is realisable.
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
}
