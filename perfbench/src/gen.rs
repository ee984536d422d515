//! Input generation. Everything is a pure function of the seed and is
//! written to disk before any timing starts, so the program under test only
//! ever sees the generated files.

use lshclust_categorical::{ClusterId, Dataset, ValueId};
use lshclust_core::framework::CentroidModel;
use lshclust_core::mhkprototypes::KPrototypesModel;
use lshclust_datagen::datgen::{generate, DatgenConfig};
use lshclust_datagen::zipf::Zipf;
use lshclust_kmodes::kmeans::NumericDataset;
use lshclust_kmodes::kprototypes::{suggest_gamma, MixedDataset, Prototypes};
use lshclust_kmodes::modes::Modes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufWriter, Write};
use std::path::Path;

/// The string a generated value id is written as.
pub fn cat_value(id: u32) -> String {
    format!("v{id}")
}

/// The §IV-A generator (`datgen`) at `n` items, `k` rules, `m` attributes
/// and `domain` values per attribute.
pub fn datgen(n: usize, k: usize, m: usize, domain: u32, seed: u64) -> Dataset {
    let mut cfg = DatgenConfig::new(n, k, m).seed(seed);
    cfg.domain_size = domain;
    generate(&cfg)
}

/// The per-cluster numeric blob scheme of the repository's thread-scaling
/// bench: each cluster owns a hashed centre per dimension, and items jitter
/// around it.
pub fn numeric_value(label: u32, item: usize, dim: usize) -> f64 {
    let h = lshclust_minhash::hashfn::mix64(u64::from(label) ^ ((dim as u64) << 40));
    (h % 100) as f64 + ((item * 13 + dim) as f64 * 0.37).sin() * 0.1
}

/// The first `n` items of `data`, labels included.
pub fn head(data: &Dataset, n: usize) -> Dataset {
    let values: Vec<ValueId> = data.rows().take(n).flatten().copied().collect();
    let labels = data.labels().map(|l| l[..n].to_vec());
    Dataset::from_parts(data.schema().clone(), values, labels)
}

/// The numeric columns [`write_csv`] appends, as a dataset.
pub fn numeric_columns(data: &Dataset, dims: usize) -> NumericDataset {
    let labels = data.labels().expect("datgen labels every item");
    let values = (0..data.n_items())
        .flat_map(|i| (0..dims).map(move |d| numeric_value(labels[i], i, d)))
        .collect();
    NumericDataset::new(dims, values)
}

fn planted(data: &Dataset, k: usize) -> (Vec<ClusterId>, Modes) {
    let labels: Vec<ClusterId> = data
        .labels()
        .expect("datgen labels every item")
        .iter()
        .map(|&l| ClusterId(l))
        .collect();
    let mut modes = Modes::from_parts(k, data.n_attrs(), vec![ValueId(0); k * data.n_attrs()]);
    modes.recompute(data, &labels);
    (labels, modes)
}

/// The K-Modes cost of the generator's own partition (every item in its
/// rule's cluster, modes recomputed from the members): the yardstick a
/// fit's cost is reported against, so that the figure does not move with
/// how hard a seed's data happens to be.
pub fn planted_cost(data: &Dataset, k: usize) -> u64 {
    let (labels, modes) = planted(data, k);
    lshclust_kmodes::cost::total_cost(data, &modes, &labels)
}

/// [`planted_cost`] for mixed data, under the γ a default spec resolves to.
pub fn planted_mixed_cost(data: &Dataset, numeric: &NumericDataset, k: usize) -> u64 {
    let (labels, modes) = planted(data, k);
    let mixed = MixedDataset::new(data, numeric);
    let mut prototypes = Prototypes::from_parts(modes, vec![0.0; k * numeric.dim()], numeric.dim());
    prototypes.recompute(&mixed, &labels);
    KPrototypesModel::new(&mixed, prototypes, suggest_gamma(numeric)).total_cost(&labels) as u64
}

/// Writes `rows` of `data` as a CSV of string values (`a0..`), followed by
/// `numeric_dims` numeric columns (`x0..`) from [`numeric_value`].
pub fn write_csv(
    path: &Path,
    data: &Dataset,
    rows: std::ops::Range<usize>,
    numeric_dims: usize,
) -> std::io::Result<()> {
    let mut out = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    let m = data.n_attrs();
    let header: Vec<String> = (0..m)
        .map(|a| format!("a{a}"))
        .chain((0..numeric_dims).map(|d| format!("x{d}")))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    let labels = data.labels().expect("datgen labels every item");
    for i in rows {
        for (a, v) in data.row(i).iter().enumerate() {
            if a > 0 {
                out.write_all(b",")?;
            }
            write!(out, "v{}", v.0)?;
        }
        for d in 0..numeric_dims {
            write!(out, ",{}", numeric_value(labels[i], i, d))?;
        }
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// One pre-rendered NDJSON predict request for row `i` of `data`.
pub fn request_line(data: &Dataset, i: usize) -> Vec<u8> {
    let cells: Vec<String> = data
        .row(i)
        .iter()
        .map(|v| format!("\"{}\"", cat_value(v.0)))
        .collect();
    format!("{{\"predict\":{{\"row\":[{}]}}}}\n", cells.join(",")).into_bytes()
}

/// `len` pool indices drawn Zipf(1.0) over `pool` rows: rank `r` is pool
/// row `r`, so row 0 is the hottest key.
pub fn zipf_keys(pool: usize, len: usize, seed: u64) -> Vec<u32> {
    let zipf = Zipf::new(pool, 1.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a69_7066);
    (0..len).map(|_| zipf.sample(&mut rng) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv_bytes(seed: u64, dims: usize) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-gen-{}-{seed}-{dims}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.csv");
        let data = datgen(300, 7, 12, 50, seed);
        write_csv(&path, &data, 0..300, dims).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    #[test]
    fn same_seed_gives_a_byte_identical_csv() {
        for dims in [0, 3] {
            assert_eq!(csv_bytes(5, dims), csv_bytes(5, dims));
        }
        assert_ne!(csv_bytes(5, 0), csv_bytes(6, 0));
    }

    #[test]
    fn same_seed_gives_an_identical_request_pool() {
        let pool = |seed| {
            let data = datgen(200, 5, 10, 40, seed);
            (0..200).map(|i| request_line(&data, i)).collect::<Vec<_>>()
        };
        assert_eq!(pool(9), pool(9));
        assert_ne!(pool(9), pool(10));
        let line = String::from_utf8(pool(9).remove(0)).unwrap();
        let parsed = serde_json::parse(line.trim()).unwrap();
        let row = parsed.get("predict").and_then(|p| p.get("row")).unwrap();
        assert_eq!(row.as_array().unwrap().len(), 10);
    }

    #[test]
    fn zipf_keys_are_deterministic_and_skewed() {
        let a = zipf_keys(1000, 5000, 3);
        assert_eq!(a, zipf_keys(1000, 5000, 3));
        assert_ne!(a, zipf_keys(1000, 5000, 4));
        assert!(a.iter().all(|&k| k < 1000));
        let hottest = a.iter().filter(|&&k| k == 0).count();
        let cold = a.iter().filter(|&&k| k == 999).count();
        assert!(hottest > 10 * cold.max(1), "{hottest} vs {cold}");
    }
}
