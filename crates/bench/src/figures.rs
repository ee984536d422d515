//! One function per paper artefact (Tables I–II, Figs. 2–10, the §III-C
//! bound), each returning a [`Report`] of text tables that mirror the rows /
//! series the paper plots.
//!
//! Synthetic [`RunSet`]s are cached in a [`Suite`] so composite figures
//! (6, 7, 8) reuse the runs of Figs. 2–5 instead of re-clustering.

use crate::scale::{
    Settings, SHAPE_250K_40K, SHAPE_400ATTR, SHAPE_FIG2, SHAPE_FIG3, SHAPE_FIG4, SHAPE_FIG5,
};
use crate::synthetic::{run_bound_audit, run_experiment, speedup, RunSet};
use crate::table::{f3, secs, TextTable};
use crate::textexp::{run_text_experiment, TextExperiment, TextRunSet};
use lshclust_minhash::probability::{candidate_probability, cluster_hit_probability};
use lshclust_minhash::signature::SignatureGenerator;
use lshclust_minhash::{Banding, MixHashFamily};
use std::collections::HashMap;
use std::rc::Rc;

/// Iteration cap used for the synthetic experiments (the paper's baseline
/// converged within 12 iterations on every synthetic dataset).
pub const SYNTHETIC_MAX_ITER: usize = 30;

/// A rendered experiment report: named tables plus free-form notes.
pub struct Report {
    /// Human-readable title.
    pub title: String,
    /// `(section name, table)` pairs.
    pub sections: Vec<(String, TextTable)>,
    /// Free-form notes appended after the tables.
    pub notes: Vec<String>,
}

impl Report {
    /// Starts an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            sections: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a named table.
    pub fn section(&mut self, name: impl Into<String>, table: TextTable) {
        self.sections.push((name.into(), table));
    }

    /// Appends a free-form note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the full report as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n\n", self.title);
        for (name, table) in &self.sections {
            out.push_str(&format!("-- {name} --\n"));
            out.push_str(&table.render());
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Writes each section as `<prefix>_<section>.csv` under `dir`.
    pub fn write_csvs(&self, dir: &std::path::Path, prefix: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, table) in &self.sections {
            let slug: String = name
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            std::fs::write(dir.join(format!("{prefix}_{slug}.csv")), table.to_csv())?;
        }
        Ok(())
    }
}

/// Caches synthetic run sets so composite figures reuse them.
pub struct Suite {
    /// Global settings (scale, seed, output directory).
    pub settings: Settings,
    cache: HashMap<&'static str, Rc<RunSet>>,
}

impl Suite {
    /// Creates an empty suite.
    pub fn new(settings: Settings) -> Self {
        Self {
            settings,
            cache: HashMap::new(),
        }
    }

    /// Returns (running on first use) the named run set.
    pub fn runset(&mut self, key: &'static str) -> Rc<RunSet> {
        if let Some(r) = self.cache.get(key) {
            return Rc::clone(r);
        }
        let (shape, bandings): (_, Vec<Banding>) = match key {
            "fig2" => (SHAPE_FIG2, paper_bandings(&["20b2r", "20b5r", "50b5r"])),
            "fig3" => (SHAPE_FIG3, paper_bandings(&["20b2r", "20b5r", "50b5r"])),
            "fig4" => (SHAPE_FIG4, paper_bandings(&["1b1r", "20b5r"])),
            "fig5" => (SHAPE_FIG5, paper_bandings(&["20b5r", "50b5r"])),
            "attr400" => (SHAPE_400ATTR, paper_bandings(&["20b5r", "50b5r"])),
            "fig6b_40k" => (SHAPE_250K_40K, paper_bandings(&["20b5r"])),
            other => panic!("unknown run set {other}"),
        };
        let set = Rc::new(run_experiment(
            shape,
            &bandings,
            &self.settings,
            SYNTHETIC_MAX_ITER,
        ));
        self.cache.insert(key, Rc::clone(&set));
        set
    }
}

fn paper_bandings(labels: &[&str]) -> Vec<Banding> {
    labels
        .iter()
        .map(|l| crate::scale::banding_by_label(l).expect("known banding label"))
        .collect()
}

// ---------------------------------------------------------------- Tables I/II

/// Empirically measures the candidate probability with real MinHash on real
/// sets. Returns `None` when the similarity is too small to represent with a
/// tractable universe.
fn empirical_candidate_probability(
    s: f64,
    banding: Banding,
    seed: u64,
    trials: usize,
) -> Option<f64> {
    // Two sets with |A| = |B| and overlap chosen so Jaccard = s:
    // shared = s/(1+s) * union ... use union U and shared = round(s*U).
    let union = if s >= 0.01 { 400 } else { return None };
    let shared = ((s * union as f64).round() as usize).max(1);
    let distinct = union - shared;
    let each_side = shared + distinct / 2;
    let a: Vec<u64> = (0..each_side as u64).collect();
    let b: Vec<u64> = (0..shared as u64)
        .chain(1_000_000..1_000_000 + (union - each_side) as u64)
        .collect();
    let mut hits = 0usize;
    for t in 0..trials {
        let family = MixHashFamily::new(banding.signature_len(), seed ^ (t as u64) << 17);
        let generator = SignatureGenerator::new(family);
        let sig_a = generator.signature(a.iter().copied());
        let sig_b = generator.signature(b.iter().copied());
        let keys_a = banding.band_keys(&sig_a);
        let keys_b = banding.band_keys(&sig_b);
        if keys_a.iter().zip(&keys_b).any(|(x, y)| x == y) {
            hits += 1;
        }
    }
    Some(hits as f64 / trials as f64)
}

fn probability_table(rows: u32, grid: &[(u32, f64)], settings: &Settings) -> TextTable {
    let mut t = TextTable::new([
        "bands",
        "jaccard",
        "P[pair] (paper formula)",
        "P[pair] (measured)",
        "MH-K-Modes P (c=10)",
    ]);
    for &(bands, s) in grid {
        let banding = Banding::new(bands, rows);
        let analytic = candidate_probability(s, rows, bands);
        let empirical = if banding.signature_len() <= 400 {
            empirical_candidate_probability(s, banding, settings.seed, 200)
        } else {
            None
        };
        t.row([
            bands.to_string(),
            format!("{s}"),
            f3(analytic),
            empirical.map_or_else(|| "-".to_owned(), f3),
            f3(cluster_hit_probability(s, rows, bands, 10)),
        ]);
    }
    t
}

/// Table I: candidate-pair and cluster-hit probabilities at r = 1.
pub fn table1(settings: &Settings) -> Report {
    let grid = [
        (10, 0.01),
        (10, 0.1),
        (10, 0.2),
        (10, 0.5),
        (100, 0.001),
        (100, 0.01),
        (100, 0.1),
        (100, 0.5),
        (100, 0.8),
        (800, 0.0001),
        (800, 0.001),
        (800, 0.01),
        (800, 0.1),
    ];
    let mut report = Report::new("Table I — candidate probabilities, r = 1");
    report.section("table1", probability_table(1, &grid, settings));
    report.note(
        "paper's printed rows (b=100, s=0.001) and (b=100, s=0.01) disagree with its \
         own formula 1-(1-s^r)^b; this table follows the formula (see docs/RESULTS.md)",
    );
    report.note(
        "measured column: 200 MinHash trials on 400-element universes; '-' where \
                 the similarity is unrepresentable at that size",
    );
    report
}

/// Table II: the r = 5 grid.
pub fn table2(settings: &Settings) -> Report {
    let grid = [
        (10, 0.1),
        (10, 0.2),
        (10, 0.5),
        (10, 0.8),
        (100, 0.1),
        (100, 0.5),
        (800, 0.1),
        (800, 0.2),
        (800, 0.3),
    ];
    let mut report = Report::new("Table II — candidate probabilities, r = 5");
    report.section("table2", probability_table(5, &grid, settings));
    report
}

// ---------------------------------------------------------------- Figs. 2–5

fn series_tables(report: &mut Report, set: &RunSet) {
    let mut per_iter = TextTable::new([
        "series",
        "iteration",
        "time_s",
        "avg_clusters_searched",
        "moves",
        "cost",
    ]);
    for s in &set.baseline.summary.iterations {
        per_iter.row([
            "K-Modes".to_owned(),
            s.iteration.to_string(),
            secs(s.duration),
            f3(s.avg_candidates),
            s.moves.to_string(),
            s.cost.to_string(),
        ]);
    }
    for run in &set.mh_runs {
        for s in &run.result.summary.iterations {
            per_iter.row([
                format!("MH-K-Modes {}", run.banding),
                s.iteration.to_string(),
                secs(s.duration),
                f3(s.avg_candidates),
                s.moves.to_string(),
                s.cost.to_string(),
            ]);
        }
    }
    report.section("per_iteration", per_iter);

    let mut summary = TextTable::new([
        "series",
        "iterations",
        "converged",
        "setup_s",
        "total_s",
        "speedup_vs_kmodes",
        "purity",
        "nmi",
        "ari",
    ]);
    summary.row([
        "K-Modes".to_owned(),
        set.baseline.summary.n_iterations().to_string(),
        set.baseline.summary.converged.to_string(),
        secs(set.baseline.summary.setup),
        secs(set.baseline.summary.total_time()),
        "1.000".to_owned(),
        f3(set.baseline_quality.purity),
        f3(set.baseline_quality.nmi),
        f3(set.baseline_quality.ari),
    ]);
    for run in &set.mh_runs {
        summary.row([
            format!("MH-K-Modes {}", run.banding),
            run.result.summary.n_iterations().to_string(),
            run.result.summary.converged.to_string(),
            secs(run.result.summary.setup),
            secs(run.result.summary.total_time()),
            f3(speedup(set, run)),
            f3(run.quality.purity),
            f3(run.quality.nmi),
            f3(run.quality.ari),
        ]);
    }
    report.section("summary", summary);
}

fn shape_note(set: &RunSet, settings: &Settings) -> String {
    format!(
        "scaled shape: {} items x {} attrs x {} clusters (scale {}); paper shape preserved in ratio",
        set.shape.n_items, set.shape.n_attrs, set.shape.n_clusters, settings.scale
    )
}

fn synthetic_figure(suite: &mut Suite, key: &'static str, title: &str) -> Report {
    let set = suite.runset(key);
    let mut report = Report::new(title);
    series_tables(&mut report, &set);
    report.note(shape_note(&set, &suite.settings));
    report
}

/// Fig. 2: 90 000 × 100 × 20 000 (a: time/iter, b: shortlist, c: moves;
/// d–e are zoom-ins of the same series).
pub fn fig2(suite: &mut Suite) -> Report {
    synthetic_figure(
        suite,
        "fig2",
        "Figure 2 — 90k items, 100 attrs, 20k clusters",
    )
}

/// Fig. 3: 40 000 clusters.
pub fn fig3(suite: &mut Suite) -> Report {
    synthetic_figure(
        suite,
        "fig3",
        "Figure 3 — 90k items, 100 attrs, 40k clusters",
    )
}

/// Fig. 4: 250 000 items.
pub fn fig4(suite: &mut Suite) -> Report {
    synthetic_figure(
        suite,
        "fig4",
        "Figure 4 — 250k items, 100 attrs, 20k clusters",
    )
}

/// Fig. 5: 200 attributes.
pub fn fig5(suite: &mut Suite) -> Report {
    synthetic_figure(
        suite,
        "fig5",
        "Figure 5 — 90k items, 200 attrs, 20k clusters",
    )
}

// ---------------------------------------------------------------- Figs. 6–8

fn total_time_of(set: &RunSet, banding_label: &str) -> Option<f64> {
    set.mh_runs
        .iter()
        .find(|r| r.banding.to_string() == banding_label)
        .map(|r| r.result.summary.total_time().as_secs_f64())
}

/// Fig. 6: scaling comparisons (a: items, b: clusters, c: attributes), all
/// with the paper's 20b5r parameters.
pub fn fig6(suite: &mut Suite) -> Report {
    let mut report = Report::new("Figure 6 — scaling of total clustering time");

    let fig2 = suite.runset("fig2");
    let fig4 = suite.runset("fig4");
    let mut items = TextTable::new(["n_items", "K-Modes_total_s", "MH-K-Modes_20b5r_total_s"]);
    for set in [&fig2, &fig4] {
        items.row([
            set.shape.n_items.to_string(),
            secs(set.baseline.summary.total_time()),
            f3(total_time_of(set, "20b5r").unwrap_or(f64::NAN)),
        ]);
    }
    report.section("a_scaling_items", items);

    let fig6b = suite.runset("fig6b_40k");
    let mut clusters = TextTable::new([
        "n_clusters_at_250k_items",
        "K-Modes_total_s",
        "MH-K-Modes_20b5r_total_s",
    ]);
    for set in [&fig4, &fig6b] {
        clusters.row([
            set.shape.n_clusters.to_string(),
            secs(set.baseline.summary.total_time()),
            f3(total_time_of(set, "20b5r").unwrap_or(f64::NAN)),
        ]);
    }
    report.section("b_scaling_clusters", clusters);

    let fig5 = suite.runset("fig5");
    let attr400 = suite.runset("attr400");
    let mut attrs = TextTable::new(["n_attrs", "K-Modes_total_s", "MH-K-Modes_20b5r_total_s"]);
    for set in [&fig2, &fig5, &attr400] {
        attrs.row([
            set.shape.n_attrs.to_string(),
            secs(set.baseline.summary.total_time()),
            f3(total_time_of(set, "20b5r").unwrap_or(f64::NAN)),
        ]);
    }
    report.section("c_scaling_attributes", attrs);
    report.note(
        "expected shape: MH-K-Modes growth flatter than K-Modes on every axis (paper Fig. 6)",
    );
    report
}

fn totals_for(report: &mut Report, name: &str, set: &RunSet) {
    let mut t = TextTable::new(["series", "total_s", "speedup"]);
    t.row([
        "K-Modes".to_owned(),
        secs(set.baseline.summary.total_time()),
        "1.000".to_owned(),
    ]);
    for run in &set.mh_runs {
        t.row([
            format!("MH-K-Modes {}", run.banding),
            secs(run.result.summary.total_time()),
            f3(speedup(set, run)),
        ]);
    }
    report.section(name, t);
}

/// Fig. 7: total time to cluster each synthetic dataset.
pub fn fig7(suite: &mut Suite) -> Report {
    let mut report = Report::new("Figure 7 — total time per synthetic dataset");
    let sets = [
        ("a_90k_100attr_20k", "fig2"),
        ("b_90k_200attr_20k", "fig5"),
        ("c_90k_400attr_20k", "attr400"),
        ("d_90k_100attr_40k", "fig3"),
        ("e_250k_100attr_20k", "fig4"),
    ];
    for (name, key) in sets {
        let set = suite.runset(key);
        totals_for(&mut report, name, &set);
    }
    report.note("paper claim: MH-K-Modes 2x-6x faster in every tested combination");
    report
}

/// Fig. 8: cluster purity per synthetic dataset.
pub fn fig8(suite: &mut Suite) -> Report {
    let mut report = Report::new("Figure 8 — cluster purity per synthetic dataset");
    let sets = [
        ("a_90k_100attr_20k", "fig2"),
        ("b_90k_200attr_20k", "fig5"),
        ("c_90k_400attr_20k", "attr400"),
        ("d_90k_100attr_40k", "fig3"),
        ("e_250k_100attr_20k", "fig4"),
    ];
    for (name, key) in sets {
        let set = suite.runset(key);
        let mut t = TextTable::new(["series", "purity", "nmi", "ari"]);
        t.row([
            "K-Modes".to_owned(),
            f3(set.baseline_quality.purity),
            f3(set.baseline_quality.nmi),
            f3(set.baseline_quality.ari),
        ]);
        for run in &set.mh_runs {
            t.row([
                format!("MH-K-Modes {}", run.banding),
                f3(run.quality.purity),
                f3(run.quality.nmi),
                f3(run.quality.ari),
            ]);
        }
        report.section(name, t);
    }
    report.note("paper claim: purity within a few points of K-Modes everywhere");
    report
}

// ---------------------------------------------------------------- Figs. 9–10

fn text_series_tables(report: &mut Report, set: &TextRunSet) {
    let mut per_iter = TextTable::new([
        "series",
        "iteration",
        "time_s",
        "avg_clusters_searched",
        "moves",
    ]);
    for s in &set.baseline.summary.iterations {
        per_iter.row([
            "K-Modes".to_owned(),
            s.iteration.to_string(),
            secs(s.duration),
            f3(s.avg_candidates),
            s.moves.to_string(),
        ]);
    }
    for run in &set.mh_runs {
        for s in &run.result.summary.iterations {
            per_iter.row([
                format!("MH-K-Modes {}", run.banding),
                s.iteration.to_string(),
                secs(s.duration),
                f3(s.avg_candidates),
                s.moves.to_string(),
            ]);
        }
    }
    report.section("per_iteration", per_iter);

    let mut summary = TextTable::new([
        "series",
        "iterations",
        "converged",
        "total_s",
        "speedup",
        "purity",
        "nmi",
    ]);
    summary.row([
        "K-Modes".to_owned(),
        set.baseline.summary.n_iterations().to_string(),
        set.baseline.summary.converged.to_string(),
        secs(set.baseline.summary.total_time()),
        "1.000".to_owned(),
        f3(set.baseline_quality.purity),
        f3(set.baseline_quality.nmi),
    ]);
    for run in &set.mh_runs {
        let sp = set.baseline.summary.total_time().as_secs_f64()
            / run.result.summary.total_time().as_secs_f64();
        summary.row([
            format!("MH-K-Modes {}", run.banding),
            run.result.summary.n_iterations().to_string(),
            run.result.summary.converged.to_string(),
            secs(run.result.summary.total_time()),
            f3(sp),
            f3(run.quality.purity),
            f3(run.quality.nmi),
        ]);
    }
    report.section("summary", summary);
}

/// Fig. 9: Yahoo!-like corpus with TF-IDF threshold 0.7 (1b1r vs K-Modes).
pub fn fig9(settings: &Settings) -> Report {
    let exp = TextExperiment {
        tfidf_threshold: 0.7,
        max_words_per_topic: 10_000,
        max_iterations: SYNTHETIC_MAX_ITER,
        bandings: vec![Banding::new(1, 1)],
    };
    let set = run_text_experiment(&exp, settings);
    let mut report = Report::new("Figure 9 — Yahoo!-like questions, TF-IDF threshold 0.7");
    text_series_tables(&mut report, &set);
    report.note(format!(
        "pipeline produced {} items x {} attrs, k = {} topics (paper: 81036 x 382, k = 2916)",
        set.n_items, set.n_attrs, set.n_topics
    ));
    report
}

/// Fig. 10: threshold 0.3, max 10 iterations (1b1r / 20b5r / 50b5r).
pub fn fig10(settings: &Settings) -> Report {
    let exp = TextExperiment {
        tfidf_threshold: 0.3,
        max_words_per_topic: 10_000,
        max_iterations: 10,
        bandings: paper_bandings(&["1b1r", "20b5r", "50b5r"]),
    };
    let set = run_text_experiment(&exp, settings);
    let mut report =
        Report::new("Figure 10 — Yahoo!-like questions, TF-IDF threshold 0.3 (max 10 iterations)");
    text_series_tables(&mut report, &set);
    report.note(format!(
        "pipeline produced {} items x {} attrs, k = {} topics (paper: 157602 x 2881, k = 2916)",
        set.n_items, set.n_attrs, set.n_topics
    ));
    report
}

// ---------------------------------------------------------------- §III-C bound

/// Empirical vs analytic error bound (§III-C) on the Fig. 2 dataset.
pub fn bound(settings: &Settings) -> Report {
    let bandings = [
        Banding::new(1, 1),
        Banding::new(20, 2),
        Banding::new(20, 5),
        Banding::new(50, 5),
        Banding::new(25, 1), // the paper's worked example (r=1, b=25)
    ];
    let reports = run_bound_audit(SHAPE_FIG2, &bandings, settings);
    let mut report = Report::new("§III-C — empirical shortlist miss rate vs analytic bound");
    let mut t = TextTable::new([
        "banding",
        "miss_rate (operational)",
        "miss_rate (excl. self)",
        "mean_analytic_bound",
        "avg_shortlist",
        "unbounded_items",
    ]);
    for (banding, r) in &reports {
        t.row([
            banding.to_string(),
            format!("{:.4}", r.miss_rate),
            format!("{:.4}", r.miss_rate_excl_self),
            format!("{:.4}", r.mean_analytic_bound),
            f3(r.avg_shortlist),
            r.unbounded_items.to_string(),
        ]);
    }
    report.section("bound", t);
    report.note(
        "claim: excl-self miss rate <= mean analytic bound (the §III-C quantity); \
         the operational rate is lower still because self-collision always \
         shortlists the current cluster",
    );
    report.note(
        "the bound is informative for r=1 (e.g. 25b1r, the paper's worked example); \
         for r>=2 it is vacuous (≈1) because (1/(2m-1))^r is negligible",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Settings {
        Settings {
            scale: 0.002,
            seed: 5,
            out_dir: None,
        }
    }

    #[test]
    fn table_reports_have_expected_rows() {
        let t1 = table1(&tiny());
        assert_eq!(t1.sections[0].1.len(), 13);
        let t2 = table2(&tiny());
        assert_eq!(t2.sections[0].1.len(), 9);
        assert!(t1.render().contains("Table I"));
    }

    #[test]
    fn empirical_probability_tracks_formula() {
        let banding = Banding::new(10, 1);
        let p = empirical_candidate_probability(0.5, banding, 1, 300).unwrap();
        let analytic = candidate_probability(0.5, 1, 10);
        assert!(
            (p - analytic).abs() < 0.12,
            "measured {p} vs analytic {analytic}"
        );
    }

    #[test]
    fn fig2_report_contains_all_series() {
        let mut suite = Suite::new(tiny());
        let r = fig2(&mut suite);
        let text = r.render();
        assert!(text.contains("K-Modes"));
        assert!(text.contains("MH-K-Modes 20b5r"));
        assert!(text.contains("per_iteration"));
        assert!(text.contains("summary"));
    }

    #[test]
    fn suite_caches_runs() {
        let mut suite = Suite::new(tiny());
        let a = suite.runset("fig2");
        let b = suite.runset("fig2");
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn composite_figures_render() {
        let mut suite = Suite::new(tiny());
        let f6 = fig6(&mut suite);
        assert_eq!(f6.sections.len(), 3);
        let f7 = fig7(&mut suite);
        assert_eq!(f7.sections.len(), 5);
        let f8 = fig8(&mut suite);
        assert_eq!(f8.sections.len(), 5);
    }

    #[test]
    fn bound_report_renders() {
        let r = bound(&tiny());
        assert_eq!(r.sections[0].1.len(), 5);
    }

    #[test]
    fn csv_export_writes_files() {
        let dir = std::env::temp_dir().join("lshclust_test_csv");
        let _ = std::fs::remove_dir_all(&dir);
        let r = table2(&tiny());
        r.write_csvs(&dir, "table2").unwrap();
        assert!(dir.join("table2_table2.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
