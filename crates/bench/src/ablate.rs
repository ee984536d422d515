//! Ablation experiment: the framework's design choices (self-collision in
//! the shortlist, bucket scans vs precomputed candidate lists, batch vs
//! online mode updates), plus the comparisons the paper's related-work
//! section (§II) discusses but never runs — MinHash shortlists vs canopy
//! shortlists vs mini-batch updates.
//!
//! Everything is held fixed (dataset, initial centroids, distance kernels,
//! tie-breaks) except the single axis under study.

use crate::scale::{Settings, SyntheticShape, SHAPE_FIG2};
use crate::synthetic::{dataset_for, quality_of};
use crate::table::{f3, secs, TextTable};
use lshclust_categorical::ClusterId;
use lshclust_core::canopy::{Canopies, CanopyConfig, CanopyProvider};
use lshclust_core::framework::{fit, CentroidModel, StopPolicy};
use lshclust_core::mhkmodes::{KModesModel, MhKModes, MhKModesConfig};
use lshclust_core::minibatch::{minibatch_mh_kmodes, MiniBatchParams};
use lshclust_kmodes::assign::assign_all_full;
use lshclust_kmodes::init::{initial_modes, InitMethod};
use lshclust_kmodes::{KModes, KModesConfig, UpdateRule};
use lshclust_minhash::{Banding, QueryMode};
use std::time::Instant;

/// One ablation row: a strategy, its cost and its quality.
struct Row {
    name: String,
    total_s: f64,
    iterations: String,
    avg_shortlist: String,
    purity: f64,
}

fn mh_row(
    name: &str,
    dataset: &lshclust_categorical::Dataset,
    labels: &[u32],
    k: usize,
    configure: impl FnOnce(MhKModesConfig) -> MhKModesConfig,
) -> Row {
    let config = configure(MhKModesConfig::new(k, Banding::new(20, 5)).max_iterations(30));
    let result = MhKModes::new(config).fit(dataset);
    Row {
        name: name.to_owned(),
        total_s: result.summary.total_time().as_secs_f64(),
        iterations: result.summary.n_iterations().to_string(),
        avg_shortlist: f3(result
            .summary
            .iterations
            .last()
            .map_or(0.0, |s| s.avg_candidates)),
        purity: quality_of(&result.assignments, labels).purity,
    }
}

/// Runs the full ablation suite on the Fig. 2-shaped dataset.
pub fn run(settings: &Settings) -> crate::figures::Report {
    let shape: SyntheticShape = SHAPE_FIG2.scaled(settings.scale);
    let dataset = dataset_for(shape, settings);
    let labels = dataset.labels().unwrap().to_vec();
    let k = shape.n_clusters;
    let seed = settings.seed;

    let mut rows: Vec<Row> = Vec::new();

    // --- reference points ------------------------------------------------
    let baseline = KModes::new(KModesConfig::new(k).seed(seed).max_iterations(30)).fit(&dataset);
    rows.push(Row {
        name: "K-Modes (full search)".into(),
        total_s: baseline.summary.total_time().as_secs_f64(),
        iterations: baseline.summary.n_iterations().to_string(),
        avg_shortlist: k.to_string(),
        purity: quality_of(&baseline.assignments, &labels).purity,
    });
    rows.push(mh_row(
        "MH-K-Modes 20b5r (paper)",
        &dataset,
        &labels,
        k,
        |c| c.seed(seed),
    ));

    // --- shortlist structure: canopies instead of LSH buckets -------------
    {
        let start = Instant::now();
        let modes = initial_modes(&dataset, k, InitMethod::RandomItems, seed);
        let mut assignments = vec![ClusterId(0); dataset.n_items()];
        let mut model = KModesModel::new(&dataset, modes);
        assign_all_full(&dataset, model.modes(), &mut assignments);
        model.update_centroids(&assignments);
        let canopies = Canopies::build(&dataset, &CanopyConfig::new());
        let mean_memberships = canopies.mean_memberships();
        let mut provider = CanopyProvider::new(canopies, &assignments);
        let setup = start.elapsed();
        let run = fit(
            &mut model,
            &mut provider,
            assignments,
            setup,
            &StopPolicy::max_iterations(30),
            true,
        );
        rows.push(Row {
            name: format!("Canopy shortlists (T1=0.3, {mean_memberships:.1} canopies/item)"),
            total_s: run.summary.total_time().as_secs_f64(),
            iterations: run.summary.n_iterations().to_string(),
            avg_shortlist: f3(run
                .summary
                .iterations
                .last()
                .map_or(0.0, |s| s.avg_candidates)),
            purity: quality_of(&run.assignments, &labels).purity,
        });
    }

    // --- orthogonal acceleration: mini-batch updates ----------------------
    {
        // Full search per batch item: no LSH scheme, one thread.
        let params = MiniBatchParams::new(256, 40);
        let result =
            minibatch_mh_kmodes(&dataset, k, InitMethod::RandomItems, seed, None, &params, 1);
        rows.push(Row {
            name: "Mini-batch K-Modes (Sculley-style, 40x256)".into(),
            total_s: result.summary.total_time().as_secs_f64(),
            iterations: format!("{} steps", params.n_steps),
            avg_shortlist: k.to_string(),
            purity: quality_of(&result.assignments, &labels).purity,
        });
    }

    // --- design toggles on MH-K-Modes -------------------------------------
    rows.push(mh_row(
        "MH 20b5r, precomputed candidates",
        &dataset,
        &labels,
        k,
        |c| c.seed(seed).query_mode(QueryMode::Precomputed),
    ));
    rows.push(mh_row(
        "MH 20b5r, self-collision disabled",
        &dataset,
        &labels,
        k,
        |c| c.seed(seed).include_self(false),
    ));
    rows.push(mh_row(
        "MH 20b5r, 2 assignment threads",
        &dataset,
        &labels,
        k,
        |c| c.seed(seed).threads(2),
    ));

    // --- baseline update-rule ablation -------------------------------------
    {
        let online = KModes::new(
            KModesConfig::new(k)
                .seed(seed)
                .max_iterations(30)
                .update(UpdateRule::Online),
        )
        .fit(&dataset);
        rows.push(Row {
            name: "K-Modes, online (Huang) updates".into(),
            total_s: online.summary.total_time().as_secs_f64(),
            iterations: online.summary.n_iterations().to_string(),
            avg_shortlist: k.to_string(),
            purity: quality_of(&online.assignments, &labels).purity,
        });
    }

    let mut report = crate::figures::Report::new(format!(
        "Ablations — {} items x {} attrs x {} clusters",
        shape.n_items, shape.n_attrs, shape.n_clusters
    ));
    let mut t = TextTable::new([
        "strategy",
        "total_s",
        "iterations",
        "avg_shortlist",
        "purity",
    ]);
    for r in &rows {
        t.row([
            r.name.clone(),
            f3(r.total_s),
            r.iterations.clone(),
            r.avg_shortlist.clone(),
            f3(r.purity),
        ]);
    }
    report.section("ablations", t);
    report.note("canopy row: quadratic-in-n canopy construction is included in its total");
    report.note(format!(
        "baseline setup {}s is initialisation only",
        secs(baseline.summary.setup)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_suite_runs_and_reports_all_strategies() {
        let settings = Settings {
            scale: 0.002,
            seed: 3,
            out_dir: None,
        };
        let report = run(&settings);
        let text = report.render();
        assert!(text.contains("K-Modes (full search)"));
        assert!(text.contains("MH-K-Modes 20b5r"));
        assert!(text.contains("Canopy shortlists"));
        assert!(text.contains("Mini-batch"));
        assert!(text.contains("self-collision disabled"));
        assert_eq!(report.sections[0].1.len(), 8);
    }
}

/// Empirical §III-D: sweeps the `(bands, rows)` grid on the Fig. 2-shaped
/// dataset and reports speedup / shortlist / quality per combination — the
/// experiment behind the paper's parameter-choice discussion.
pub fn sweep(settings: &Settings) -> crate::figures::Report {
    let shape: SyntheticShape = SHAPE_FIG2.scaled(settings.scale);
    let dataset = dataset_for(shape, settings);
    let labels = dataset.labels().unwrap().to_vec();
    let k = shape.n_clusters;
    let seed = settings.seed;

    let baseline = KModes::new(KModesConfig::new(k).seed(seed).max_iterations(30)).fit(&dataset);
    let baseline_total = baseline.summary.total_time().as_secs_f64();
    let baseline_purity = quality_of(&baseline.assignments, &labels).purity;

    let mut report = crate::figures::Report::new(format!(
        "Parameter sweep — {} items x {} attrs x {} clusters (K-Modes: {:.3}s, purity {:.3})",
        shape.n_items, shape.n_attrs, shape.n_clusters, baseline_total, baseline_purity
    ));
    let mut t = TextTable::new([
        "banding",
        "threshold_sim",
        "hashes",
        "total_s",
        "speedup",
        "iterations",
        "avg_shortlist",
        "purity",
    ]);
    for (bands, rows) in [
        (1u32, 1u32),
        (5, 1),
        (25, 1),
        (10, 2),
        (20, 2),
        (10, 5),
        (20, 5),
        (50, 5),
        (20, 8),
    ] {
        let banding = Banding::new(bands, rows);
        let result = MhKModes::new(
            MhKModesConfig::new(k, banding)
                .seed(seed)
                .max_iterations(30),
        )
        .fit(&dataset);
        let total = result.summary.total_time().as_secs_f64();
        t.row([
            banding.to_string(),
            f3(banding.threshold()),
            banding.signature_len().to_string(),
            f3(total),
            f3(baseline_total / total),
            result.summary.n_iterations().to_string(),
            f3(result
                .summary
                .iterations
                .last()
                .map_or(0.0, |s| s.avg_candidates)),
            f3(quality_of(&result.assignments, &labels).purity),
        ]);
    }
    report.section("sweep", t);
    report.note(
        "expected shape (§III-D): more hashes narrow the shortlist but cost signature \
         time; tiny parameter sets (1b1r) already capture most of the speedup because \
         one colliding cluster member suffices",
    );
    report
}

#[cfg(test)]
mod sweep_tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid() {
        let settings = Settings {
            scale: 0.002,
            seed: 3,
            out_dir: None,
        };
        let report = sweep(&settings);
        assert_eq!(report.sections[0].1.len(), 9);
        assert!(report.render().contains("20b5r"));
    }
}
