//! The paper's dataset shapes and the `--scale` machinery.
//!
//! The paper's synthetic experiments ran for hundreds of hours single-
//! threaded; we preserve every *ratio* (items per cluster, attribute counts,
//! rule fractions, banding parameters) and shrink item/cluster counts by a
//! configurable factor (docs/RESULTS.md records the paper's curves at 0.26).
//! `--scale 1.0` reproduces the paper's exact sizes.

use lshclust_minhash::Banding;

/// Shape of a synthetic experiment before scaling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyntheticShape {
    /// Items (paper sizes: 90 000 / 250 000).
    pub n_items: usize,
    /// Clusters (paper sizes: 20 000 / 40 000).
    pub n_clusters: usize,
    /// Attributes (paper sizes: 100 / 200 / 400) — never scaled, attribute
    /// count is itself a studied variable.
    pub n_attrs: usize,
}

impl SyntheticShape {
    /// Applies a scale factor to items and clusters, preserving their ratio.
    /// Clusters are floored at 2 and items at `2 × clusters`.
    pub fn scaled(&self, factor: f64) -> SyntheticShape {
        assert!(factor > 0.0 && factor <= 1.0, "scale must be in (0, 1]");
        let n_clusters = ((self.n_clusters as f64 * factor).round() as usize).max(2);
        let n_items = ((self.n_items as f64 * factor).round() as usize).max(n_clusters * 2);
        SyntheticShape {
            n_items,
            n_clusters,
            n_attrs: self.n_attrs,
        }
    }
}

/// Fig. 2: 90 000 items × 100 attrs × 20 000 clusters.
pub const SHAPE_FIG2: SyntheticShape = SyntheticShape {
    n_items: 90_000,
    n_clusters: 20_000,
    n_attrs: 100,
};
/// Fig. 3: 40 000 clusters.
pub const SHAPE_FIG3: SyntheticShape = SyntheticShape {
    n_items: 90_000,
    n_clusters: 40_000,
    n_attrs: 100,
};
/// Fig. 4: 250 000 items.
pub const SHAPE_FIG4: SyntheticShape = SyntheticShape {
    n_items: 250_000,
    n_clusters: 20_000,
    n_attrs: 100,
};
/// Fig. 5: 200 attributes.
pub const SHAPE_FIG5: SyntheticShape = SyntheticShape {
    n_items: 90_000,
    n_clusters: 20_000,
    n_attrs: 200,
};
/// Fig. 6c's widest point: 400 attributes.
pub const SHAPE_400ATTR: SyntheticShape = SyntheticShape {
    n_items: 90_000,
    n_clusters: 20_000,
    n_attrs: 400,
};
/// Fig. 6b's second point: 250 000 items × 40 000 clusters.
pub const SHAPE_250K_40K: SyntheticShape = SyntheticShape {
    n_items: 250_000,
    n_clusters: 40_000,
    n_attrs: 100,
};

/// The banding parameter sets the paper sweeps, by label.
pub fn banding_by_label(label: &str) -> Option<Banding> {
    match label {
        "1b1r" => Some(Banding::new(1, 1)),
        "20b2r" => Some(Banding::new(20, 2)),
        "20b5r" => Some(Banding::new(20, 5)),
        "50b5r" => Some(Banding::new(50, 5)),
        _ => None,
    }
}

/// Experiment-wide settings parsed from the command line.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Scale factor in `(0, 1]`.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Optional directory for CSV output.
    pub out_dir: Option<std::path::PathBuf>,
}

impl Default for Settings {
    fn default() -> Self {
        Self {
            scale: 0.05,
            seed: 42,
            out_dir: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_ratio() {
        let s = SHAPE_FIG2.scaled(0.1);
        assert_eq!(s.n_clusters, 2_000);
        assert_eq!(s.n_items, 9_000);
        assert_eq!(s.n_attrs, 100);
        // items per cluster unchanged: 4.5.
        let ratio = s.n_items as f64 / s.n_clusters as f64;
        assert!((ratio - 4.5).abs() < 0.01);
    }

    #[test]
    fn unit_scale_is_identity() {
        assert_eq!(SHAPE_FIG4.scaled(1.0), SHAPE_FIG4);
    }

    #[test]
    fn tiny_scale_respects_floors() {
        let s = SHAPE_FIG2.scaled(0.00001);
        assert!(s.n_clusters >= 2);
        assert!(s.n_items >= s.n_clusters * 2);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn oversized_scale_rejected() {
        let _ = SHAPE_FIG2.scaled(1.5);
    }

    #[test]
    fn banding_labels_round_trip() {
        for label in ["1b1r", "20b2r", "20b5r", "50b5r"] {
            let b = banding_by_label(label).unwrap();
            assert_eq!(b.to_string(), label);
        }
        assert!(banding_by_label("nope").is_none());
    }

    #[test]
    fn attrs_never_scaled() {
        assert_eq!(SHAPE_400ATTR.scaled(0.01).n_attrs, 400);
    }
}
