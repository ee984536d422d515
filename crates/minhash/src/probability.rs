//! The analytic probability model of §III-A2 – §III-D.
//!
//! * [`candidate_probability`] — `P[pair] = 1 − (1 − s^r)^b` (Tables I–II,
//!   column "Probability"),
//! * [`cluster_hit_probability`] — probability that *some* of `c` similar
//!   items in a cluster collides, `1 − (1 − s^r)^{b·c}` (Tables I–II, column
//!   "MH-K-Modes Probability"),
//! * [`error_bound`] — the §III-C bound on missing the true best cluster,
//! * [`LshParams`] — an `(r, b)` advisor inverting the S-curve.

/// Probability that two items of Jaccard similarity `s` become a candidate
/// pair under `b` bands × `r` rows: `1 − (1 − s^r)^b`.
pub fn candidate_probability(s: f64, rows: u32, bands: u32) -> f64 {
    assert!((0.0..=1.0).contains(&s), "similarity must be in [0,1]");
    1.0 - (1.0 - s.powi(rows as i32)).powi(bands as i32)
}

/// Probability that at least one of `c` items (each with Jaccard similarity
/// ≥ `s` to the query) collides with the query: `1 − (1 − s^r)^{b·c}`.
///
/// This is the paper's key observation (§III-D): to shortlist a *cluster* we
/// need only one colliding member, so the per-pair probability compounds with
/// cluster size and the usual strict `(r, b)` selection rules can be relaxed.
pub fn cluster_hit_probability(s: f64, rows: u32, bands: u32, c: u32) -> f64 {
    assert!((0.0..=1.0).contains(&s), "similarity must be in [0,1]");
    1.0 - (1.0 - s.powi(rows as i32)).powf(f64::from(bands) * f64::from(c))
}

/// Upper bound on the probability that the index fails to shortlist the true
/// best cluster for an item with `n_attrs` attributes (§III-C):
///
/// `P[miss] ≤ (1 − (1/(2m−1))^r)^{b·|C_n|}`
///
/// where `|C_n|` is the size of the best cluster. The bound uses the §III-C
/// argument that the best cluster must contain an item sharing at least one
/// attribute value, whose similarity is therefore at least `1/(2m−1)`.
pub fn error_bound(n_attrs: usize, rows: u32, bands: u32, cluster_size: u32) -> f64 {
    let s = lshclust_categorical::dissimilarity::jaccard_lower_bound(n_attrs);
    (1.0 - s.powi(rows as i32)).powf(f64::from(bands) * f64::from(cluster_size))
}

/// LSH parameter advisor: picks `(r, b)` for a target similarity threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LshParams {
    /// Rows per band.
    pub rows: u32,
    /// Number of bands.
    pub bands: u32,
}

impl LshParams {
    /// Chooses the smallest `b` for each `r ∈ [1, max_rows]` such that items
    /// with similarity `s_target` are caught with probability at least
    /// `p_target`, then returns the candidate with the fewest total hash
    /// functions `r·b` (cheapest signatures).
    ///
    /// Inverting `1 − (1 − s^r)^b ≥ p` gives
    /// `b ≥ ln(1 − p) / ln(1 − s^r)`.
    pub fn for_threshold(s_target: f64, p_target: f64, max_rows: u32) -> Self {
        assert!((0.0..1.0).contains(&p_target), "p_target must be in [0,1)");
        assert!(
            s_target > 0.0 && s_target <= 1.0,
            "s_target must be in (0,1]"
        );
        assert!(max_rows >= 1);
        let mut best: Option<(u64, LshParams)> = None;
        for rows in 1..=max_rows {
            let sr = s_target.powi(rows as i32);
            if sr >= 1.0 {
                // s_target == 1.0: a single band of r rows always matches.
                let cand = LshParams { rows, bands: 1 };
                let cost = u64::from(rows);
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, cand));
                }
                continue;
            }
            let bands_f = ((1.0 - p_target).ln() / (1.0 - sr).ln()).ceil();
            if !bands_f.is_finite() || bands_f > u32::MAX as f64 {
                continue;
            }
            let bands = (bands_f as u32).max(1);
            let cost = u64::from(rows) * u64::from(bands);
            let cand = LshParams { rows, bands };
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, cand));
            }
        }
        best.expect("at least rows=1 always yields parameters").1
    }

    /// Like [`Self::for_threshold`] but targets *cluster* recall: assumes at
    /// least `cluster_size` similar items per cluster, so each effective band
    /// count is multiplied by `cluster_size` (§III-D relaxation).
    pub fn for_cluster_threshold(
        s_target: f64,
        p_target: f64,
        max_rows: u32,
        cluster_size: u32,
    ) -> Self {
        assert!(cluster_size >= 1);
        let base = Self::for_threshold(
            s_target,
            1.0 - (1.0 - p_target).powf(f64::from(cluster_size).recip()),
            max_rows,
        );
        // The per-pair requirement weakens to p' with (1-p') = (1-p)^(1/c).
        base
    }

    /// The threshold similarity `(1/b)^{1/r}` of these parameters.
    pub fn threshold(&self) -> f64 {
        crate::banding::Banding::new(self.bands, self.rows).threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of paper Table I (r = 1): (bands, s, P_pair, P_cluster@c=10).
    ///
    /// Two printed rows — (b=100, s=0.001) and (b=100, s=0.01) — disagree
    /// with the paper's own formula `1 − (1 − s^r)^b` (the first appears to
    /// have been computed with b=10); they are excluded here and the
    /// discrepancy is recorded in docs/RESULTS.md. All other rows of both
    /// tables match the formula to print precision.
    const TABLE1: &[(u32, f64, f64, f64)] = &[
        (10, 0.01, 0.09, 0.61),
        (10, 0.1, 0.65, 1.0),
        (10, 0.2, 0.89, 1.0),
        (10, 0.5, 0.99, 1.0),
        (100, 0.1, 0.99, 1.0),
        (100, 0.5, 1.0, 1.0),
        (100, 0.8, 1.0, 1.0),
        (800, 0.0001, 0.07, 0.52),
        (800, 0.001, 0.55, 0.99),
        (800, 0.01, 0.99, 1.0),
        (800, 0.1, 1.0, 1.0),
    ];

    /// Rows of paper Table II (r = 5).
    const TABLE2: &[(u32, f64, f64, f64)] = &[
        (10, 0.1, 0.0001, 0.001),
        (10, 0.2, 0.003, 0.03),
        (10, 0.5, 0.27, 0.96),
        (10, 0.8, 0.98, 1.0),
        (100, 0.1, 0.001, 0.01),
        (100, 0.5, 0.95, 1.0),
        (800, 0.1, 0.008, 0.08),
        (800, 0.2, 0.23, 0.93),
        (800, 0.3, 0.86, 1.0),
    ];

    fn close(a: f64, b: f64) -> bool {
        // Paper values are printed with 1–2 significant figures.
        (a - b).abs() <= 0.012 + 0.06 * b
    }

    #[test]
    fn reproduces_table1() {
        for &(bands, s, p_pair, p_cluster) in TABLE1 {
            let got_pair = candidate_probability(s, 1, bands);
            let got_cluster = cluster_hit_probability(s, 1, bands, 10);
            assert!(
                close(got_pair, p_pair),
                "b={bands} s={s}: pair {got_pair} vs {p_pair}"
            );
            assert!(
                close(got_cluster, p_cluster),
                "b={bands} s={s}: cluster {got_cluster} vs {p_cluster}"
            );
        }
    }

    #[test]
    fn reproduces_table2() {
        for &(bands, s, p_pair, p_cluster) in TABLE2 {
            let got_pair = candidate_probability(s, 5, bands);
            let got_cluster = cluster_hit_probability(s, 5, bands, 10);
            assert!(
                close(got_pair, p_pair),
                "b={bands} s={s}: pair {got_pair} vs {p_pair}"
            );
            assert!(
                close(got_cluster, p_cluster),
                "b={bands} s={s}: cluster {got_cluster} vs {p_cluster}"
            );
        }
    }

    #[test]
    fn table1_known_typo_rows_disagree_with_formula() {
        // Documents the discrepancy: the paper prints 0.009 where the formula
        // gives 0.095 (which *is* the b=10 value, suggesting a row slip), and
        // 0.3 where the formula gives 0.63.
        assert!((candidate_probability(0.001, 1, 100) - 0.0952).abs() < 0.001);
        assert!((candidate_probability(0.001, 1, 10) - 0.00995).abs() < 0.001);
        assert!((candidate_probability(0.01, 1, 100) - 0.634).abs() < 0.001);
    }

    #[test]
    fn footnote_example() {
        // Paper footnote 1: 1 − (1 − 0.1)^50 ≈ 0.99 with r=1, b=1, c=50.
        let p = cluster_hit_probability(0.1, 1, 1, 50);
        assert!((p - 0.9948).abs() < 0.001);
    }

    #[test]
    fn error_bound_matches_worked_example() {
        // §III-C: m=100, r=1, b=25, |C_n|=20 → ≈ 0.08.
        let p = error_bound(100, 1, 25, 20);
        assert!((p - 0.0805).abs() < 0.005, "bound {p}");
    }

    #[test]
    fn probabilities_are_monotone_in_bands() {
        let mut last = 0.0;
        for b in [1u32, 5, 10, 50, 200] {
            let p = candidate_probability(0.2, 3, b);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn probabilities_decrease_with_rows() {
        // More rows per band makes collisions stricter.
        let p1 = candidate_probability(0.3, 1, 20);
        let p5 = candidate_probability(0.3, 5, 20);
        assert!(p5 < p1);
    }

    #[test]
    fn extremes() {
        assert_eq!(candidate_probability(0.0, 3, 10), 0.0);
        assert_eq!(candidate_probability(1.0, 3, 10), 1.0);
        assert_eq!(cluster_hit_probability(0.0, 1, 1, 100), 0.0);
    }

    #[test]
    #[should_panic(expected = "similarity")]
    fn similarity_out_of_range_panics() {
        let _ = candidate_probability(1.5, 1, 1);
    }

    #[test]
    fn error_bound_shrinks_with_cluster_size() {
        let small = error_bound(100, 1, 25, 5);
        let large = error_bound(100, 1, 25, 50);
        assert!(large < small);
    }

    #[test]
    fn advisor_meets_target() {
        let p = LshParams::for_threshold(0.3, 0.95, 6);
        let achieved = candidate_probability(0.3, p.rows, p.bands);
        assert!(achieved >= 0.95, "params {p:?} achieve only {achieved}");
    }

    #[test]
    fn advisor_exact_similarity_one() {
        let p = LshParams::for_threshold(1.0, 0.9, 4);
        assert_eq!(p.bands, 1);
        assert_eq!(candidate_probability(1.0, p.rows, p.bands), 1.0);
    }

    #[test]
    fn advisor_prefers_cheaper_signatures() {
        // For an easy target the advisor should not pick an extravagant n.
        let p = LshParams::for_threshold(0.8, 0.5, 8);
        assert!(p.rows as u64 * p.bands as u64 <= 8, "wasteful params {p:?}");
    }

    #[test]
    fn cluster_advisor_is_never_more_expensive() {
        let strict = LshParams::for_threshold(0.1, 0.9, 5);
        let relaxed = LshParams::for_cluster_threshold(0.1, 0.9, 5, 20);
        assert!(
            u64::from(relaxed.rows) * u64::from(relaxed.bands)
                <= u64::from(strict.rows) * u64::from(strict.bands)
        );
        // And it still meets the target when the cluster has 20 members.
        let p = cluster_hit_probability(0.1, relaxed.rows, relaxed.bands, 20);
        assert!(p >= 0.9 - 1e-9, "cluster params {relaxed:?} achieve {p}");
    }

    #[test]
    fn threshold_accessor() {
        let p = LshParams { rows: 5, bands: 20 };
        assert!((p.threshold() - (1.0f64 / 20.0).powf(0.2)).abs() < 1e-12);
    }
}
