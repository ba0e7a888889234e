//! Table 2 accuracy columns — training proxy (see DESIGN.md: the paper's
//! 200-epoch CIFAR training is substituted by SR-STE on a synthetic
//! task; the reproduced claim is the *ordering*: dense ≈ 1:4 ≈ 1:8 ≳
//! 1:16).

use nm_core::sparsity::Nm;
use nm_train::{train, Dataset, TrainConfig};

/// One accuracy row.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Sparsity label.
    pub sparsity: String,
    /// Proxy test accuracy (percent).
    pub accuracy_pct: f64,
    /// Achieved weight sparsity (percent).
    pub weight_sparsity_pct: f64,
}

/// Runs the dense + 1:4/1:8/1:16 study.
pub fn study(seed: u64) -> Vec<AccuracyRow> {
    let (tr, te) = Dataset::synthetic(2400, 64, 4, seed).split(0.75);
    let mut rows = Vec::new();
    for (label, nm) in [
        ("dense".to_string(), None),
        ("1:4".to_string(), Some(Nm::ONE_OF_FOUR)),
        ("1:8".to_string(), Some(Nm::ONE_OF_EIGHT)),
        ("1:16".to_string(), Some(Nm::ONE_OF_SIXTEEN)),
    ] {
        let cfg = TrainConfig {
            hidden: 96,
            epochs: 40,
            nm,
            seed: seed ^ 0x5A5A,
            ..Default::default()
        };
        let r = train(&tr, &te, &cfg);
        rows.push(AccuracyRow {
            sparsity: label,
            accuracy_pct: 100.0 * r.test_accuracy,
            weight_sparsity_pct: 100.0 * r.sparsity,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "trains four models; runs in release, or in debug with --ignored"
    )]
    fn ordering_matches_paper() {
        let rows = study(7);
        let get = |s: &str| rows.iter().find(|r| r.sparsity == s).unwrap().accuracy_pct;
        assert!(get("dense") > 70.0);
        // 1:4 and 1:8 within a few points of dense; 1:16 may drop more
        // but stays well above chance (25%).
        assert!(get("1:4") > get("dense") - 8.0);
        assert!(get("1:8") > get("dense") - 8.0);
        assert!(get("1:16") > 40.0);
    }
}
