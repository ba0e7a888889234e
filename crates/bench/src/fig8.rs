//! Fig. 8 — single-layer MACs/cycle for convolution and FC layers.
//!
//! Geometry per the paper (Sec. 5.2): K = 256; for convolutions
//! IX = IY = OX = OY = 8, FX = FY = 3, S = 1, P = 1 with
//! C ∈ {32, 64, 128, 256}; for FC layers C ∈ {256, 512, 1024, 2048}.
//! Layers run through the compiler (tiling + double-buffered DMA), as
//! deployed layers do on the platform.

use nm_compiler::plan::{plan_conv, plan_fc, Options};
use nm_compiler::{KernelChoice, Target};
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, FcGeom};

/// One bar of Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Input channels / features.
    pub c: usize,
    /// Kernel label (e.g. `"isa-1:8"`).
    pub kernel: String,
    /// Dense-equivalent MACs per cycle.
    pub macs_per_cycle: f64,
    /// Total layer cycles.
    pub cycles: u64,
    /// Speedup over the dense 1×2 baseline at the same C.
    pub speedup_vs_1x2: f64,
}

/// The kernel configurations of the figure, in presentation order.
fn conv_choices() -> Vec<(String, KernelChoice)> {
    let mut v = vec![
        ("dense-1x2".into(), KernelChoice::ConvDense1x2),
        ("pulp-nn".into(), KernelChoice::ConvDensePulpNn),
    ];
    for nm in Nm::KERNEL_PATTERNS {
        v.push((format!("sw-{nm}"), KernelChoice::ConvSparseSw(nm)));
    }
    for nm in Nm::KERNEL_PATTERNS {
        v.push((format!("isa-{nm}"), KernelChoice::ConvSparseIsa(nm)));
    }
    v
}

fn fc_choices() -> Vec<(String, KernelChoice)> {
    let mut v = vec![("dense-1x2".into(), KernelChoice::FcDense)];
    for nm in Nm::KERNEL_PATTERNS {
        v.push((format!("sw-{nm}"), KernelChoice::FcSparseSw(nm)));
    }
    for nm in Nm::KERNEL_PATTERNS {
        v.push((format!("isa-{nm}"), KernelChoice::FcSparseIsa(nm)));
    }
    v
}

/// The convolution sweep (left half of Fig. 8).
pub fn conv_sweep() -> Vec<Fig8Row> {
    let opts = Options::new(Target::SparseIsa);
    let mut rows = Vec::new();
    for &c in &[32usize, 64, 128, 256] {
        let geom = ConvGeom::square(c, 256, 8, 3, 1, 1).expect("fig8 conv geometry");
        let baseline = plan_conv(0, &geom, KernelChoice::ConvDense1x2, &opts)
            .expect("baseline plan")
            .cycles;
        for (label, choice) in conv_choices() {
            let plan = plan_conv(0, &geom, choice, &opts).expect("conv plan");
            rows.push(Fig8Row {
                c,
                kernel: label,
                macs_per_cycle: geom.macs() as f64 / plan.cycles as f64,
                cycles: plan.cycles,
                speedup_vs_1x2: baseline as f64 / plan.cycles as f64,
            });
        }
    }
    rows
}

/// The FC sweep (right half of Fig. 8).
pub fn fc_sweep() -> Vec<Fig8Row> {
    let opts = Options::new(Target::SparseIsa);
    let mut rows = Vec::new();
    for &c in &[256usize, 512, 1024, 2048] {
        let geom = FcGeom::new(c, 256).expect("fig8 fc geometry");
        let baseline = plan_fc(0, &geom, 1, KernelChoice::FcDense, &opts)
            .expect("baseline plan")
            .cycles;
        for (label, choice) in fc_choices() {
            let plan = plan_fc(0, &geom, 1, choice, &opts).expect("fc plan");
            rows.push(Fig8Row {
                c,
                kernel: label,
                macs_per_cycle: geom.macs() as f64 / plan.cycles as f64,
                cycles: plan.cycles,
                speedup_vs_1x2: baseline as f64 / plan.cycles as f64,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup(rows: &[Fig8Row], c: usize, kernel: &str) -> f64 {
        rows.iter()
            .find(|r| r.c == c && r.kernel == kernel)
            .expect("row exists")
            .speedup_vs_1x2
    }

    #[test]
    fn conv_shape_matches_paper() {
        let rows = conv_sweep();
        assert_eq!(rows.len(), 4 * 8);
        // 1:4 SW is slower than the 1x2 dense baseline on average
        // (paper: +23% cycles); at C=256 the sparse-aware tiling can
        // locally flip the sign.
        let sw14: f64 = [32, 64, 128, 256]
            .iter()
            .map(|&c| speedup(&rows, c, "sw-1:4"))
            .sum::<f64>()
            / 4.0;
        assert!(sw14 < 1.0, "avg sw-1:4 {sw14}");
        for &c in &[32, 64, 128, 256] {
            // Sparser is faster; ISA beats SW at every format.
            assert!(speedup(&rows, c, "sw-1:16") > speedup(&rows, c, "sw-1:8"));
            for nm in ["1:4", "1:8", "1:16"] {
                assert!(
                    speedup(&rows, c, &format!("isa-{nm}"))
                        > speedup(&rows, c, &format!("sw-{nm}")),
                    "C={c} {nm}"
                );
            }
            // PULP-NN beats 1x2; ISA 1:16 beats PULP-NN.
            assert!(speedup(&rows, c, "pulp-nn") > 1.0);
            assert!(speedup(&rows, c, "isa-1:16") > speedup(&rows, c, "pulp-nn"));
        }
        // Paper: 1:16 SW ~2.6x over 1x2 on average; ours within band.
        let avg: f64 = [32, 64, 128, 256]
            .iter()
            .map(|&c| speedup(&rows, c, "sw-1:16"))
            .sum::<f64>()
            / 4.0;
        assert!((1.8..3.6).contains(&avg), "avg 1:16 SW speedup {avg}");
    }

    #[test]
    fn fc_shape_matches_paper() {
        let rows = fc_sweep();
        assert_eq!(rows.len(), 4 * 7);
        for &c in &[256, 512, 1024, 2048] {
            assert!(speedup(&rows, c, "sw-1:16") > speedup(&rows, c, "sw-1:8"));
            assert!(speedup(&rows, c, "isa-1:8") > speedup(&rows, c, "sw-1:8"));
        }
        // SW sparse FC at 1:4 hovers around the dense baseline (paper:
        // +2% on average thanks to fewer weight loads on memory-bound
        // layers; our DMA model reproduces the parity, and `fig8 fc`
        // prints the per-C rows, see DESIGN.md's experiment index).
        let sw14: f64 = [256, 512, 1024, 2048]
            .iter()
            .map(|&c| speedup(&rows, c, "sw-1:4"))
            .sum::<f64>()
            / 4.0;
        assert!((0.85..1.2).contains(&sw14), "avg sw-1:4 FC {sw14}");
        let isa14: f64 = [256, 512, 1024, 2048]
            .iter()
            .map(|&c| speedup(&rows, c, "isa-1:4"))
            .sum::<f64>()
            / 4.0;
        assert!(
            (1.2..2.6).contains(&isa14),
            "avg ISA 1:4 FC speedup {isa14}"
        );
    }
}
