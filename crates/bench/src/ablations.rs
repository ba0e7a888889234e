//! Ablations over the paper's design choices plus the future-work
//! mixed-sparsity studies (experiment ids A1–A3, F1, F3 in DESIGN.md).

use nm_compiler::channelwise::{conv_channel_sweep, ChannelSweepPoint};
use nm_compiler::mixed::{assign_mixed, MixedAssignment};
use nm_compiler::plan::{compile, Options};
use nm_compiler::Target;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, Result};
use nm_kernels::ablation::{im2col_strategy_cycles, Im2colStrategy};
use nm_models::resnet18_cifar;
use nm_nn::graph::OpKind;
use nm_nn::prune::{prune_graph, resnet_policy};
use nm_platform::Cluster;

/// A1 — Sec. 4.1.2 activation-loading strategies on a representative
/// convolution. Returns `(strategy, cycles)` rows per pattern.
pub fn im2col_strategies() -> Result<Vec<(String, &'static str, u64)>> {
    let cluster = Cluster::new(8, nm_isa::CostModel::default());
    let mut rows = Vec::new();
    for nm in Nm::KERNEL_PATTERNS {
        let geom = ConvGeom::square(nm.m() * 8, 64, 8, 3, 1, 1)?;
        for s in Im2colStrategy::ALL {
            let cycles = im2col_strategy_cycles(&geom, nm, s, &cluster)?;
            rows.push((nm.to_string(), s.name(), cycles));
        }
    }
    Ok(rows)
}

/// A2 — sparse-aware tiling (Sec. 4.4(2)): for every sparsified conv
/// layer of a pruned ResNet18, compare cycles when the tiling engine
/// budgets the *compressed* weight bytes against tiles sized as if the
/// weights were dense (the un-modified MATCH engine), summed over the
/// sparse layers.
///
/// # Errors
/// Propagates compilation errors.
pub fn tiling_awareness(seed: u64) -> Result<Vec<(String, u64, u64)>> {
    use nm_compiler::plan::{plan_conv, plan_conv_with_tiling};
    use nm_compiler::tiling::tile_conv;
    use nm_compiler::KernelChoice;
    let mut rows = Vec::new();
    for nm in [Nm::ONE_OF_FOUR, Nm::ONE_OF_EIGHT] {
        let mut g = resnet18_cifar(100, seed)?;
        prune_graph(&mut g, nm, resnet_policy(nm))?;
        let opts = Options::new(Target::SparseIsa);
        let (mut aware, mut naive) = (0u64, 0u64);
        for (id, node) in g.nodes().iter().enumerate() {
            let OpKind::Conv2d(l) = &node.op else {
                continue;
            };
            if l.detect_sparsity() != Some(nm) {
                continue;
            }
            let choice = KernelChoice::ConvSparseIsa(nm);
            aware += plan_conv(id, &l.geom, choice, &opts)?.cycles;
            // Dense-bits tiler: size tiles for the dense footprint, run
            // the sparse kernel on them.
            let dense_tiling = tile_conv(
                &l.geom,
                &KernelChoice::ConvDense1x2,
                opts.l1_budget,
                opts.cores,
            )?;
            naive += plan_conv_with_tiling(id, &l.geom, choice, &opts, dense_tiling)?.cycles;
        }
        rows.push((nm.to_string(), aware, naive));
    }
    Ok(rows)
}

/// One A3 row: `(pattern, interleaved cycles, split cycles, interleaved
/// transactions, split transactions)`.
pub type LayoutRow = (String, u64, u64, u64, u64);

/// A3 — interleaved vs split weight/offset DMA layout on a pruned
/// ResNet18.
///
/// # Errors
/// Propagates compilation errors.
pub fn layout_interleaving(seed: u64) -> Result<Vec<LayoutRow>> {
    let mut rows = Vec::new();
    for nm in Nm::KERNEL_PATTERNS {
        let mut g = resnet18_cifar(100, seed)?;
        prune_graph(&mut g, nm, resnet_policy(nm))?;
        let mut opts = Options::new(Target::SparseIsa);
        let inter = compile(&g, &opts)?;
        opts.interleaved_weights = false;
        let split = compile(&g, &opts)?;
        let t = |r: &nm_compiler::ModelReport| {
            r.layers
                .iter()
                .map(|l| l.weight_dma_transactions)
                .sum::<u64>()
        };
        rows.push((
            nm.to_string(),
            inter.total_cycles(),
            split.total_cycles(),
            t(&inter),
            t(&split),
        ));
    }
    Ok(rows)
}

/// F1 — per-layer mixed sparsity on ResNet18 under density budgets.
///
/// # Errors
/// Propagates planning errors.
pub fn mixed_sparsity(seed: u64, budgets: &[f64]) -> Result<Vec<(f64, MixedAssignment)>> {
    let g = resnet18_cifar(100, seed)?;
    let opts = Options::new(Target::SparseIsa);
    budgets
        .iter()
        .map(|&b| {
            let a = assign_mixed(&g, &opts, b, |_, op| {
                matches!(op, OpKind::Conv2d(l) if !l.geom.is_pointwise() && l.geom.c % 16 == 0)
            })?;
            Ok((b, a))
        })
        .collect()
}

/// F3 — per-channel variable sparsity on a representative ResNet18
/// block convolution (C = K = 128, 8×8 spatial, 3×3 filters), for both
/// kernel engines. Returns `(engine, sweep points)` rows.
///
/// # Errors
/// Propagates assignment/packing/kernel errors.
pub fn channel_sparsity(
    seed: u64,
    targets: &[f64],
) -> Result<Vec<(&'static str, Vec<ChannelSweepPoint>)>> {
    use nm_kernels::conv::per_channel::ChannelEngine;
    let geom = ConvGeom::square(128, 128, 8, 3, 1, 1)?;
    let mut rng = nm_nn::rng::XorShift::new(seed);
    let weights = rng.fill_weights(geom.weight_elems(), 40);
    let cluster = Cluster::new(8, nm_isa::CostModel::default());
    let mut rows = Vec::new();
    for (name, engine) in [("sw", ChannelEngine::Software), ("isa", ChannelEngine::Isa)] {
        rows.push((
            name,
            conv_channel_sweep(&geom, &weights, engine, &cluster, targets)?,
        ));
    }
    Ok(rows)
}

/// S1 — cost-model sensitivity: the qualitative Fig. 8 result must not
/// depend on the simulator's calibration constants. For each perturbed
/// [`nm_isa::CostModel`], returns `(variant, pulp-nn, sw 1:8, isa 1:8)`
/// speedups over the dense 1×2 kernel on the Fig. 8 conv layer (C=128).
///
/// # Errors
/// Propagates kernel validation errors.
pub fn cost_sensitivity() -> Result<Vec<(String, f64, f64, f64)>> {
    use nm_isa::CostModel;
    use nm_kernels::conv::dense::{conv_dense_1x2, conv_dense_4x2};
    use nm_kernels::conv::sparse_isa::conv_sparse_isa;
    use nm_kernels::conv::sparse_sw::{conv_sparse_sw, SparseConvJob};
    use nm_kernels::conv::ConvJob;
    use nm_kernels::Ctx;

    let geom = ConvGeom::square(128, 256, 8, 3, 1, 1)?;
    let base = CostModel::VEGA;
    let variants: Vec<(String, CostModel)> = vec![
        ("vega (default)".into(), base),
        (
            "load_stall=1".into(),
            CostModel {
                load_stall: 1,
                ..base
            },
        ),
        (
            "branch_penalty=0".into(),
            CostModel {
                branch_taken_penalty: 0,
                ..base
            },
        ),
        (
            "branch_penalty=4".into(),
            CostModel {
                branch_taken_penalty: 4,
                ..base
            },
        ),
        (
            "outer_loop=5".into(),
            CostModel {
                outer_loop_instrs: 5,
                ..base
            },
        ),
        (
            "kernel_overhead=120".into(),
            CostModel {
                kernel_overhead_instrs: 120,
                ..base
            },
        ),
        (
            "barrier=100".into(),
            CostModel {
                barrier_cycles: 100,
                ..base
            },
        ),
    ];
    let mut rows = Vec::with_capacity(variants.len());
    for (name, costs) in variants {
        let cluster = Cluster::new(8, costs);
        let job = ConvJob {
            geom,
            requant: Default::default(),
            bufs: Default::default(),
        };
        let nm = Nm::ONE_OF_EIGHT;
        let sparse = SparseConvJob { conv: job, nm };
        let d1 = conv_dense_1x2(&mut Ctx::Analytic, &job, &cluster)?.cycles() as f64;
        let d4 = conv_dense_4x2(&mut Ctx::Analytic, &job, &cluster)?.cycles() as f64;
        let sw = conv_sparse_sw(&mut Ctx::Analytic, &sparse, &cluster)?.cycles() as f64;
        let isa = conv_sparse_isa(&mut Ctx::Analytic, &sparse, &cluster)?.cycles() as f64;
        rows.push((name, d1 / d4, d1 / sw, d1 / isa));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimate_im2col_wins_a1() {
        let rows = im2col_strategies().unwrap();
        for nm in Nm::KERNEL_PATTERNS {
            let get = |s: &str| {
                rows.iter()
                    .find(|(p, n, _)| p == &nm.to_string() && *n == s)
                    .unwrap()
                    .2
            };
            assert!(get("decimate-im2col") < get("sparse-im2col"));
            assert!(get("decimate-im2col") < get("dma-copy"));
        }
    }

    #[test]
    fn qualitative_ordering_survives_cost_perturbations_s1() {
        // The reproduction's load-bearing claim: who wins and roughly by
        // how much is an instruction-count property, not a calibration
        // artifact. Every perturbed model keeps the Sec. 5.2 ordering
        // (ISA > SW 1:8 > PULP-NN > 1x2) inside a stable band.
        for (name, pulp, sw, isa) in cost_sensitivity().unwrap() {
            assert!(pulp > 1.1 && pulp < 1.6, "{name}: pulp-nn {pulp}");
            assert!(sw > pulp, "{name}: sw {sw} <= pulp {pulp}");
            assert!(isa > sw, "{name}: isa {isa} <= sw {sw}");
            assert!(sw > 1.4 && sw < 2.6, "{name}: sw {sw}");
            assert!(isa > 2.3 && isa < 4.2, "{name}: isa {isa}");
        }
    }

    #[test]
    fn channel_sparsity_isa_dominates_sw_f3() {
        let rows = channel_sparsity(7, &[1.0, 0.25, 1.0 / 16.0]).unwrap();
        let sw = &rows.iter().find(|(n, _)| *n == "sw").unwrap().1;
        let isa = &rows.iter().find(|(n, _)| *n == "isa").unwrap().1;
        // Same assignment policy ⇒ same density column; ISA at least as
        // fast on every sparse point.
        for (a, b) in sw.iter().zip(isa.iter()) {
            assert!((a.density - b.density).abs() < 1e-12);
            if a.density < 1.0 {
                assert!(b.cycles <= a.cycles, "isa {} vs sw {}", b.cycles, a.cycles);
            }
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "compiles ResNet18 several times; runs in release, or in debug with --ignored"
    )]
    fn sparse_aware_tiling_helps_a2() {
        for (_, aware, naive) in tiling_awareness(1).unwrap() {
            assert!(aware <= naive);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "compiles ResNet18 several times; runs in release, or in debug with --ignored"
    )]
    fn interleaving_halves_transactions_a3() {
        for (_, inter_c, split_c, inter_t, split_t) in layout_interleaving(1).unwrap() {
            // Sparse layers double their weight transactions when split;
            // dense fallback layers (pointwise convs, head) have no
            // offset stream and stay at one either way.
            assert!(
                split_t > inter_t && split_t <= 2 * inter_t,
                "{inter_t} vs {split_t}"
            );
            assert!(inter_c <= split_c);
        }
    }
}
