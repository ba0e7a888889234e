//! Property tests over the per-channel variable-sparsity extension
//! (paper future work): format round trips, kernel bit-exactness vs the
//! reference, bulk/reference and analytic/emulated parity, and
//! assignment-policy invariants.

use nm_compiler::channelwise::conv_channel_sweep;
use nm_core::format::{ChannelNmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::ConvGeom;
use nm_integration::{random_i8, stalled_model};
use nm_isa::CostModel;
use nm_kernels::conv::per_channel::{conv_channel_mixed, ChannelConvJob, ChannelEngine};
use nm_kernels::conv::ConvJob;
use nm_kernels::layout::stage_conv_channelwise;
use nm_kernels::reference::conv_ref;
use nm_kernels::Ctx;
use nm_nn::prune::{assign_channel_patterns, channel_density};
use nm_platform::{Cluster, Scratchpad};
use proptest::prelude::*;

fn pattern_strategy() -> impl Strategy<Value = Option<Nm>> {
    prop_oneof![
        Just(None),
        Just(Some(Nm::ONE_OF_FOUR)),
        Just(Some(Nm::ONE_OF_EIGHT)),
        Just(Some(Nm::ONE_OF_SIXTEEN)),
    ]
}

fn engine_strategy() -> impl Strategy<Value = ChannelEngine> {
    prop_oneof![Just(ChannelEngine::Software), Just(ChannelEngine::Isa)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn channel_format_round_trips(
        patterns in prop::collection::vec(pattern_strategy(), 1..8),
        blocks16 in 1usize..4,
        seed in 1u64..10_000,
        duplicated in any::<bool>(),
    ) {
        let rows = patterns.len();
        let cols = 16 * blocks16; // divisible by every ladder M
        let dense = random_i8(rows * cols, seed);
        let layout = if duplicated { OffsetLayout::Duplicated } else { OffsetLayout::Plain };
        let w = ChannelNmMatrix::prune_from_dense(&dense, rows, cols, &patterns, layout).unwrap();
        let round = w.to_dense();
        // Dense rows survive verbatim; sparse rows satisfy their pattern.
        for (r, &p) in patterns.iter().enumerate() {
            let row = &round[r * cols..(r + 1) * cols];
            match p {
                None => prop_assert_eq!(row, &dense[r * cols..(r + 1) * cols]),
                Some(nm) => {
                    prop_assert!(nm_core::sparsity::check_pattern(row, 1, cols, nm).is_ok());
                }
            }
        }
        // Re-packing the pruned dense matrix is the identity.
        let again = ChannelNmMatrix::from_dense(&round, rows, cols, &patterns, layout).unwrap();
        prop_assert_eq!(again.to_dense(), round);
        // Memory never exceeds dense.
        prop_assert!(w.memory_bits_nominal() <= rows * cols * 8);
        prop_assert!(w.density() <= 1.0 + 1e-12);
    }

    // Up to 19 channels, so the bulk tier's lane sweep reaches its
    // 8-channel epilogue groups (and the bytewise channels past them)
    // with different pattern lengths inside one group.
    #[test]
    fn per_channel_kernel_is_bit_exact_and_cycle_deterministic(
        patterns in prop::collection::vec(pattern_strategy(), 2..20),
        engine in engine_strategy(),
        img in 4usize..7,
        seed in 1u64..10_000,
    ) {
        let k = patterns.len();
        let geom = ConvGeom::square(16, k, img, 3, 1, 1).unwrap();
        let layout = match engine {
            ChannelEngine::Software => OffsetLayout::Plain,
            ChannelEngine::Isa => OffsetLayout::Duplicated,
        };
        let input = random_i8(geom.input_elems(), seed);
        let dense = random_i8(geom.weight_elems(), seed ^ 0x5555);
        let w = ChannelNmMatrix::prune_from_dense(
            &dense, geom.k, geom.patch_len(), &patterns, layout).unwrap();
        let pruned = w.to_dense();
        let rq = Requant::for_dot_len(geom.patch_len() / 8);
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let (bufs, row_values, row_offsets) =
            stage_conv_channelwise(&mut l1, &geom, &input, &w, 4).unwrap();
        let job = ChannelConvJob {
            conv: ConvJob { geom, requant: rq, bufs },
            patterns,
            row_values,
            row_offsets,
        };
        for costs in [CostModel::default(), stalled_model()] {
            let cluster = Cluster::new(4, costs);
            let (mut reference, mut bulk) = (l1.clone(), l1.clone());
            let stats =
                conv_channel_mixed(&mut Ctx::Mem(&mut reference), &job, &cluster, engine).unwrap();
            let got: Vec<i8> = (0..geom.output_elems() as u32)
                .map(|i| nm_isa::Memory::load_i8(&reference, bufs.output + i))
                .collect();
            prop_assert_eq!(got, conv_ref(&geom, &input, &pruned, rq));
            let analytic = conv_channel_mixed(&mut Ctx::Analytic, &job, &cluster, engine).unwrap();
            prop_assert_eq!(&analytic, &stats);
            // The bulk tier, from a clone of the same staging: the whole
            // scratchpad and every statistic equal the reference run's.
            let bulk_stats =
                conv_channel_mixed(&mut Ctx::MemBulk(&mut bulk), &job, &cluster, engine).unwrap();
            prop_assert!(bulk.bytes() == reference.bytes(), "bulk scratchpad diverged");
            prop_assert_eq!(bulk_stats, stats);
        }
    }

    #[test]
    fn fc_per_channel_kernel_is_bit_exact_and_cycle_deterministic(
        patterns in prop::collection::vec(pattern_strategy(), 2..10),
        blocks16 in 1usize..4,
        seed in 1u64..10_000,
    ) {
        use nm_kernels::fc::per_channel::{fc_channel_mixed, ChannelFcJob};
        use nm_kernels::fc::FcJob;
        use nm_kernels::layout::stage_fc_channelwise;
        use nm_kernels::reference::fc_ref;
        use nm_core::FcGeom;

        let geom = FcGeom::new(16 * blocks16, patterns.len()).unwrap();
        let input = random_i8(geom.c, seed ^ 0x33);
        let dense = random_i8(geom.weight_elems(), seed);
        let w = ChannelNmMatrix::prune_from_dense(
            &dense, geom.k, geom.c, &patterns, OffsetLayout::Plain).unwrap();
        let pruned = w.to_dense();
        let rq = Requant::for_dot_len(geom.c / 8);
        let cluster = Cluster::new(4, CostModel::default());
        let mut l1 = Scratchpad::new("l1", 256 * 1024);
        let (bufs, row_values, row_offsets) =
            stage_fc_channelwise(&mut l1, &geom, &input, &w).unwrap();
        let job = ChannelFcJob {
            fc: FcJob { geom, requant: rq, bufs },
            patterns,
            row_values,
            row_offsets,
        };
        let stats = fc_channel_mixed(&mut Ctx::Mem(&mut l1), &job, &cluster).unwrap();
        let got: Vec<i8> = (0..geom.k as u32)
            .map(|i| nm_isa::Memory::load_i8(&l1, bufs.output + i))
            .collect();
        prop_assert_eq!(got, fc_ref(&geom, &input, &pruned, rq));
        let analytic = fc_channel_mixed(&mut Ctx::Analytic, &job, &cluster).unwrap();
        prop_assert_eq!(stats.cycles(), analytic.cycles());
    }

    #[test]
    fn assignment_respects_target_and_keeps_more_mass_than_uniform(
        rows in 4usize..24,
        blocks16 in 1usize..4,
        target_pct in 10u32..100,
        seed in 1u64..10_000,
    ) {
        let cols = 16 * blocks16;
        let dense = random_i8(rows * cols, seed);
        let target = f64::from(target_pct) / 100.0;
        let patterns = assign_channel_patterns(&dense, rows, cols, target).unwrap();
        let density = channel_density(&patterns);
        // The greedy stops at the first assignment at or below the target
        // unless even all-1:16 cannot reach it.
        prop_assert!(density <= target + 1e-9 || (density - 1.0 / 16.0).abs() < 1e-9);
        // Tightening the target never increases density.
        let tighter = assign_channel_patterns(&dense, rows, cols, target / 2.0).unwrap();
        prop_assert!(channel_density(&tighter) <= density + 1e-9);
    }

    #[test]
    fn sweep_cycles_bounded_by_uniform_endpoints(
        img in 4usize..8,
        k4 in 1usize..4,
        seed in 1u64..10_000,
    ) {
        let geom = ConvGeom::square(16, 4 * k4, img, 3, 1, 1).unwrap();
        let dense = random_i8(geom.weight_elems(), seed);
        let cluster = Cluster::new(8, CostModel::default());
        let points = conv_channel_sweep(
            &geom, &dense, ChannelEngine::Isa, &cluster, &[1.0, 0.5, 1.0 / 16.0]).unwrap();
        // Dense endpoint: all channels dense; sparsest: all 1:16.
        prop_assert_eq!(points[0].histogram[0], geom.k);
        prop_assert_eq!(points[2].histogram[3], geom.k);
        // Intermediate point sits between the endpoints in latency.
        prop_assert!(points[2].cycles <= points[1].cycles);
        prop_assert!(points[1].cycles <= points[0].cycles.max(points[1].cycles));
        // Mass is monotone along the sweep.
        prop_assert!(points[1].mass_kept <= points[0].mass_kept + 1e-12);
        prop_assert!(points[2].mass_kept <= points[1].mass_kept + 1e-12);
    }
}
