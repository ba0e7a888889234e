//! Parity tests for the bulk fast path (`Ctx::MemBulk`): against the
//! per-instruction reference (`Ctx::Mem`) every kernel must be
//! **bit-exact on the whole scratchpad** and **exact on every statistic**
//! (cycles, instret, per-class counts, MACs) — for the default cost model
//! *and* a fully stalled one, since the fast path batches stall cycles it
//! never individually pays. `Ctx::Analytic` charges the bulk path's own
//! instruction blocks without touching memory, so its whole statistics
//! must equal the reference's too, under both cost models.
//!
//! Coverage per kernel: {1:4, 1:8, 1:16} × {chunk-only, chunk+tail,
//! tiny/tail-only} geometries, plus the dense baselines, the
//! per-channel mixed kernels, the related-work baseline formats
//! (CSR / dCSR / blockwise, across sparsities and with empty rows) and
//! the end-to-end compiled executor.

use nm_core::format::{
    BlockwiseMatrix, ChannelNmMatrix, CsrMatrix, DcsrMatrix, NmMatrix, OffsetLayout,
};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, FcGeom};
use nm_integration::stalled_model;
use nm_isa::CostModel;
use nm_kernels::baseline::blockwise::{fc_blockwise, stage_blockwise_fc};
use nm_kernels::baseline::csr::{fc_csr, stage_csr_fc};
use nm_kernels::baseline::dcsr::{fc_dcsr, stage_dcsr_fc};
use nm_kernels::conv::dense::{conv_dense_1x2, conv_dense_4x2};
use nm_kernels::conv::per_channel::{conv_channel_mixed, ChannelConvJob, ChannelEngine};
use nm_kernels::conv::sparse_isa::conv_sparse_isa;
use nm_kernels::conv::sparse_sw::{conv_sparse_sw, SparseConvJob};
use nm_kernels::conv::{im2col_only, ConvJob};
use nm_kernels::fc::dense::fc_dense;
use nm_kernels::fc::per_channel::{fc_channel_mixed, ChannelFcJob};
use nm_kernels::fc::sparse_isa::fc_sparse_isa;
use nm_kernels::fc::sparse_sw::{fc_sparse_sw, SparseFcJob};
use nm_kernels::fc::FcJob;
use nm_kernels::layout::{
    stage_conv_channelwise, stage_conv_dense, stage_conv_sparse, stage_fc_channelwise,
    stage_fc_dense, stage_fc_sparse,
};
use nm_kernels::testdata::{random_data, random_sparse_data};
use nm_kernels::{Ctx, KernelStats};
use nm_platform::{Cluster, Scratchpad};

/// Runs `kernel` on the reference and bulk paths over clones of the same
/// staged scratchpad and asserts full-memory bit-exactness plus exact
/// stats equality; returns the (shared) stats for further checks.
fn assert_mem_parity<F>(l1: &Scratchpad, costs: CostModel, cores: usize, kernel: F) -> KernelStats
where
    F: Fn(&mut Ctx<'_>, &Cluster) -> KernelStats,
{
    let cluster = Cluster::new(cores, costs);
    let mut l1_ref = l1.clone();
    let mut l1_bulk = l1.clone();
    let reference = kernel(&mut Ctx::Mem(&mut l1_ref), &cluster);
    let bulk = kernel(&mut Ctx::MemBulk(&mut l1_bulk), &cluster);
    assert_eq!(
        l1_ref.bytes(),
        l1_bulk.bytes(),
        "scratchpad contents diverged"
    );
    assert_eq!(reference, bulk, "stats diverged");
    bulk
}

/// [`assert_mem_parity`] under the default and the stalled cost model,
/// plus the analytic cross-check: charge-only mode must reproduce the
/// reference's whole `KernelStats` (cycles, instret, MACs, per-class
/// counts per core) under both models.
fn assert_full_parity<F>(l1: &Scratchpad, cores: usize, kernel: F)
where
    F: Fn(&mut Ctx<'_>, &Cluster) -> KernelStats,
{
    for costs in [CostModel::default(), stalled_model()] {
        let emulated = assert_mem_parity(l1, costs, cores, &kernel);
        let analytic = kernel(&mut Ctx::Analytic, &Cluster::new(cores, costs));
        assert_eq!(
            emulated, analytic,
            "analytic stats diverged under {costs:?}"
        );
    }
}

/// FC geometries per pattern: chunk-only, chunk + tail, tail-only tiny.
fn fc_geoms(nm: Nm) -> [FcGeom; 3] {
    let m = nm.m();
    [
        FcGeom::new(8 * m, 6).unwrap(), // nz = 8: chunks only
        FcGeom::new(5 * m, 4).unwrap(), // nz = 5: chunk + tail
        FcGeom::new(m, 2).unwrap(),     // nz = 1: tail only
    ]
}

/// Conv geometries per pattern: chunk-only (even positions), chunk +
/// tail (odd positions, single-patch fallback), tiny tail-only.
fn conv_geoms(nm: Nm) -> [ConvGeom; 3] {
    let m = nm.m();
    [
        ConvGeom::square(4 * m, 4, 4, 1, 1, 0).unwrap(), // nz = 4: chunks only
        ConvGeom::square(m, 3, 5, 3, 1, 1).unwrap(),     // nz = 9: chunks + tail
        ConvGeom::square(m, 1, 3, 1, 1, 0).unwrap(),     // nz = 1: tail only, odd positions
    ]
}

#[test]
fn fc_dense_bulk_parity() {
    for geom in [
        FcGeom::new(64, 16).unwrap(),
        FcGeom::new(30, 7).unwrap(),
        FcGeom::new(5, 1).unwrap(),
    ] {
        let input = random_data(geom.c, 3);
        let weights = random_data(geom.weight_elems(), 17);
        let rq = Requant::for_dot_len(geom.c);
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_fc_dense(&mut l1, &geom, &input, &weights).unwrap();
        let job = FcJob {
            geom,
            requant: rq,
            bufs,
        };
        assert_full_parity(&l1, 4, |ctx, cluster| fc_dense(ctx, &job, cluster).unwrap());
    }
}

#[test]
fn fc_sparse_sw_bulk_parity() {
    for nm in Nm::KERNEL_PATTERNS {
        for geom in fc_geoms(nm) {
            let input = random_data(geom.c, 9);
            let dense = random_data(geom.weight_elems(), 23);
            let w = NmMatrix::prune_from_dense(&dense, geom.k, geom.c, nm, OffsetLayout::Plain)
                .unwrap();
            let rq = Requant::for_dot_len((geom.c / nm.m()).max(1));
            let mut l1 = Scratchpad::new("l1", 512 * 1024);
            let bufs = stage_fc_sparse(&mut l1, &geom, &input, &w).unwrap();
            let job = SparseFcJob {
                fc: FcJob {
                    geom,
                    requant: rq,
                    bufs,
                },
                nm,
            };
            assert_full_parity(&l1, 4, |ctx, cluster| {
                fc_sparse_sw(ctx, &job, cluster).unwrap()
            });
        }
    }
}

#[test]
fn fc_sparse_isa_bulk_parity() {
    for nm in Nm::KERNEL_PATTERNS {
        for geom in fc_geoms(nm) {
            let input = random_data(geom.c, 31);
            let dense = random_data(geom.weight_elems(), 41);
            let w =
                NmMatrix::prune_from_dense(&dense, geom.k, geom.c, nm, OffsetLayout::Interleaved)
                    .unwrap();
            let rq = Requant::for_dot_len((geom.c / nm.m()).max(1));
            let mut l1 = Scratchpad::new("l1", 512 * 1024);
            let bufs = stage_fc_sparse(&mut l1, &geom, &input, &w).unwrap();
            let job = SparseFcJob {
                fc: FcJob {
                    geom,
                    requant: rq,
                    bufs,
                },
                nm,
            };
            assert_full_parity(&l1, 4, |ctx, cluster| {
                fc_sparse_isa(ctx, &job, cluster).unwrap()
            });
        }
    }
}

/// Geometry / sparsity grid for the three related-work baseline formats:
/// K = 7 leaves ragged per-core ranges on a 4-core cluster, and the
/// sparsities cover short deltas, escaped dCSR deltas and near-dense rows.
fn baseline_cases() -> Vec<(FcGeom, Vec<i8>)> {
    let geom = FcGeom::new(96, 7).unwrap();
    let mut cases: Vec<(FcGeom, Vec<i8>)> = [3usize, 8, 17]
        .iter()
        .map(|&keep| (geom, random_sparse_data(geom.weight_elems(), keep, 29)))
        .collect();
    // All-zero weights: every row empty on every format.
    cases.push((FcGeom::new(32, 5).unwrap(), vec![0i8; 32 * 5]));
    cases
}

#[test]
fn fc_csr_bulk_parity() {
    for (geom, dense) in baseline_cases() {
        let input = random_data(geom.c, 47);
        let w = CsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        let fc = FcJob {
            geom,
            requant: Requant::for_dot_len(12),
            bufs: Default::default(),
        };
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let job = stage_csr_fc(&mut l1, &fc, &input, &w).unwrap();
        assert_full_parity(&l1, 4, |ctx, cluster| fc_csr(ctx, &job, cluster).unwrap());
    }
}

#[test]
fn fc_dcsr_bulk_parity() {
    for (geom, dense) in baseline_cases() {
        let input = random_data(geom.c, 53);
        let w = DcsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        let fc = FcJob {
            geom,
            requant: Requant::for_dot_len(12),
            bufs: Default::default(),
        };
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let job = stage_dcsr_fc(&mut l1, &fc, &input, &w).unwrap();
        assert_full_parity(&l1, 4, |ctx, cluster| fc_dcsr(ctx, &job, cluster).unwrap());
    }
}

#[test]
fn fc_blockwise_bulk_parity() {
    let geom = FcGeom::new(96, 7).unwrap();
    for keep in [2usize, 8, 24] {
        let input = random_data(geom.c, 59);
        let dense = random_data(geom.weight_elems(), 61);
        let w = BlockwiseMatrix::prune_from_dense(&dense, geom.k, geom.c, 4, keep).unwrap();
        let fc = FcJob {
            geom,
            requant: Requant::for_dot_len(16),
            bufs: Default::default(),
        };
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let job = stage_blockwise_fc(&mut l1, &fc, &input, &w).unwrap();
        assert_full_parity(&l1, 4, |ctx, cluster| {
            fc_blockwise(ctx, &job, cluster).unwrap()
        });
    }
    // All-zero weights: every row keeps no blocks.
    let geom = FcGeom::new(32, 5).unwrap();
    let w =
        BlockwiseMatrix::from_dense(&vec![0i8; geom.weight_elems()], geom.k, geom.c, 4).unwrap();
    let fc = FcJob {
        geom,
        requant: Requant::IDENTITY,
        bufs: Default::default(),
    };
    let mut l1 = Scratchpad::new("l1", 64 * 1024);
    let input = random_data(geom.c, 67);
    let job = stage_blockwise_fc(&mut l1, &fc, &input, &w).unwrap();
    assert_full_parity(&l1, 4, |ctx, cluster| {
        fc_blockwise(ctx, &job, cluster).unwrap()
    });
}

#[test]
fn conv_dense_bulk_parity() {
    for geom in [
        ConvGeom::square(8, 4, 6, 3, 1, 1).unwrap(),
        ConvGeom::square(3, 9, 5, 3, 1, 1).unwrap(), // C tail + K % 4, odd positions
        ConvGeom::square(4, 2, 7, 3, 2, 1).unwrap(), // strided
    ] {
        let input = random_data(geom.input_elems(), 7);
        let weights = random_data(geom.weight_elems(), 13);
        let rq = Requant::for_dot_len(geom.patch_len());
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_conv_dense(&mut l1, &geom, &input, &weights, 4).unwrap();
        let job = ConvJob {
            geom,
            requant: rq,
            bufs,
        };
        assert_full_parity(&l1, 4, |ctx, cluster| {
            conv_dense_1x2(ctx, &job, cluster).unwrap()
        });
        assert_full_parity(&l1, 4, |ctx, cluster| {
            conv_dense_4x2(ctx, &job, cluster).unwrap()
        });
    }
}

#[test]
fn conv_sparse_sw_bulk_parity() {
    for nm in Nm::KERNEL_PATTERNS {
        for geom in conv_geoms(nm) {
            let input = random_data(geom.input_elems(), 3);
            let dense = random_data(geom.weight_elems(), 11);
            let w = NmMatrix::prune_from_dense(
                &dense,
                geom.k,
                geom.patch_len(),
                nm,
                OffsetLayout::Plain,
            )
            .unwrap();
            let rq = Requant::for_dot_len((geom.patch_len() / nm.m()).max(1));
            let mut l1 = Scratchpad::new("l1", 512 * 1024);
            let bufs = stage_conv_sparse(&mut l1, &geom, &input, &w, 4).unwrap();
            let job = SparseConvJob {
                conv: ConvJob {
                    geom,
                    requant: rq,
                    bufs,
                },
                nm,
            };
            assert_full_parity(&l1, 4, |ctx, cluster| {
                conv_sparse_sw(ctx, &job, cluster).unwrap()
            });
        }
    }
}

#[test]
fn conv_sparse_isa_bulk_parity() {
    for nm in Nm::KERNEL_PATTERNS {
        for geom in conv_geoms(nm) {
            let input = random_data(geom.input_elems(), 21);
            let dense = random_data(geom.weight_elems(), 5);
            let w = NmMatrix::prune_from_dense(
                &dense,
                geom.k,
                geom.patch_len(),
                nm,
                OffsetLayout::Duplicated,
            )
            .unwrap();
            let rq = Requant::for_dot_len((geom.patch_len() / nm.m()).max(1));
            let mut l1 = Scratchpad::new("l1", 512 * 1024);
            let bufs = stage_conv_sparse(&mut l1, &geom, &input, &w, 4).unwrap();
            let job = SparseConvJob {
                conv: ConvJob {
                    geom,
                    requant: rq,
                    bufs,
                },
                nm,
            };
            assert_full_parity(&l1, 4, |ctx, cluster| {
                conv_sparse_isa(ctx, &job, cluster).unwrap()
            });
        }
    }
}

/// Geometries covering the im2col padding classes: overlapping patches
/// (stride < fx), disjoint ones (stride > fx, ox == 1, pointwise), and
/// padded edges up to fully padded rows (pad >= fx), where the lane
/// sweep's rows split differently per lane. C = 8 keeps `patch_len` a
/// multiple of 8 so the same grid serves the 1:8 sparse kernels.
fn padding_class_geoms() -> Vec<ConvGeom> {
    vec![
        ConvGeom::square(8, 4, 7, 3, 2, 1).unwrap(), // strided, odd positions
        ConvGeom::square(8, 2, 4, 3, 1, 3).unwrap(), // pad >= fx: fully padded edges
        ConvGeom::square(8, 4, 6, 1, 1, 0).unwrap(), // pointwise: whole-row copies
        ConvGeom::new(8, 3, 3, 6, 3, 3, 1, 0).unwrap(), // ox == 1: a single column
        ConvGeom::square(8, 2, 9, 2, 3, 1).unwrap(), // stride > fx: disjoint patches
    ]
}

/// Single runs must stay bit-exact and stat-exact for every conv kernel
/// on the padding-class geometry grid — including under the stalled
/// cost model (exercised by `assert_full_parity`) and through the
/// per-channel mixed kernel.
#[test]
fn conv_padding_class_parity() {
    let nm = Nm::ONE_OF_EIGHT;
    for geom in padding_class_geoms() {
        let input = random_data(geom.input_elems(), 73);
        let dense = random_data(geom.weight_elems(), 79);
        let rq = Requant::for_dot_len(geom.patch_len());

        // Dense 1x2 and 4x2.
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_conv_dense(&mut l1, &geom, &input, &dense, 4).unwrap();
        let job = ConvJob {
            geom,
            requant: rq,
            bufs,
        };
        assert_full_parity(&l1, 4, |ctx, cluster| {
            conv_dense_1x2(ctx, &job, cluster).unwrap()
        });
        assert_full_parity(&l1, 4, |ctx, cluster| {
            conv_dense_4x2(ctx, &job, cluster).unwrap()
        });

        // Sparse software and ISA kernels at 1:8.
        for layout in [OffsetLayout::Plain, OffsetLayout::Duplicated] {
            let w =
                NmMatrix::prune_from_dense(&dense, geom.k, geom.patch_len(), nm, layout).unwrap();
            let rq = Requant::for_dot_len((geom.patch_len() / nm.m()).max(1));
            let mut l1 = Scratchpad::new("l1", 512 * 1024);
            let bufs = stage_conv_sparse(&mut l1, &geom, &input, &w, 4).unwrap();
            let job = SparseConvJob {
                conv: ConvJob {
                    geom,
                    requant: rq,
                    bufs,
                },
                nm,
            };
            match layout {
                OffsetLayout::Plain => assert_full_parity(&l1, 4, |ctx, cluster| {
                    conv_sparse_sw(ctx, &job, cluster).unwrap()
                }),
                _ => assert_full_parity(&l1, 4, |ctx, cluster| {
                    conv_sparse_isa(ctx, &job, cluster).unwrap()
                }),
            }
        }

        // Per-channel mixed (dense + 1:8 rows share the im2col), both
        // engines.
        let patterns: Vec<_> = (0..geom.k)
            .map(|i| if i % 2 == 0 { None } else { Some(nm) })
            .collect();
        for (engine, layout) in [
            (ChannelEngine::Software, OffsetLayout::Plain),
            (ChannelEngine::Isa, OffsetLayout::Duplicated),
        ] {
            let w = ChannelNmMatrix::prune_from_dense(
                &dense,
                geom.k,
                geom.patch_len(),
                &patterns,
                layout,
            )
            .unwrap();
            let rq = Requant::for_dot_len((geom.patch_len() / nm.m()).max(1));
            let mut l1 = Scratchpad::new("l1", 512 * 1024);
            let (bufs, row_values, row_offsets) =
                stage_conv_channelwise(&mut l1, &geom, &input, &w, 4).unwrap();
            let job = ChannelConvJob {
                conv: ConvJob {
                    geom,
                    requant: rq,
                    bufs,
                },
                patterns: patterns.clone(),
                row_values,
                row_offsets,
            };
            assert_full_parity(&l1, 4, |ctx, cluster| {
                conv_channel_mixed(ctx, &job, cluster, engine).unwrap()
            });
        }
    }
}

/// The im2col-only workload (bulk path materializes nothing but each
/// core's final patch buffers) must still leave the scratchpad
/// bit-identical to the reference's per-position rebuilds, with exact
/// stats, on every geometry class and core count — including a cluster
/// larger than the position count (cores with empty ranges never touch
/// their buffers on either path).
#[test]
fn im2col_only_bulk_parity() {
    for geom in padding_class_geoms() {
        let input = random_data(geom.input_elems(), 83);
        let weights = random_data(geom.weight_elems(), 89);
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_conv_dense(&mut l1, &geom, &input, &weights, 16).unwrap();
        let job = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs,
        };
        for cores in [1, 4, 16] {
            assert_full_parity(&l1, cores, |ctx, cluster| {
                im2col_only("im2col-test", ctx, &job, cluster)
            });
        }
    }
}

#[test]
fn per_channel_mixed_bulk_parity() {
    let ladder = [
        None,
        Some(Nm::ONE_OF_FOUR),
        None,
        Some(Nm::ONE_OF_EIGHT),
        Some(Nm::ONE_OF_SIXTEEN),
    ];

    // FC: C = 80 produces chunk+tail rows at every pattern.
    let geom = FcGeom::new(80, 7).unwrap();
    let patterns: Vec<_> = (0..geom.k).map(|i| ladder[i % ladder.len()]).collect();
    let input = random_data(geom.c, 13);
    let dense = random_data(geom.weight_elems(), 29);
    let w =
        ChannelNmMatrix::prune_from_dense(&dense, geom.k, geom.c, &patterns, OffsetLayout::Plain)
            .unwrap();
    let rq = Requant::for_dot_len(geom.c / 8);
    let mut l1 = Scratchpad::new("l1", 256 * 1024);
    let (bufs, row_values, row_offsets) = stage_fc_channelwise(&mut l1, &geom, &input, &w).unwrap();
    let job = ChannelFcJob {
        fc: FcJob {
            geom,
            requant: rq,
            bufs,
        },
        patterns,
        row_values,
        row_offsets,
    };
    assert_full_parity(&l1, 4, |ctx, cluster| {
        fc_channel_mixed(ctx, &job, cluster).unwrap()
    });

    // Conv, both engines. K = 12: the lane sweep's blocked epilogue
    // takes channels 0-7 (mixed patterns inside one group) and stores
    // channels 8-11 one byte at a time.
    for engine in [ChannelEngine::Software, ChannelEngine::Isa] {
        let geom = ConvGeom::square(16, 12, 5, 3, 1, 1).unwrap();
        let patterns: Vec<_> = (0..geom.k).map(|i| ladder[i % ladder.len()]).collect();
        let layout = match engine {
            ChannelEngine::Software => OffsetLayout::Plain,
            ChannelEngine::Isa => OffsetLayout::Duplicated,
        };
        let input = random_data(geom.input_elems(), 37);
        let dense = random_data(geom.weight_elems(), 43);
        let w =
            ChannelNmMatrix::prune_from_dense(&dense, geom.k, geom.patch_len(), &patterns, layout)
                .unwrap();
        let rq = Requant::for_dot_len(geom.patch_len() / 8);
        let mut l1 = Scratchpad::new("l1", 256 * 1024);
        let (bufs, row_values, row_offsets) =
            stage_conv_channelwise(&mut l1, &geom, &input, &w, 4).unwrap();
        let job = ChannelConvJob {
            conv: ConvJob {
                geom,
                requant: rq,
                bufs,
            },
            patterns,
            row_values,
            row_offsets,
        };
        assert_full_parity(&l1, 4, |ctx, cluster| {
            conv_channel_mixed(ctx, &job, cluster, engine).unwrap()
        });
    }
}

// Per-channel jobs built by `ChannelConvJob::new` / `ChannelFcJob::new`
// carry no row address tables: they are analytic-only. Both emulation
// tiers must reject them (and tables short of K entries) with
// `ShapeMismatch` instead of reading every channel from address 0, while
// the analytic path keeps accepting them.
#[test]
fn per_channel_mixed_rejects_missing_row_tables_on_both_tiers() {
    use nm_core::Error;
    let patterns = |k: usize| -> Vec<Option<Nm>> {
        (0..k)
            .map(|i| [None, Some(Nm::ONE_OF_EIGHT)][i % 2])
            .collect()
    };
    let cluster = Cluster::new(4, CostModel::default());

    let geom = ConvGeom::square(16, 6, 5, 3, 1, 1).unwrap();
    let w = ChannelNmMatrix::prune_from_dense(
        &random_data(geom.weight_elems(), 91),
        geom.k,
        geom.patch_len(),
        &patterns(geom.k),
        OffsetLayout::Plain,
    )
    .unwrap();
    let mut l1 = Scratchpad::new("l1", 256 * 1024);
    let input = random_data(geom.input_elems(), 93);
    let (bufs, row_values, row_offsets) =
        stage_conv_channelwise(&mut l1, &geom, &input, &w, cluster.n_cores()).unwrap();
    let conv = ConvJob {
        geom,
        requant: Requant::for_dot_len(geom.patch_len() / 8),
        bufs,
    };
    let bare = ChannelConvJob::new(conv, patterns(geom.k));
    let short = ChannelConvJob {
        row_values: row_values[1..].to_vec(),
        row_offsets,
        ..bare.clone()
    };
    for job in [&bare, &short] {
        for engine in [ChannelEngine::Software, ChannelEngine::Isa] {
            for bulk in [false, true] {
                let mut mem = l1.clone();
                let mut ctx = if bulk {
                    Ctx::MemBulk(&mut mem)
                } else {
                    Ctx::Mem(&mut mem)
                };
                let got = conv_channel_mixed(&mut ctx, job, &cluster, engine);
                assert!(
                    matches!(got, Err(Error::ShapeMismatch(_))),
                    "conv {engine:?} bulk={bulk}: {got:?}"
                );
            }
        }
    }
    assert!(conv_channel_mixed(&mut Ctx::Analytic, &bare, &cluster, ChannelEngine::Isa).is_ok());

    let geom = FcGeom::new(64, 6).unwrap();
    let w = ChannelNmMatrix::prune_from_dense(
        &random_data(geom.weight_elems(), 95),
        geom.k,
        geom.c,
        &patterns(geom.k),
        OffsetLayout::Plain,
    )
    .unwrap();
    let mut l1 = Scratchpad::new("l1", 256 * 1024);
    let (bufs, row_values, row_offsets) =
        stage_fc_channelwise(&mut l1, &geom, &random_data(geom.c, 97), &w).unwrap();
    let fc = FcJob {
        geom,
        requant: Requant::for_dot_len(geom.c / 8),
        bufs,
    };
    let bare = ChannelFcJob::new(fc, patterns(geom.k));
    let short = ChannelFcJob {
        row_values,
        row_offsets: row_offsets[1..].to_vec(),
        ..bare.clone()
    };
    for job in [&bare, &short] {
        for bulk in [false, true] {
            let mut mem = l1.clone();
            let mut ctx = if bulk {
                Ctx::MemBulk(&mut mem)
            } else {
                Ctx::Mem(&mut mem)
            };
            let got = fc_channel_mixed(&mut ctx, job, &cluster);
            assert!(
                matches!(got, Err(Error::ShapeMismatch(_))),
                "fc bulk={bulk}: {got:?}"
            );
        }
    }
    assert!(fc_channel_mixed(&mut Ctx::Analytic, &bare, &cluster).is_ok());
}

/// End to end: the compiled executor must produce identical outputs and
/// identical cycle totals on both emulation paths.
#[test]
fn compiled_executor_bulk_parity() {
    use nm_compiler::exec::run_emulated;
    use nm_compiler::{ExecTier, Options, Target};
    use nm_core::Tensor;
    use nm_integration::{make_exact_nm, random_i8};
    use nm_nn::layer::{ConvLayer, LinearLayer};
    use nm_nn::GraphBuilder;

    let nm = Nm::ONE_OF_EIGHT;
    let mut cw = random_i8(8 * 3 * 3 * 8, 61);
    make_exact_nm(&mut cw, 8, 3 * 3 * 8, nm);
    let conv = ConvLayer::new(
        ConvGeom::square(8, 8, 6, 3, 1, 1).unwrap(),
        cw,
        Requant::for_dot_len(3 * 3 * 8),
    )
    .unwrap();
    let mut fcw = random_i8(4 * (6 * 6 * 8), 67);
    make_exact_nm(&mut fcw, 4, 6 * 6 * 8, nm);
    let fc = LinearLayer::new(
        FcGeom::new(6 * 6 * 8, 4).unwrap(),
        fcw,
        Requant::for_dot_len(6 * 6 * 8),
    )
    .unwrap();
    let mut b = GraphBuilder::new(&[6, 6, 8]);
    let x = b.input();
    let x = b.conv(x, conv).unwrap();
    let x = b.relu(x).unwrap();
    let x = b.flatten(x).unwrap();
    let out = b.linear(x, fc).unwrap();
    let g = b.finish(out).unwrap();

    let input = Tensor::from_vec(&[6, 6, 8], random_i8(6 * 6 * 8, 71)).unwrap();
    for target in [Target::SparseSw, Target::SparseIsa, Target::DensePulpNn] {
        let fast = Options::new(target);
        assert_eq!(fast.tier, ExecTier::Bulk, "bulk tier is the default");
        let mut reference = Options::new(target);
        reference.tier = ExecTier::Reference;
        let fast_run = run_emulated(&g, &input, &fast).unwrap();
        let ref_run = run_emulated(&g, &input, &reference).unwrap();
        assert_eq!(fast_run.output, ref_run.output, "{target:?} outputs");
        assert_eq!(
            fast_run.matmul_compute_cycles, ref_run.matmul_compute_cycles,
            "{target:?} cycles"
        );
    }

    // A strided, heavily padded conv exercises the im2col padding
    // classes through the executor's tiling too.
    let mut cw = random_i8(4 * 3 * 3 * 8, 73);
    make_exact_nm(&mut cw, 4, 3 * 3 * 8, nm);
    let conv = ConvLayer::new(
        ConvGeom::square(8, 4, 7, 3, 2, 2).unwrap(),
        cw,
        Requant::for_dot_len(3 * 3 * 8),
    )
    .unwrap();
    let mut b = GraphBuilder::new(&[7, 7, 8]);
    let x = b.input();
    let out = b.conv(x, conv).unwrap();
    let g = b.finish(out).unwrap();
    let input = Tensor::from_vec(&[7, 7, 8], random_i8(7 * 7 * 8, 77)).unwrap();
    for target in [Target::SparseSw, Target::SparseIsa, Target::DensePulpNn] {
        let fast = Options::new(target);
        let mut reference = Options::new(target);
        reference.tier = ExecTier::Reference;
        let fast_run = run_emulated(&g, &input, &fast).unwrap();
        let ref_run = run_emulated(&g, &input, &reference).unwrap();
        assert_eq!(fast_run.output, ref_run.output, "padded {target:?} outputs");
        assert_eq!(
            fast_run.matmul_compute_cycles, ref_run.matmul_compute_cycles,
            "padded {target:?} cycles"
        );
    }
}
