//! # nm-kernels
//!
//! The paper's kernel library (Sec. 4): dense PULP-NN baselines and N:M
//! sparse convolution / fully-connected kernels for 1:4, 1:8 and 1:16
//! sparsity, in both software-only (XpulpV2) and ISA-extended
//! (`xDecimate`) variants.
//!
//! Every kernel is written against the charged-operation API of
//! [`nm_isa::Core`] and runs in one of three contexts ([`Ctx`]): the two
//! emulation tiers of [`ExecTier`], and planning.
//!
//! * **Reference** ([`Ctx::Mem`], [`ExecTier::Reference`]): the kernel
//!   reads and writes real int8 data in the simulated L1 scratchpad one
//!   charged instruction at a time, producing bit-exact outputs
//!   (verified against [`mod@reference`]) while counting cycles.
//! * **Bulk** ([`Ctx::MemBulk`], [`ExecTier::Bulk`]): the same outputs
//!   from zero-copy scratchpad slices, several times faster. Bulk arms
//!   only move data and write outputs; they never charge. Every conv
//!   kernel computes through one 16-lane sweep whose lanes are
//!   (request, output position) pairs, so a single run, a batch of one,
//!   fills its lanes with its own positions; each output channel brings
//!   its own weight row and gather indices, so the per-channel mixed
//!   kernels sweep too. The conv sweep and the FC token sweep write
//!   their outputs through one blocked requantize epilogue, 8 channels
//!   per store. A kernel called on this context returns the statistics
//!   of its own analytic pass, which the drivers run once after the
//!   compute pass, so they are bit- and cycle-identical to the
//!   reference.
//! * **Analytic** ([`Ctx::Analytic`]): no memory traffic and no
//!   outputs. Analytic arms are the only charge sites outside the
//!   reference: each kernel unit charges one [`nm_isa::InstrBlock`] —
//!   per core's channel range for the FC kernels, per position pair for
//!   the conv kernels, per channel for the per-channel mixed kernels —
//!   and conv im2col charges its memoized closed form, so a whole network
//!   is costed in O(output positions) and the statistics equal the
//!   emulated ones for any cost model. Parity tests pin analytic ==
//!   reference on whole [`KernelStats`], under the default and a stalled
//!   cost model.
//!
//! Inner-loop instruction budgets match the paper's Sec. 4 analysis and
//! are locked by guard tests:
//!
//! | kernel | instrs/inner iter | MACs | peak MACs/instr |
//! |---|---|---|---|
//! | conv dense 4x2 (PULP-NN) | 14 | 32 | 2.28 |
//! | conv dense 1x2 | 5 | 8 | 1.6 |
//! | conv sparse SW 1:8, 1:16 | 22 | 8 | 0.36 |
//! | conv sparse SW 1:4 | 23 | 8 | 0.35 |
//! | conv sparse ISA | 12 | 8 | 0.66 |
//! | FC dense 1x2 | 5 | 8 | 1.6 |
//! | FC sparse SW | 16 | 4 | 0.25 |
//! | FC sparse ISA | 13 | 8 | 0.61 |

// Indexed loops in this crate deliberately mirror the register-level
// structure of the kernels / math notation of the paper.
#![allow(clippy::needless_range_loop)]

pub mod ablation;
pub mod baseline;
pub(crate) mod bulk;
pub mod conv;
pub mod fc;
pub mod im2col;
pub mod layout;
pub mod reference;
pub mod stats;
pub mod testdata;

pub use stats::{BatchRun, Ctx, ExecTier, KernelStats};
