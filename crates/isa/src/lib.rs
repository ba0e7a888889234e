//! # nm-isa
//!
//! An instruction-level model of a RI5CY/CV32E40P core with the XpulpV2
//! DSP extension (SIMD 4×int8 dot products, hardware loops, post-increment
//! loads) and the paper's `xDecimate` extension, substituting for the
//! GVSoC virtual platform used in the paper's evaluation.
//!
//! Kernels in `nm-kernels` are written against [`core::Core`]'s
//! "charged-operation" API: every call performs the architectural effect
//! (load, store, dot product, …) *and* charges cycles and instruction
//! counts according to the [`cost::CostModel`]. Because the paper's
//! speedups are driven by inner-loop instruction counts (Sec. 4 analyzes
//! every kernel in instructions/iteration), an instruction-level model
//! reproduces the mechanism behind the reported numbers.
//!
//! The `xDecimate` instruction executes through the bit-accurate RT-level
//! datapath in [`nm_rtl::DecimateXfu`], so simulated results exercise the
//! same register-transfer equations the paper implements in SystemVerilog.
//!
//! # Reference path vs. bulk fast path
//!
//! Two execution styles share this crate's accounting state:
//!
//! * **Per-instruction reference** — one charged-operation call per
//!   retired instruction ([`Core::charge`], [`Core::lw`], [`Core::sdotp`],
//!   …). This is the golden model: every architectural effect happens at
//!   the same granularity as on the modeled core. It runs when a kernel
//!   executes under `Ctx::Mem` in `nm-kernels`.
//! * **Bulk fast path** — kernels compute outputs from zero-copy memory
//!   views ([`mem::Memory::slice`] and friends) and charge whole
//!   straight-line blocks with [`Core::charge_block`] over an
//!   [`InstrBlock`] count table. It runs under `Ctx::MemBulk` and exists
//!   to make host-side sweeps cheap. It is the only fast path: every
//!   bulk run charges its blocks, so its statistics are always defined.
//!
//! The contract between them: for the same kernel and operands the two
//! paths must agree **exactly** — bit-identical memory contents and
//! equal `cycles`/`instret`/`macs`/per-class counters, for any
//! [`CostModel`] (including non-zero `load_stall`, which
//! [`Core::charge_block`] batches via the block's stalled-load count).
//! The parity suite in the workspace `tests` crate (`bulk_parity.rs`)
//! enforces this for every kernel, pattern and tail geometry; treat a
//! divergence as a bug in the fast path, never as a tolerable drift.
//! Analytic mode (`Ctx::Analytic`) charges the bulk path's own
//! [`InstrBlock`]s without touching memory, so it matches both on every
//! statistic for any [`CostModel`] as well.
//!
//! # Example
//!
//! ```
//! use nm_isa::{Core, CostModel, FlatMem, Memory};
//!
//! let mut mem = FlatMem::new(64);
//! mem.store_u32(0, 0x0302_0100);
//! let mut core = Core::new(CostModel::default());
//! let w = core.lw(&mem, 0);
//! let acc = core.sdotp(w, 0x0101_0101, 10); // 10 + 0+1+2+3
//! assert_eq!(acc, 16);
//! assert_eq!(core.instret(), 2);
//! ```

pub mod asm;
pub mod block;
pub mod class;
pub mod core;
pub mod cost;
pub mod energy;
pub mod mem;
pub mod programs;

pub use crate::core::{Core, CoreStats};
pub use block::InstrBlock;
pub use class::InstrClass;
pub use cost::CostModel;
pub use energy::EnergyModel;
pub use mem::{FlatMem, Memory};
pub use nm_rtl::DecimateMode;
