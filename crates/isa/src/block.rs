//! Batched cycle accounting: per-block instruction-class count tables.
//!
//! The per-instruction [`crate::Core`] API charges one accounting call per
//! retired instruction, which is what makes it a golden reference — and
//! what makes it slow on the host. An [`InstrBlock`] is the closed-form
//! cost of a straight-line block (a 4-NZ inner chunk, a tail element, an
//! epilogue): per-class instruction counts plus the derived stall and
//! branch-penalty counts. Kernels in analytic mode (which also yields
//! the bulk fast path's statistics) build the block table for a whole
//! channel with [`InstrBlock::repeat`]/[`InstrBlock::then`] and charge it
//! with a single [`crate::Core::charge_block`] call.
//!
//! Exactness contract: charging a block must change `cycles`, `instret`,
//! `macs` and every per-class counter by exactly what the equivalent
//! sequence of per-instruction calls would have — including `load_stall`
//! cycles on loads/`xDecimate` and the taken-branch penalty — for *any*
//! [`crate::CostModel`]. The kernel parity tests enforce this end to end.

use crate::class::InstrClass;

/// Closed-form cost of a straight-line instruction block.
///
/// Build with the fluent constructors, scale with [`InstrBlock::repeat`],
/// concatenate with [`InstrBlock::then`], charge with
/// [`crate::Core::charge_block`].
///
/// # Example
/// ```
/// use nm_isa::{Core, CostModel, FlatMem, InstrBlock};
///
/// // One 4-NZ software-decimation chunk: 6 loads, 9 ALU, 1 dot product.
/// let chunk = InstrBlock::new().loads(6).alu(9).sdotp(1);
/// let costs = CostModel { load_stall: 2, ..CostModel::default() };
/// let mut fast = Core::new(costs);
/// fast.charge_block(&chunk.repeat(10));
///
/// let mem = FlatMem::new(16);
/// let mut reference = Core::new(costs);
/// for _ in 0..10 {
///     for _ in 0..6 {
///         reference.lw(&mem, 0);
///     }
///     reference.alu_n(9);
///     reference.sdotp(0, 0, 0);
/// }
/// assert_eq!(fast.stats(), reference.stats());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrBlock {
    counts: [u64; InstrClass::COUNT],
    /// Loads (and `xDecimate` executions) that pay `load_stall` cycles.
    stalled_loads: u64,
    /// Branches that pay the taken penalty.
    taken_branches: u64,
    /// Effective MACs performed by the block.
    macs: u64,
}

impl InstrBlock {
    /// The empty block.
    pub const fn new() -> Self {
        InstrBlock {
            counts: [0; InstrClass::COUNT],
            stalled_loads: 0,
            taken_branches: 0,
            macs: 0,
        }
    }

    /// Adds `n` instructions of `class` with no stall or penalty — the
    /// batched equivalent of [`crate::Core::charge`].
    pub const fn op(mut self, class: InstrClass, n: u64) -> Self {
        self.counts[class as usize] += n;
        self
    }

    /// Adds `n` ALU instructions.
    pub const fn alu(self, n: u64) -> Self {
        self.op(InstrClass::Alu, n)
    }

    /// Adds `n` loads that pay the `load_stall` cost (`lw`/`lb`/lane
    /// loads).
    pub const fn loads(mut self, n: u64) -> Self {
        self.stalled_loads += n;
        self.op(InstrClass::Load, n)
    }

    /// Adds `n` loads charged *without* a stall — the batched equivalent
    /// of a bare `charge(InstrClass::Load, n)` (e.g. the tail's partial
    /// offsets fetch, which the reference kernels also charge stall-free).
    pub const fn loads_unstalled(self, n: u64) -> Self {
        self.op(InstrClass::Load, n)
    }

    /// Adds `n` stores.
    pub const fn stores(self, n: u64) -> Self {
        self.op(InstrClass::Store, n)
    }

    /// Adds `n` SIMD dot products, each performing 4 effective MACs.
    pub const fn sdotp(mut self, n: u64) -> Self {
        self.macs += 4 * n;
        self.op(InstrClass::SimdDotp, n)
    }

    /// Adds `n` scalar multiply-accumulates (1 MAC each).
    pub const fn mac(mut self, n: u64) -> Self {
        self.macs += n;
        self.op(InstrClass::Mac, n)
    }

    /// Adds `n` `xDecimate` executions (each pays the load stall, like
    /// the indirect byte load it fuses).
    pub const fn xdecimate(mut self, n: u64) -> Self {
        self.stalled_loads += n;
        self.op(InstrClass::Xfu, n)
    }

    /// Adds `n` stall-free XFU instructions (`xDecimate.clear`).
    pub const fn xfu_clear(self, n: u64) -> Self {
        self.op(InstrClass::Xfu, n)
    }

    /// Adds `n` taken branches (base cost + refill penalty each).
    pub const fn branches_taken(mut self, n: u64) -> Self {
        self.taken_branches += n;
        self.op(InstrClass::Branch, n)
    }

    /// The cost of a bulk byte copy of `len` bytes as the im2col and DMA
    /// staging loops charge it: one load + one store per 32-bit word,
    /// one byte-load + byte-store per tail byte, all stall-free (the
    /// copy loops are software-pipelined, so the per-instruction
    /// reference charges them with bare [`crate::Core::charge`] calls
    /// too — this helper is the batched equivalent of that sequence).
    pub const fn bulk_copy(self, len: usize) -> Self {
        let ops = (len / 4 + len % 4) as u64;
        self.op(InstrClass::Load, ops).op(InstrClass::Store, ops)
    }

    /// The cost of a bulk fill (zero padding) of `len` bytes: one store
    /// per word plus one per tail byte — the batched equivalent of the
    /// reference's zero-fill charge sequence.
    pub const fn bulk_fill(self, len: usize) -> Self {
        self.op(InstrClass::Store, (len / 4 + len % 4) as u64)
    }

    /// One iteration of a non-hardware loop level under `costs`: the
    /// batched equivalent of [`crate::Core::outer_loop_iter`]
    /// (`outer_loop_instrs - 1` ALU ops plus one taken branch; nothing
    /// when the model charges no outer-loop bookkeeping).
    pub const fn outer_iter(self, costs: &crate::CostModel) -> Self {
        if costs.outer_loop_instrs == 0 {
            return self;
        }
        self.alu(costs.outer_loop_instrs - 1).branches_taken(1)
    }

    /// The block repeated `n` times.
    pub const fn repeat(mut self, n: u64) -> Self {
        let mut i = 0;
        while i < InstrClass::COUNT {
            self.counts[i] *= n;
            i += 1;
        }
        self.stalled_loads *= n;
        self.taken_branches *= n;
        self.macs *= n;
        self
    }

    /// The concatenation of `self` and `other`.
    pub const fn then(mut self, other: Self) -> Self {
        let mut i = 0;
        while i < InstrClass::COUNT {
            self.counts[i] += other.counts[i];
            i += 1;
        }
        self.stalled_loads += other.stalled_loads;
        self.taken_branches += other.taken_branches;
        self.macs += other.macs;
        self
    }

    /// Total instructions in the block.
    pub fn instrs(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Instructions of one class.
    pub const fn count(&self, class: InstrClass) -> u64 {
        self.counts[class as usize]
    }

    /// Effective MACs in the block.
    pub const fn macs(&self) -> u64 {
        self.macs
    }

    pub(crate) const fn stalled_loads(&self) -> u64 {
        self.stalled_loads
    }

    pub(crate) const fn taken_branches(&self) -> u64 {
        self.taken_branches
    }

    pub(crate) const fn counts(&self) -> &[u64; InstrClass::COUNT] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Core;
    use crate::cost::CostModel;
    use crate::mem::{FlatMem, Memory};

    /// A cost model with every knob distinct and non-zero, so any
    /// accounting discrepancy shows up in the cycle count.
    fn stalled_model() -> CostModel {
        CostModel {
            base: 2,
            load_stall: 3,
            branch_taken_penalty: 5,
            outer_loop_instrs: 4,
            kernel_overhead_instrs: 7,
            ..CostModel::VEGA
        }
    }

    #[test]
    fn block_matches_per_instruction_charging_with_stalls() {
        let costs = stalled_model();
        let mut mem = FlatMem::new(64);
        mem.store_u32(0, 0x0102_0304);

        let mut reference = Core::new(costs);
        for _ in 0..3 {
            let w = reference.lw(&mem, 0);
            let a = reference.lb(&mem, 4);
            reference.sdotp(w, w, 0);
            reference.mac(i32::from(a), 2, 1);
            reference.alu_n(2);
            reference.branch(true);
            reference.sw(&mut mem, 8, 9);
        }
        reference.charge(crate::InstrClass::Load, 1); // stall-free load

        let block = InstrBlock::new()
            .loads(2)
            .sdotp(1)
            .mac(1)
            .alu(2)
            .branches_taken(1)
            .stores(1)
            .repeat(3)
            .then(InstrBlock::new().loads_unstalled(1));
        let mut fast = Core::new(costs);
        fast.charge_block(&block);

        assert_eq!(fast.stats(), reference.stats());
    }

    #[test]
    fn xdecimate_accounting_matches() {
        let costs = stalled_model();
        let mem = FlatMem::new(64);

        let mut reference = Core::new(costs);
        reference.xdecimate_clear();
        for _ in 0..5 {
            reference.xdecimate(nm_rtl::DecimateMode::OneOfEight, &mem, 0, 0, 0);
        }

        let block = InstrBlock::new().xfu_clear(1).xdecimate(5);
        let mut fast = Core::new(costs);
        fast.charge_block(&block);

        assert_eq!(fast.cycles(), reference.cycles());
        assert_eq!(fast.instret(), reference.instret());
        assert_eq!(fast.count(crate::InstrClass::Xfu), 6);
    }

    #[test]
    fn repeat_and_then_compose_linearly() {
        let a = InstrBlock::new().alu(2).loads(1);
        let b = InstrBlock::new().stores(1).mac(3);
        let c = a.repeat(4).then(b.repeat(2));
        assert_eq!(c.count(InstrClass::Alu), 8);
        assert_eq!(c.count(InstrClass::Load), 4);
        assert_eq!(c.count(InstrClass::Store), 2);
        assert_eq!(c.count(InstrClass::Mac), 6);
        assert_eq!(c.macs(), 6);
        assert_eq!(c.instrs(), 8 + 4 + 2 + 6);
    }

    #[test]
    fn bulk_copy_and_fill_match_word_plus_tail_charging() {
        let costs = stalled_model();
        // 11 bytes: 2 words + 3 tail bytes -> 5 loads + 5 stores, all
        // stall-free, exactly like the reference's charge() sequence.
        let mut reference = Core::new(costs);
        reference.charge(crate::InstrClass::Load, 5);
        reference.charge(crate::InstrClass::Store, 5);
        let mut fast = Core::new(costs);
        fast.charge_block(&InstrBlock::new().bulk_copy(11));
        assert_eq!(fast.stats(), reference.stats());

        let mut reference = Core::new(costs);
        reference.charge(crate::InstrClass::Store, 5);
        let mut fast = Core::new(costs);
        fast.charge_block(&InstrBlock::new().bulk_fill(11));
        assert_eq!(fast.stats(), reference.stats());

        assert_eq!(InstrBlock::new().bulk_copy(0), InstrBlock::new());
        assert_eq!(InstrBlock::new().bulk_fill(0), InstrBlock::new());
    }

    #[test]
    fn outer_iter_matches_outer_loop_iter() {
        let costs = stalled_model();
        let mut reference = Core::new(costs);
        reference.outer_loop_iter();
        let mut fast = Core::new(costs);
        fast.charge_block(&InstrBlock::new().outer_iter(&costs));
        assert_eq!(fast.stats(), reference.stats());

        let none = CostModel {
            outer_loop_instrs: 0,
            ..CostModel::VEGA
        };
        assert_eq!(InstrBlock::new().outer_iter(&none), InstrBlock::new());
    }

    #[test]
    fn zero_repeat_is_empty() {
        let b = InstrBlock::new().alu(3).loads(2).sdotp(1).repeat(0);
        assert_eq!(b, InstrBlock::new());
        let mut core = Core::new(CostModel::default());
        core.charge_block(&b);
        assert_eq!(core.stats(), Default::default());
    }
}
