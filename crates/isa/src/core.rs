//! The charged-operation core model.
//!
//! [`Core`] exposes one method per (class of) instruction the kernels use.
//! Each call performs the architectural effect and charges cycles per the
//! [`CostModel`], maintaining per-class instruction counters, so a kernel
//! written against this API is simultaneously an *executable* (bit-exact
//! outputs) and a *profile* (cycles, instructions, MACs) of the RISC-V
//! code it mirrors.

use crate::block::InstrBlock;
use crate::class::InstrClass;
use crate::cost::CostModel;
use crate::mem::Memory;
use nm_rtl::{DecimateMode, DecimateXfu};

/// Execution statistics of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Total cycles consumed.
    pub cycles: u64,
    /// Total instructions retired.
    pub instret: u64,
    /// Effective (non-skipped) multiply-accumulates performed.
    pub macs: u64,
    /// Instructions retired per [`InstrClass`], indexed by discriminant.
    pub class_counts: [u64; InstrClass::COUNT],
}

/// An instruction-level RI5CY/XpulpV2 core with the `xDecimate` XFU.
#[derive(Debug, Clone)]
pub struct Core {
    costs: CostModel,
    cycles: u64,
    counts: [u64; InstrClass::COUNT],
    macs: u64,
    xfu: DecimateXfu,
}

impl Core {
    /// Creates an idle core with the given cost model.
    pub fn new(costs: CostModel) -> Self {
        Core {
            costs,
            cycles: 0,
            counts: [0; InstrClass::COUNT],
            macs: 0,
            xfu: DecimateXfu::new(),
        }
    }

    /// The cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Effective MACs performed so far (4 per SIMD dot product).
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// Per-class instruction counts.
    pub fn count(&self, class: InstrClass) -> u64 {
        self.counts[class as usize]
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> CoreStats {
        CoreStats {
            cycles: self.cycles,
            instret: self.instret(),
            macs: self.macs,
            class_counts: self.counts,
        }
    }

    /// Resets cycles, counters and the XFU state.
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.counts = [0; InstrClass::COUNT];
        self.macs = 0;
        self.xfu.clear();
    }

    /// Charges `n` instructions of `class` at base cost without an
    /// architectural effect (loop bookkeeping, prologues, spills).
    #[inline]
    pub fn charge(&mut self, class: InstrClass, n: u64) {
        self.counts[class as usize] += n;
        self.cycles += n * self.costs.base;
    }

    /// Charges a whole straight-line block in one call: per-class counts,
    /// base cycles, load stalls and taken-branch penalties, exactly as the
    /// equivalent sequence of per-instruction calls would (see
    /// [`InstrBlock`] for the contract). This is the accounting engine of
    /// the kernels' analytic mode, which also counts for the bulk path.
    #[inline]
    pub fn charge_block(&mut self, block: &InstrBlock) {
        let mut instrs = 0;
        for (count, n) in self.counts.iter_mut().zip(block.counts()) {
            *count += n;
            instrs += n;
        }
        self.cycles += instrs * self.costs.base
            + block.stalled_loads() * self.costs.load_stall
            + block.taken_branches() * self.costs.branch_taken_penalty;
        self.macs += block.macs();
    }

    /// One ALU instruction (add/shift/mask/address update).
    #[inline]
    pub fn alu(&mut self) {
        self.charge(InstrClass::Alu, 1);
    }

    /// `n` ALU instructions.
    #[inline]
    pub fn alu_n(&mut self, n: u64) {
        self.charge(InstrClass::Alu, n);
    }

    /// Word load (optionally modeling the post-increment flavour, which is
    /// still a single instruction on XpulpV2).
    #[inline]
    pub fn lw<M: Memory + ?Sized>(&mut self, mem: &M, addr: u32) -> u32 {
        self.charge(InstrClass::Load, 1);
        self.cycles += self.costs.load_stall;
        mem.load_u32(addr)
    }

    /// Signed byte load.
    #[inline]
    pub fn lb<M: Memory + ?Sized>(&mut self, mem: &M, addr: u32) -> i8 {
        self.charge(InstrClass::Load, 1);
        self.cycles += self.costs.load_stall;
        mem.load_i8(addr)
    }

    /// Byte load inserted into lane `lane` of a 32-bit register (XpulpV2
    /// `p.lb` + `pv.insert` fused in the kernels' accounting as one load
    /// plus the insert the paper counts inside its "8 loading data"
    /// instructions).
    #[inline]
    pub fn lb_lane<M: Memory + ?Sized>(&mut self, mem: &M, addr: u32, reg: u32, lane: u32) -> u32 {
        debug_assert!(lane < 4);
        self.charge(InstrClass::Load, 1);
        self.cycles += self.costs.load_stall;
        let byte = mem.load_u8(addr);
        let shift = lane * 8;
        (reg & !(0xFFu32 << shift)) | (u32::from(byte) << shift)
    }

    /// Word store.
    #[inline]
    pub fn sw<M: Memory + ?Sized>(&mut self, mem: &mut M, addr: u32, value: u32) {
        self.charge(InstrClass::Store, 1);
        mem.store_u32(addr, value);
    }

    /// Byte store.
    #[inline]
    pub fn sb<M: Memory + ?Sized>(&mut self, mem: &mut M, addr: u32, value: i8) {
        self.charge(InstrClass::Store, 1);
        mem.store_i8(addr, value);
    }

    /// XpulpV2 `pv.sdotsp.b`: 4-lane int8 dot product accumulated into
    /// `acc`. Counts 4 effective MACs.
    #[inline]
    pub fn sdotp(&mut self, a: u32, b: u32, acc: i32) -> i32 {
        self.charge(InstrClass::SimdDotp, 1);
        self.macs += 4;
        let mut sum = acc;
        for lane in 0..4 {
            let x = ((a >> (lane * 8)) & 0xFF) as u8 as i8;
            let y = ((b >> (lane * 8)) & 0xFF) as u8 as i8;
            sum = sum.wrapping_add(i32::from(x) * i32::from(y));
        }
        sum
    }

    /// Scalar multiply-accumulate (tail elements).
    #[inline]
    pub fn mac(&mut self, a: i32, b: i32, acc: i32) -> i32 {
        self.charge(InstrClass::Mac, 1);
        self.macs += 1;
        acc.wrapping_add(a.wrapping_mul(b))
    }

    /// A conditional branch; taken branches pay the refill penalty.
    #[inline]
    pub fn branch(&mut self, taken: bool) {
        self.charge(InstrClass::Branch, 1);
        if taken {
            self.cycles += self.costs.branch_taken_penalty;
        }
    }

    /// Hardware-loop setup (`lp.setup`): one instruction, after which the
    /// loop body iterates with zero control overhead.
    pub fn hwloop_setup(&mut self) {
        self.charge(InstrClass::HwLoop, 1);
    }

    /// Charges one iteration of a non-hardware loop level
    /// (`outer_loop_instrs` bookkeeping instructions, one of which is a
    /// taken branch).
    pub fn outer_loop_iter(&mut self) {
        let n = self.costs.outer_loop_instrs;
        if n == 0 {
            return;
        }
        self.charge(InstrClass::Alu, n - 1);
        self.branch(true);
    }

    /// Charges the per-invocation kernel prologue/epilogue.
    pub fn kernel_overhead(&mut self) {
        let n = self.costs.kernel_overhead_instrs;
        self.charge(InstrClass::Alu, n);
    }

    /// Executes `xdecimate rd, rs1, rs2` through the RT-level XFU model:
    /// unpacks the next offset from `rs2`, loads the selected byte from
    /// `mem` relative to `rs1`, inserts it into `rd`'s current lane, and
    /// auto-increments the XFU `csr`. One instruction, one cycle.
    pub fn xdecimate<M: Memory + ?Sized>(
        &mut self,
        mode: DecimateMode,
        mem: &M,
        rs1: u32,
        rs2: u32,
        rd: u32,
    ) -> u32 {
        self.charge(InstrClass::Xfu, 1);
        self.cycles += self.costs.load_stall;
        self.xfu
            .execute(mode, rs1, rs2, rd, |addr| mem.load_u8(addr))
    }

    /// `xDecimate.clear`: resets the XFU `csr` (one instruction).
    pub fn xdecimate_clear(&mut self) {
        self.charge(InstrClass::Xfu, 1);
        self.xfu.clear();
    }

    /// The XFU `csr` value (for tests and traces).
    pub fn xfu_csr(&self) -> u16 {
        self.xfu.csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::FlatMem;

    fn core() -> Core {
        Core::new(CostModel::default())
    }

    #[test]
    fn sdotp_matches_reference() {
        let mut c = core();
        let a = u32::from_le_bytes([1u8, 2, 0xFF, 0x80]); // 1, 2, -1, -128
        let b = u32::from_le_bytes([10u8, 0xF6, 5, 1]); // 10, -10, 5, 1
        let acc = c.sdotp(a, b, 100);
        assert_eq!(acc, 100 + 10 - 20 - 5 - 128);
        assert_eq!(c.macs(), 4);
        assert_eq!(c.count(InstrClass::SimdDotp), 1);
    }

    #[test]
    fn lb_lane_builds_registers() {
        let mut mem = FlatMem::new(8);
        mem.write_bytes(0, &[0xAA, 0xBB, 0xCC, 0xDD]);
        let mut c = core();
        let mut reg = 0u32;
        for lane in 0..4 {
            reg = c.lb_lane(&mem, lane, reg, lane);
        }
        assert_eq!(reg.to_le_bytes(), [0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(c.count(InstrClass::Load), 4);
    }

    #[test]
    fn cycles_track_costs() {
        let mut c = core();
        c.alu();
        c.branch(false);
        assert_eq!(c.cycles(), 2);
        c.branch(true);
        assert_eq!(c.cycles(), 3 + c.costs().branch_taken_penalty);
        assert_eq!(c.instret(), 3);
    }

    #[test]
    fn outer_loop_iter_charges_bookkeeping() {
        let mut c = core();
        c.outer_loop_iter();
        let m = CostModel::default();
        assert_eq!(c.instret(), m.outer_loop_instrs);
        assert_eq!(
            c.cycles(),
            m.outer_loop_instrs * m.base + m.branch_taken_penalty
        );
    }

    #[test]
    fn xdecimate_loads_and_advances() {
        let mut mem = FlatMem::new(64);
        for i in 0..64 {
            mem.store_u8(i, i as u8);
        }
        let mut c = core();
        // 1:8, offsets word with o0 = 5 duplicated.
        let rs2 = 0x0000_0055;
        let rd = c.xdecimate(DecimateMode::OneOfEight, &mem, 0, rs2, 0);
        assert_eq!(rd & 0xFF, 5);
        let rd2 = c.xdecimate(DecimateMode::OneOfEight, &mem, 32, rs2, 0);
        assert_eq!(rd2 & 0xFF, 37); // second buffer, same block/offset
        assert_eq!(c.xfu_csr(), 2);
        c.xdecimate_clear();
        assert_eq!(c.xfu_csr(), 0);
        assert_eq!(c.count(InstrClass::Xfu), 3);
    }

    #[test]
    fn mac_counts_one() {
        let mut c = core();
        assert_eq!(c.mac(3, -4, 2), -10);
        assert_eq!(c.macs(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = core();
        let mem = FlatMem::new(8);
        c.lw(&mem, 0);
        c.xdecimate(DecimateMode::OneOfFour, &mem, 0, 0, 0);
        c.reset();
        assert_eq!(c.stats(), CoreStats::default());
        assert_eq!(c.xfu_csr(), 0);
    }
}
