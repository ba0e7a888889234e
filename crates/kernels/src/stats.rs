//! Kernel execution context and result statistics.

use nm_platform::{ClusterStats, Scratchpad};
use std::sync::Arc;

/// The execution tier a caller selects for emulated runs.
///
/// * [`ExecTier::Reference`] — golden per-instruction model: every
///   charged operation performs its architectural effect one
///   instruction at a time. Slowest, fully cycle-accurate.
/// * [`ExecTier::Bulk`] — fast path: outputs from zero-copy scratchpad
///   slices, accounting via whole [`nm_isa::InstrBlock`] charges.
///   **Bit- and cycle-identical** to `Reference` (enforced by
///   `tests/bulk_parity.rs`).
/// * [`ExecTier::Native`] — deployment-speed path: the *same* kernel
///   bodies as `Bulk`, monomorphized with [`nm_isa::Uncharged`] so all
///   accounting compiles out. Outputs stay bit-identical to `Bulk`
///   (enforced by `tests/native_parity.rs`); cycles/instret are
///   **undefined** (reported as zero) on this tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// Per-instruction reference emulation.
    Reference,
    /// Bulk fast-path emulation (slices + block charging).
    #[default]
    Bulk,
    /// Uncharged native execution (outputs only, no statistics).
    Native,
}

impl ExecTier {
    /// Whether this tier produces defined cycle/instret statistics.
    pub fn is_cycle_accurate(self) -> bool {
        !matches!(self, ExecTier::Native)
    }

    /// Parses the tier names used by benches and configs.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "reference" => Some(ExecTier::Reference),
            "bulk" => Some(ExecTier::Bulk),
            "native" => Some(ExecTier::Native),
            _ => None,
        }
    }

    /// The bench/config name of this tier.
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Reference => "reference",
            ExecTier::Bulk => "bulk",
            ExecTier::Native => "native",
        }
    }
}

/// Execution context: emulation against a real L1 scratchpad (bit-exact
/// outputs) on one of the three [`ExecTier`]s, or analytic mode (cycle
/// charging only, no memory traffic).
///
/// [`Ctx::Mem`] is the golden reference: every charged operation performs
/// its architectural effect one instruction at a time. [`Ctx::MemBulk`]
/// produces **identical outputs and identical statistics** (enforced by
/// the parity tests in `tests/bulk_parity.rs`) but computes outputs from
/// zero-copy scratchpad slices and charges whole instruction blocks via
/// [`nm_isa::Core::charge_block`], which makes host emulation several
/// times faster. [`Ctx::MemNative`] runs the same bulk kernel bodies
/// with charging compiled out ([`nm_isa::Uncharged`]): identical outputs,
/// zero statistics, fastest wall-clock. [`Ctx::Analytic`] moves no data
/// and computes no outputs: each kernel charges the same
/// [`nm_isa::InstrBlock`] builder its bulk body charges, and the conv
/// driver charges im2col through the same memoized closed form, so
/// analytic statistics equal the bulk tier's — and therefore the
/// reference's — for any [`nm_isa::CostModel`]. Use `Mem` when
/// validating the model, `MemBulk` for sweeps and gated benches,
/// `MemNative` for serving traffic that only wants outputs, and
/// `Analytic` for planning.
#[derive(Debug)]
pub enum Ctx<'a> {
    /// Emulate per-instruction against this L1 scratchpad (reference).
    Mem(&'a mut Scratchpad),
    /// Emulate against this L1 scratchpad on the bulk fast path.
    MemBulk(&'a mut Scratchpad),
    /// Run uncharged against this L1 scratchpad (outputs only).
    MemNative(&'a mut Scratchpad),
    /// Charge cycles without touching memory.
    Analytic,
}

impl<'a> Ctx<'a> {
    /// The emulation context for `tier` over `mem`.
    pub fn tiered(tier: ExecTier, mem: &'a mut Scratchpad) -> Self {
        match tier {
            ExecTier::Reference => Ctx::Mem(mem),
            ExecTier::Bulk => Ctx::MemBulk(mem),
            ExecTier::Native => Ctx::MemNative(mem),
        }
    }

    /// Whether this context carries a memory (any emulation tier).
    pub fn is_mem(&self) -> bool {
        matches!(self, Ctx::Mem(_) | Ctx::MemBulk(_) | Ctx::MemNative(_))
    }

    /// Whether this context runs the uncharged native tier.
    pub fn is_native(&self) -> bool {
        matches!(self, Ctx::MemNative(_))
    }

    /// The scratchpad, if emulating (any tier).
    pub fn mem(&mut self) -> Option<&mut Scratchpad> {
        match self {
            Ctx::Mem(m) | Ctx::MemBulk(m) | Ctx::MemNative(m) => Some(m),
            Ctx::Analytic => None,
        }
    }

    /// This context reborrowed for one kernel body: the same variant
    /// over the same scratchpad, for a shorter lifetime.
    pub fn path(&mut self) -> Ctx<'_> {
        match self {
            Ctx::Mem(m) => Ctx::Mem(m),
            Ctx::MemBulk(m) => Ctx::MemBulk(m),
            Ctx::MemNative(m) => Ctx::MemNative(m),
            Ctx::Analytic => Ctx::Analytic,
        }
    }
}

/// The result of a batch sweep over one staged tile: one request per
/// entry for a conv tile (`conv::drive_conv_batch`), one token per entry
/// for an FC tile (`fc::drive_fc_batch`).
#[derive(Debug)]
pub struct BatchRun {
    /// One [`KernelStats`] per request or token, in order. Kernel
    /// statistics depend only on geometry and weights — never on
    /// activation values — so each entry is identical to the stats of a
    /// freshly staged single run of that request or token (the batched
    /// kernel parity tests pin this). The sweeps exploit that directly:
    /// off the reference path, the entries after the first share the
    /// first's statistics (one allocation, reference-counted) instead of
    /// charging.
    pub stats: Vec<Arc<KernelStats>>,
    /// Concatenated per-entry tile outputs (`geom.output_elems()` bytes
    /// per conv request, HWC; `K` bytes per FC token). Empty in analytic
    /// mode, where no memory is attached.
    pub outputs: Vec<u8>,
}

/// The result of one kernel invocation on the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel name (e.g. `"conv-sparse-isa-1:8"`).
    pub name: String,
    /// Cluster-level statistics (latency = slowest core + barrier).
    pub cluster: ClusterStats,
    /// Dense-equivalent MAC count of the layer (sparse kernels execute
    /// fewer effective MACs; the paper reports dense equivalents).
    pub dense_macs: u64,
}

impl KernelStats {
    /// Cluster latency in cycles.
    pub fn cycles(&self) -> u64 {
        self.cluster.cycles
    }

    /// Dense-equivalent MACs per cycle — the paper's Fig. 8 metric.
    pub fn macs_per_cycle(&self) -> f64 {
        self.dense_macs as f64 / self.cluster.cycles as f64
    }

    /// Effective (executed) MACs per cycle.
    pub fn effective_macs_per_cycle(&self) -> f64 {
        self.cluster.total_macs() as f64 / self.cluster.cycles as f64
    }

    /// Speedup of `self` over `other` (cycles ratio).
    pub fn speedup_over(&self, other: &KernelStats) -> f64 {
        other.cluster.cycles as f64 / self.cluster.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_isa::CoreStats;

    fn stats(cycles: u64) -> KernelStats {
        KernelStats {
            name: "test".into(),
            cluster: ClusterStats::from_cores(
                vec![CoreStats {
                    cycles,
                    instret: 10,
                    macs: 100,
                    ..Default::default()
                }],
                0,
            ),
            dense_macs: 800,
        }
    }

    #[test]
    fn metrics() {
        let a = stats(100);
        let b = stats(200);
        assert_eq!(a.cycles(), 100);
        assert_eq!(a.macs_per_cycle(), 8.0);
        assert_eq!(a.effective_macs_per_cycle(), 1.0);
        assert_eq!(a.speedup_over(&b), 2.0);
        assert_eq!(b.speedup_over(&a), 0.5);
    }

    #[test]
    fn ctx_mem_access() {
        let mut l1 = Scratchpad::new("l1", 16);
        let mut ctx = Ctx::Mem(&mut l1);
        assert!(ctx.is_mem());
        assert!(ctx.mem().is_some());
        assert!(matches!(ctx.path(), Ctx::Mem(_)));
        let mut ctx = Ctx::MemBulk(&mut l1);
        assert!(ctx.is_mem());
        assert!(ctx.mem().is_some());
        assert!(matches!(ctx.path(), Ctx::MemBulk(_)));
        let mut ctx = Ctx::MemNative(&mut l1);
        assert!(ctx.is_mem());
        assert!(ctx.is_native());
        assert!(ctx.mem().is_some());
        assert!(matches!(ctx.path(), Ctx::MemNative(_)));
        let mut ctx = Ctx::Analytic;
        assert!(!ctx.is_mem());
        assert!(ctx.mem().is_none());
        assert!(matches!(ctx.path(), Ctx::Analytic));
    }

    #[test]
    fn tiered_constructor_and_names() {
        let mut l1 = Scratchpad::new("l1", 16);
        assert!(matches!(
            Ctx::tiered(ExecTier::Reference, &mut l1),
            Ctx::Mem(_)
        ));
        assert!(matches!(
            Ctx::tiered(ExecTier::Bulk, &mut l1),
            Ctx::MemBulk(_)
        ));
        assert!(matches!(
            Ctx::tiered(ExecTier::Native, &mut l1),
            Ctx::MemNative(_)
        ));
        for tier in [ExecTier::Reference, ExecTier::Bulk, ExecTier::Native] {
            assert_eq!(ExecTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(ExecTier::from_name("analytic"), None);
        assert_eq!(ExecTier::default(), ExecTier::Bulk);
        assert!(ExecTier::Bulk.is_cycle_accurate());
        assert!(!ExecTier::Native.is_cycle_accurate());
    }
}
