//! Kernel execution context and result statistics.

use nm_platform::{ClusterStats, Scratchpad};
use std::sync::Arc;

/// The execution tier a caller selects for emulated runs.
///
/// * [`ExecTier::Reference`] — golden per-instruction model: every
///   charged operation performs its architectural effect one
///   instruction at a time. Slowest, the oracle.
/// * [`ExecTier::Bulk`] — fast path: outputs from zero-copy scratchpad
///   slices, statistics from the kernel's analytic pass (whole
///   [`nm_isa::InstrBlock`] charges). **Bit- and cycle-identical** to
///   `Reference` (enforced by `tests/bulk_parity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// Per-instruction reference emulation.
    Reference,
    /// Bulk fast-path emulation (slices + analytic statistics).
    #[default]
    Bulk,
}

/// Execution context: emulation against a real L1 scratchpad (bit-exact
/// outputs) on one of the two [`ExecTier`]s, or analytic mode (cycle
/// charging only, no memory traffic).
///
/// Each context has one job. [`Ctx::Mem`] is the golden reference:
/// every charged operation performs its architectural effect one
/// instruction at a time, so it both moves data and counts. The other
/// two split that work. [`Ctx::MemBulk`] arms move data and write
/// outputs from zero-copy scratchpad slices, and never charge.
/// [`Ctx::Analytic`] arms move nothing and charge each kernel unit's
/// [`nm_isa::InstrBlock`] (im2col through its memoized closed form), so
/// they are the only charge sites outside the reference tier. A kernel
/// called on `MemBulk` returns the statistics of its own analytic pass,
/// which the two drivers (`fc::run_fc`, `conv::drive_conv`) run after the
/// compute pass. Outputs equal the reference's bit for bit, and
/// statistics equal them for any [`nm_isa::CostModel`] (enforced by the
/// parity tests in `tests/bulk_parity.rs`). Use `Mem` when validating
/// the model, `MemBulk` for sweeps, serving and gated benches, and
/// `Analytic` for planning.
#[derive(Debug)]
pub enum Ctx<'a> {
    /// Emulate per-instruction against this L1 scratchpad (reference).
    Mem(&'a mut Scratchpad),
    /// Emulate against this L1 scratchpad on the bulk fast path.
    MemBulk(&'a mut Scratchpad),
    /// Charge cycles without touching memory.
    Analytic,
}

impl<'a> Ctx<'a> {
    /// The emulation context for `tier` over `mem`.
    pub fn tiered(tier: ExecTier, mem: &'a mut Scratchpad) -> Self {
        match tier {
            ExecTier::Reference => Ctx::Mem(mem),
            ExecTier::Bulk => Ctx::MemBulk(mem),
        }
    }

    /// Whether this context carries a memory (either emulation tier).
    pub fn is_mem(&self) -> bool {
        matches!(self, Ctx::Mem(_) | Ctx::MemBulk(_))
    }

    /// The scratchpad, if emulating (either tier).
    pub fn mem(&mut self) -> Option<&mut Scratchpad> {
        match self {
            Ctx::Mem(m) | Ctx::MemBulk(m) => Some(m),
            Ctx::Analytic => None,
        }
    }

    /// This context reborrowed for one kernel body: the same variant
    /// over the same scratchpad, for a shorter lifetime.
    pub fn path(&mut self) -> Ctx<'_> {
        match self {
            Ctx::Mem(m) => Ctx::Mem(m),
            Ctx::MemBulk(m) => Ctx::MemBulk(m),
            Ctx::Analytic => Ctx::Analytic,
        }
    }

    /// The context whose pass charges this one's statistics: the bulk
    /// tier counts through an analytic pass, every other context
    /// charges its own walk.
    pub(crate) fn charging(&mut self) -> Ctx<'_> {
        match self {
            Ctx::MemBulk(_) => Ctx::Analytic,
            ctx => ctx.path(),
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
    /// kernel parity tests pin this). Off the reference tier every entry
    /// shares the batch's one analytic pass (one allocation,
    /// reference-counted); the reference tier charges each entry's own
    /// per-instruction run.
    pub stats: Vec<Arc<KernelStats>>,
    /// Concatenated per-entry tile outputs (`geom.output_elems()` bytes
    /// per conv request, HWC; `K` bytes per FC token). Empty in analytic
    /// mode, where no memory is attached.
    pub outputs: Vec<u8>,
}

impl BatchRun {
    /// A run of `n` entries that all share `stats` (one allocation).
    pub(crate) fn shared(n: usize, stats: KernelStats, outputs: Vec<u8>) -> Self {
        let stats = std::iter::repeat_n(Arc::new(stats), n).collect();
        BatchRun { stats, outputs }
    }
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
        assert_eq!(ExecTier::default(), ExecTier::Bulk);
        // Benchmark headers print the tier through `Debug`.
        assert_eq!(format!("{:?}", ExecTier::Reference), "Reference");
        assert_eq!(format!("{:?}", ExecTier::Bulk), "Bulk");
    }
}
