//! The partial im2col step shared by all convolution kernels (Fig. 2/3).
//!
//! Two spatially contiguous input patches are copied into 1-D buffers so
//! the inner matrix-multiplication loop can stream activations with word
//! loads. The step is *identical* for dense and sparse kernels — the
//! sparse kernels decimate from the im2col buffer afterwards (the paper's
//! "Decimate Im2col" strategy, Sec. 4.1.2) — which is why measured sparse
//! speedups fall below the inner-loop ratios (Sec. 5.2).
//!
//! # Cost accounting
//!
//! Word copies charge one load + one store per 4 bytes, tail bytes one
//! byte-load + byte-store each; rows that fall in the zero padding charge
//! only stores. Each patch row charges two ALU instructions for its
//! address computation plus two more per *extra* region when the row
//! splits into left padding / in-bounds span / right padding (the split's
//! pointer and length updates — a heavily padded row is not free). The
//! same split code (the private `row_split` helper) drives the
//! per-instruction reference and the closed-form [`patch_block`] that
//! the bulk and analytic paths charge, so they agree by construction.
//!
//! # The incremental bulk path ([`PatchState`])
//!
//! On the per-instruction reference path ([`crate::Ctx::Mem`]) every
//! output position pair rebuilds both patch buffers from the input
//! tensor, exactly as the modeled kernel does. The bulk fast path
//! ([`crate::Ctx::MemBulk`]) keeps a per-core [`PatchState`] instead.
//! Analytic mode ([`crate::Ctx::Analytic`]) keeps one too, but only
//! charges through it ([`PatchState::fill`]); it never materializes:
//!
//! * **Charging is closed-form and unchanged.** [`PatchState::fill`]
//!   charges the exact per-position cost of the full rebuild through a
//!   memoized [`patch_block`] (positions sharing a padding class share
//!   one [`InstrBlock`]), so cycles, instret and per-class counts match
//!   the reference *by construction* — the cost model still prices the
//!   full data movement the modeled core performs; only the host-side
//!   work shrinks.
//! * **Intermediate patches are virtual.** `fill` records which output
//!   position each patch slot logically holds without touching the
//!   scratchpad. Kernels whose channel loops read the buffers call
//!   [`PatchState::materialize`] per position; the im2col-only engine
//!   workloads skip that and let [`PatchState::finish`] write **only each
//!   core's final patch buffers** — the state the reference path leaves
//!   behind — so full-memory parity holds with none of the intermediate
//!   traffic.
//! * **Materialization slides along the output row.** Adjacent positions
//!   share `fx - stride` of their `fx` patch columns per row. When a
//!   materialized slot holds a same-row neighbor, the builder
//!   `copy_within`-shifts the retained `(fx - stride) * c` columns from
//!   it and copies/zero-fills only the new ones from the input; patches
//!   with no materialized neighbor (row changes, `ox == 1`,
//!   `stride >= fx`) are built in full.
//!
//! The parity suite (`tests/bulk_parity.rs`) enforces bit-exact buffers
//! and exact statistics for strided, padded (including `pad >= fx`),
//! pointwise and no-reuse geometries, under stalled cost models too.

use nm_core::ConvGeom;
use nm_isa::{Core, CostModel, InstrBlock, InstrClass, Memory};
use nm_platform::Scratchpad;

/// One im2col patch row decomposed into zero padding and the contiguous
/// in-bounds span, in filter-column units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowSplit {
    /// Source input row, or `None` when the whole row is vertical
    /// padding.
    y: Option<usize>,
    /// Left zero-padding columns.
    left: usize,
    /// In-bounds columns (copied from the input).
    span: usize,
    /// Right zero-padding columns.
    right: usize,
    /// First input column of the span (meaningful when `span > 0`).
    x: usize,
}

impl RowSplit {
    /// Distinct store regions the row splits into (1 for a vertical-pad
    /// or pad-free row; up to 3 with both paddings present).
    fn regions(&self) -> u64 {
        if self.y.is_none() {
            1
        } else {
            u64::from(self.left > 0) + u64::from(self.span > 0) + u64::from(self.right > 0)
        }
    }

    /// ALU instructions charged for the split's address/length updates:
    /// two per region beyond the first. A pad-free row (one contiguous
    /// copy) and a fully padded row (one fill) charge nothing extra.
    fn split_alu(&self) -> u64 {
        2 * self.regions().saturating_sub(1)
    }
}

/// The horizontal clamp shared by every row of a patch with origin
/// column `x0`: (first in-bounds filter column, one past the last).
#[inline]
fn x_bounds(geom: &ConvGeom, x0: isize) -> (usize, usize) {
    let left = (-x0).clamp(0, geom.fx as isize) as usize;
    let right_start = (geom.ix as isize - x0).clamp(0, geom.fx as isize) as usize;
    (left, right_start)
}

/// The padding decomposition of patch row `ky` at output position
/// `(oy, ox)` — the single source of truth for charging (all three
/// execution modes) and for data movement (reference and bulk).
fn row_split(geom: &ConvGeom, oy: usize, ox: usize, ky: usize) -> RowSplit {
    let y = (oy * geom.stride + ky) as isize - geom.pad as isize;
    if y < 0 || y >= geom.iy as isize {
        return RowSplit {
            y: None,
            left: 0,
            span: 0,
            right: geom.fx,
            x: 0,
        };
    }
    let x0 = (ox * geom.stride) as isize - geom.pad as isize;
    let (left, right_start) = x_bounds(geom, x0);
    let span = right_start.saturating_sub(left);
    RowSplit {
        y: Some(y as usize),
        left,
        span,
        right: geom.fx - right_start,
        x: (x0 + left as isize).max(0) as usize,
    }
}

/// Builds the *transposed* im2col patch block for output position `pos`
/// across `NR` batch request inputs: element `i` of request `r`'s patch
/// lands at `dst[i * NR + r]` (`dst.len() == patch_len() * NR`).
/// Host-side data movement only — the uncharged batch sweep
/// (`conv::drive_conv_batch`) uses this layout so each gathered patch
/// element is contiguous across requests and the request-inner dot loop
/// vectorizes at a compile-time width. Row decomposition goes through
/// the same [`row_split`] as every other im2col consumer, so the
/// per-request bytes are exactly what a per-request materialization
/// would produce.
pub(crate) fn patch_transposed<const NR: usize>(
    geom: &ConvGeom,
    inputs: &[&[i8]; NR],
    pos: usize,
    dst: &mut [u8],
) {
    let c = geom.c;
    let row_bytes = geom.fx * c;
    debug_assert_eq!(dst.len(), geom.patch_len() * NR);
    let (oy, ox) = (pos / geom.ox(), pos % geom.ox());
    for ky in 0..geom.fy {
        let s = row_split(geom, oy, ox, ky);
        let base = ky * row_bytes;
        let Some(y) = s.y else {
            dst[base * NR..(base + row_bytes) * NR].fill(0);
            continue;
        };
        let (left, span) = (s.left * c, s.span * c);
        dst[base * NR..(base + left) * NR].fill(0);
        dst[(base + left + span) * NR..(base + row_bytes) * NR].fill(0);
        let src0 = (y * geom.ix + s.x) * c;
        let span_dst = &mut dst[(base + left) * NR..(base + left + span) * NR];
        for (r, input) in inputs.iter().enumerate() {
            let src = &input[src0..src0 + span];
            for (i, &v) in src.iter().enumerate() {
                span_dst[i * NR + r] = v as u8;
            }
        }
    }
}

/// Charges and performs a copy of `len` bytes from `src` to `dst` using
/// word accesses plus a byte tail.
fn copy_bytes(core: &mut Core, mem: &mut Scratchpad, src: u32, dst: u32, len: usize) {
    let words = len / 4;
    let tail = len % 4;
    core.charge(InstrClass::Load, (words + tail) as u64);
    core.charge(InstrClass::Store, (words + tail) as u64);
    // The charging above is the cost model; the copy itself has no
    // per-byte semantics, so it moves in bulk.
    mem.copy_within(src, dst, len);
}

/// Charges and performs a zero fill of `len` bytes at `dst`.
fn zero_bytes(core: &mut Core, mem: &mut Scratchpad, dst: u32, len: usize) {
    let words = len / 4;
    let tail = len % 4;
    core.charge(InstrClass::Store, (words + tail) as u64);
    mem.fill_bytes(dst, len, 0);
}

/// Fills one im2col buffer at `buf` with the patch for output position
/// `(oy, ox)`, charging the copy cost on `core` instruction by
/// instruction — the reference the closed-form [`patch_block`] matches.
///
/// The buffer layout is `(ky, kx, c)` row-major — the same flattening as
/// one weight filter row, so dense word loads and N:M block offsets index
/// it directly.
pub fn im2col_patch(
    core: &mut Core,
    mem: &mut Scratchpad,
    geom: &ConvGeom,
    input: u32,
    buf: u32,
    oy: usize,
    ox: usize,
) {
    let c = geom.c;
    let row_bytes = geom.fx * c;
    for ky in 0..geom.fy {
        let s = row_split(geom, oy, ox, ky);
        let dst_row = buf + (ky * row_bytes) as u32;
        core.outer_loop_iter();
        core.alu_n(2); // row address computation
        let Some(y) = s.y else {
            zero_bytes(core, mem, dst_row, row_bytes);
            continue;
        };
        core.alu_n(s.split_alu()); // pad-split pointer/length updates
        if s.left > 0 {
            zero_bytes(core, mem, dst_row, s.left * c);
        }
        if s.span > 0 {
            let src = input + ((y * geom.ix + s.x) * c) as u32;
            copy_bytes(core, mem, src, dst_row + (s.left * c) as u32, s.span * c);
        }
        if s.right > 0 {
            zero_bytes(
                core,
                mem,
                dst_row + ((s.left + s.span) * c) as u32,
                s.right * c,
            );
        }
    }
}

/// The closed-form cost of [`im2col_patch`] for output position
/// `(oy, ox)` under `costs` — the bulk and analytic paths' batched
/// equivalent of the reference's per-row charge sequence (loop
/// bookkeeping, row address ALU, pad-split ALU, word-copy loads/stores,
/// zero-fill stores).
///
/// Exactness contract: charging this block changes every [`Core`]
/// statistic by exactly what [`im2col_patch`] would, for any cost model.
pub fn patch_block(costs: &CostModel, geom: &ConvGeom, oy: usize, ox: usize) -> InstrBlock {
    let c = geom.c;
    let row_bytes = geom.fx * c;
    let mut block = InstrBlock::new();
    for ky in 0..geom.fy {
        let s = row_split(geom, oy, ox, ky);
        block = block.outer_iter(costs).alu(2);
        if s.y.is_none() {
            block = block.bulk_fill(row_bytes);
            continue;
        }
        block = block.alu(s.split_alu());
        if s.left > 0 {
            block = block.bulk_fill(s.left * c);
        }
        if s.span > 0 {
            block = block.bulk_copy(s.span * c);
        }
        if s.right > 0 {
            block = block.bulk_fill(s.right * c);
        }
    }
    block
}

/// Fills `n_patches` (1 or 2) im2col buffers for the flattened output
/// positions `pos` and `pos + 1`. Buffer `p` lives at
/// `buf + p * patch_len`.
///
/// # Panics
/// Panics if `n_patches` is not 1 or 2 or positions run past the output.
pub fn im2col_patches(
    core: &mut Core,
    mem: &mut Scratchpad,
    geom: &ConvGeom,
    input: u32,
    buf: u32,
    pos: usize,
    n_patches: usize,
) {
    assert!(
        n_patches == 1 || n_patches == 2,
        "kernels unroll over at most two patches"
    );
    let ox_total = geom.ox();
    for p in 0..n_patches {
        let flat = pos + p;
        assert!(flat < ox_total * geom.oy(), "output position out of range");
        let (oy, ox) = (flat / ox_total, flat % ox_total);
        im2col_patch(
            core,
            mem,
            geom,
            input,
            buf + (p * geom.patch_len()) as u32,
            oy,
            ox,
        );
    }
}

/// A memoized cache of [`patch_block`]s keyed by padding class.
///
/// The block for `(oy, ox)` depends only on how many filter rows fall
/// above/below the input and on the horizontal `(left, span)` split —
/// interior positions all share one class — so a conv invocation touches
/// only a handful of distinct blocks. Shared by every core of a `drive`
/// invocation.
#[derive(Debug)]
pub struct Im2colCharges {
    costs: CostModel,
    /// The geometry the cached blocks were built for — the padding-class
    /// key does not encode `fy`/`c`, so one cache must never serve two
    /// geometries.
    geom: Option<ConvGeom>,
    cache: Vec<((usize, usize, usize, usize), InstrBlock)>,
}

impl Im2colCharges {
    /// Creates an empty cache for `costs`.
    pub fn new(costs: CostModel) -> Self {
        Im2colCharges {
            costs,
            geom: None,
            cache: Vec::new(),
        }
    }

    /// The charge block for the patch at `(oy, ox)`, built on first use
    /// of its padding class.
    ///
    /// # Panics
    /// Panics when called with a different `geom` than earlier calls —
    /// the padding-class key is only unique within one geometry, so a
    /// shared cache would silently return wrong blocks otherwise.
    pub fn patch(&mut self, geom: &ConvGeom, oy: usize, ox: usize) -> InstrBlock {
        match &self.geom {
            Some(g) => assert_eq!(g, geom, "one Im2colCharges serves one geometry"),
            None => self.geom = Some(*geom),
        }
        let y0 = (oy * geom.stride) as isize - geom.pad as isize;
        let below = (-y0).clamp(0, geom.fy as isize) as usize;
        let above = (y0 + geom.fy as isize - geom.iy as isize).clamp(0, geom.fy as isize) as usize;
        let key = if below + above >= geom.fy {
            // No in-bounds rows: every row is one full fill, wherever it
            // falls — normalize so all fully padded patches share a key.
            (geom.fy, 0, 0, 0)
        } else {
            let (left, right_start) =
                x_bounds(geom, (ox * geom.stride) as isize - geom.pad as isize);
            (below, above, left, right_start.saturating_sub(left))
        };
        // The fast key must classify positions exactly as `row_split`
        // (the cost model's source of truth) would; any drift here would
        // silently hand out a wrong memoized block.
        debug_assert_eq!(
            key,
            Self::key_via_row_split(geom, oy, ox),
            "at ({oy}, {ox})"
        );
        if let Some((_, block)) = self.cache.iter().find(|(k, _)| *k == key) {
            return *block;
        }
        let block = patch_block(&self.costs, geom, oy, ox);
        self.cache.push((key, block));
        block
    }

    /// The padding-class key derived by scanning [`row_split`] row by
    /// row — the reference the fast derivation in [`Self::patch`] is
    /// checked against in debug builds.
    fn key_via_row_split(geom: &ConvGeom, oy: usize, ox: usize) -> (usize, usize, usize, usize) {
        let (mut below, mut above) = (0, 0);
        let mut horiz = (0, 0);
        let mut seen_in_bounds = false;
        for ky in 0..geom.fy {
            let s = row_split(geom, oy, ox, ky);
            if s.y.is_none() {
                *(if seen_in_bounds {
                    &mut above
                } else {
                    &mut below
                }) += 1;
            } else {
                seen_in_bounds = true;
                horiz = (s.left, s.span);
            }
        }
        (below, above, horiz.0, horiz.1)
    }
}

/// Per-core incremental im2col state for the bulk fast path.
///
/// Tracks which output position each of the core's two patch buffers
/// *logically* holds ([`PatchState::fill`] — charging only) separately
/// from what is *materialized* in the scratchpad
/// ([`PatchState::materialize`] / [`PatchState::finish`] — data movement
/// only). See the module docs for the full contract.
#[derive(Debug)]
pub struct PatchState {
    input: u32,
    buf: u32,
    /// Flat output position each slot logically holds after `fill`.
    logical: [Option<usize>; 2],
    /// Flat output position each slot's scratchpad bytes actually hold.
    materialized: [Option<usize>; 2],
}

impl PatchState {
    /// Creates the state for one core: `input` is the input tensor base,
    /// `buf` the core's im2col region (two `patch_len()` buffers).
    pub fn new(input: u32, buf: u32) -> Self {
        PatchState {
            input,
            buf,
            logical: [None; 2],
            materialized: [None; 2],
        }
    }

    /// Charges `prefix` (the driver's per-iteration scaffold) plus the
    /// exact im2col cost for positions `pos .. pos + n_patches` (via the
    /// memoized closed form) in a single block, and records the slots'
    /// new logical contents, without touching memory.
    ///
    /// # Panics
    /// Panics if `n_patches` is not 1 or 2 or positions run past the
    /// output (mirroring [`im2col_patches`]).
    pub fn fill(
        &mut self,
        core: &mut Core,
        charges: &mut Im2colCharges,
        geom: &ConvGeom,
        prefix: &InstrBlock,
        pos: usize,
        n_patches: usize,
    ) {
        assert!(
            n_patches == 1 || n_patches == 2,
            "kernels unroll over at most two patches"
        );
        let ox_total = geom.ox();
        let mut block = *prefix;
        for p in 0..n_patches {
            let flat = pos + p;
            assert!(flat < ox_total * geom.oy(), "output position out of range");
            block = block.then(charges.patch(geom, flat / ox_total, flat % ox_total));
            self.logical[p] = Some(flat);
        }
        core.charge_block(&block);
    }

    /// Records the slots' new logical contents without charging anything
    /// — the uncharged twin of [`PatchState::fill`]. Batch-major sweeps
    /// use it for requests after the first, whose statistics are reused
    /// from request 0 (kernel charging depends only on geometry and
    /// weights, never on activation values), so only the data movement
    /// of [`PatchState::materialize`] / [`PatchState::finish`] remains.
    ///
    /// # Panics
    /// Panics if `n_patches` is not 1 or 2 or positions run past the
    /// output (mirroring [`PatchState::fill`]).
    pub fn record(&mut self, geom: &ConvGeom, pos: usize, n_patches: usize) {
        assert!(
            n_patches == 1 || n_patches == 2,
            "kernels unroll over at most two patches"
        );
        let ox_total = geom.ox();
        for p in 0..n_patches {
            let flat = pos + p;
            assert!(flat < ox_total * geom.oy(), "output position out of range");
            self.logical[p] = Some(flat);
        }
    }

    /// Brings the scratchpad buffers up to date with the logical slot
    /// contents; slots whose bytes already match are untouched. Eager
    /// callers (kernels whose channel loops read the buffers every
    /// position) rebuild each stale slot in full — one contiguous copy
    /// per in-bounds row, exactly the reference's movement.
    pub fn materialize(&mut self, mem: &mut Scratchpad, geom: &ConvGeom) {
        self.sync(mem, geom, false);
    }

    /// Materializes the final patch buffers — call once per core after
    /// its position loop, so the scratchpad ends bit-identical to the
    /// reference path's (which rebuilt the buffers at every position).
    /// Here a slot with a materialized same-row neighbor (including its
    /// own previous contents) is built by `copy_within`-shifting the
    /// retained `(fx - |Δox| * stride) * c` columns per row and
    /// copying/zero-filling only the new ones — worthwhile precisely
    /// because this runs once, not per position.
    pub fn finish(&mut self, mem: &mut Scratchpad, geom: &ConvGeom) {
        self.sync(mem, geom, true);
    }

    fn sync(&mut self, mem: &mut Scratchpad, geom: &ConvGeom, slide: bool) {
        let plen = geom.patch_len();
        let ox_total = geom.ox();
        // One bulk borrow for the whole patch build; row operations are
        // plain slice copies (bus errors still panic via slice bounds).
        let bytes = mem.bytes_mut();
        for p in 0..2 {
            let Some(pos) = self.logical[p] else { continue };
            if self.materialized[p] == Some(pos) {
                continue;
            }
            let (oy, ox) = (pos / ox_total, pos % ox_total);
            let dst = self.buf + (p * plen) as u32;
            // Pick the materialized slot with the smallest same-row
            // shift still sharing columns with the target patch.
            let mut source: Option<(usize, usize, usize)> = None; // (slot, src_ox, |Δox|)
            for (q, &mat) in self.materialized.iter().enumerate() {
                if !slide {
                    break;
                }
                let Some(mpos) = mat else { continue };
                if mpos / ox_total != oy {
                    continue;
                }
                let src_ox = mpos % ox_total;
                let dx = src_ox.abs_diff(ox);
                if dx == 0 || dx * geom.stride >= geom.fx {
                    continue;
                }
                if source.is_none_or(|(_, _, best)| dx < best) {
                    source = Some((q, src_ox, dx));
                }
            }
            match source {
                Some((q, src_ox, _)) => {
                    let src = self.buf + (q * plen) as u32;
                    build_patch_shifted(bytes, geom, self.input, src, src_ox, dst, oy, ox);
                }
                None => build_patch_full(bytes, geom, self.input, dst, oy, ox),
            }
            self.materialized[p] = Some(pos);
        }
    }
}

/// Writes patch-row columns `[lo, hi)` (input row `y`, patch origin
/// column `x0`) on the raw scratchpad bytes — data movement only,
/// charging is the caller's.
#[allow(clippy::too_many_arguments)]
fn write_row_cols(
    bytes: &mut [u8],
    geom: &ConvGeom,
    input: u32,
    dst_row: u32,
    y: Option<usize>,
    x0: isize,
    lo: usize,
    hi: usize,
) {
    if hi <= lo {
        return;
    }
    let c = geom.c;
    let dst_row = dst_row as usize;
    let Some(y) = y else {
        bytes[dst_row + lo * c..dst_row + hi * c].fill(0);
        return;
    };
    let (left_end, right_start) = x_bounds(geom, x0);
    let zl_hi = hi.min(left_end);
    if zl_hi > lo {
        bytes[dst_row + lo * c..dst_row + zl_hi * c].fill(0);
    }
    let s_lo = lo.max(left_end);
    let s_hi = hi.min(right_start);
    if s_hi > s_lo {
        let src = input as usize + (y * geom.ix + (x0 + s_lo as isize) as usize) * c;
        bytes.copy_within(src..src + (s_hi - s_lo) * c, dst_row + s_lo * c);
    }
    let zr_lo = lo.max(right_start);
    if hi > zr_lo {
        bytes[dst_row + zr_lo * c..dst_row + hi * c].fill(0);
    }
}

/// Builds the full patch for `(oy, ox)` at `dst` (movement only): one
/// fill or up to pad-fill / contiguous-copy / pad-fill per row, straight
/// from the [`row_split`] — the hot path of eager materialization.
fn build_patch_full(bytes: &mut [u8], geom: &ConvGeom, input: u32, dst: u32, oy: usize, ox: usize) {
    let c = geom.c;
    let row_bytes = geom.fx * c;
    for ky in 0..geom.fy {
        let s = row_split(geom, oy, ox, ky);
        let dst_row = dst as usize + ky * row_bytes;
        let Some(y) = s.y else {
            bytes[dst_row..dst_row + row_bytes].fill(0);
            continue;
        };
        if s.left > 0 {
            bytes[dst_row..dst_row + s.left * c].fill(0);
        }
        if s.span > 0 {
            let src = input as usize + (y * geom.ix + s.x) * c;
            bytes.copy_within(src..src + s.span * c, dst_row + s.left * c);
        }
        if s.right > 0 {
            let start = dst_row + (s.left + s.span) * c;
            bytes[start..start + s.right * c].fill(0);
        }
    }
}

/// Builds the patch for `(oy, dst_ox)` at `dst` by shifting the retained
/// columns from the materialized patch for `(oy, src_ox)` at `src` and
/// writing only the new ones (movement only).
///
/// The retained columns cover the same input coordinates in both
/// patches — including any zero padding — so the `copy_within` is exact
/// regardless of which padding class the row is in.
#[allow(clippy::too_many_arguments)]
fn build_patch_shifted(
    bytes: &mut [u8],
    geom: &ConvGeom,
    input: u32,
    src: u32,
    src_ox: usize,
    dst: u32,
    oy: usize,
    dst_ox: usize,
) {
    let c = geom.c;
    let row_bytes = geom.fx * c;
    let shift = (dst_ox as isize - src_ox as isize) * geom.stride as isize;
    let keep = geom.fx - shift.unsigned_abs();
    debug_assert!(shift != 0 && keep > 0, "caller checked overlap");
    let x0 = (dst_ox * geom.stride) as isize - geom.pad as isize;
    for ky in 0..geom.fy {
        let s = row_split(geom, oy, dst_ox, ky);
        let src_row = src as usize + ky * row_bytes;
        let dst_row = dst + (ky * row_bytes) as u32;
        if shift > 0 {
            // Sliding right: retained columns move to the row start, new
            // columns appear on the right.
            let sc = shift as usize;
            bytes.copy_within(
                src_row + sc * c..src_row + (sc + keep) * c,
                dst_row as usize,
            );
            write_row_cols(bytes, geom, input, dst_row, s.y, x0, keep, geom.fx);
        } else {
            let sc = (-shift) as usize;
            bytes.copy_within(src_row..src_row + keep * c, dst_row as usize + sc * c);
            write_row_cols(bytes, geom, input, dst_row, s.y, x0, 0, sc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_isa::CostModel;
    use nm_platform::Scratchpad;

    fn geom() -> ConvGeom {
        ConvGeom::square(4, 1, 4, 3, 1, 1).unwrap()
    }

    fn staged(geom: &ConvGeom) -> (Scratchpad, u32, u32) {
        let mut l1 = Scratchpad::new("l1", 16 * 1024);
        let input_addr = l1.alloc(geom.input_elems(), 4).unwrap();
        let buf = l1.alloc(2 * geom.patch_len(), 4).unwrap();
        for i in 0..geom.input_elems() {
            l1.store_i8(input_addr + i as u32, (i as i32 % 100) as i8 - 50);
        }
        (l1, input_addr, buf)
    }

    /// Reference im2col using padded tensor access.
    fn reference_patch(geom: &ConvGeom, input: &[i8], oy: usize, ox: usize) -> Vec<i8> {
        let mut out = Vec::with_capacity(geom.patch_len());
        for ky in 0..geom.fy {
            for kx in 0..geom.fx {
                let y = (oy * geom.stride + ky) as isize - geom.pad as isize;
                let x = (ox * geom.stride + kx) as isize - geom.pad as isize;
                for ch in 0..geom.c {
                    let v = if y < 0 || y >= geom.iy as isize || x < 0 || x >= geom.ix as isize {
                        0
                    } else {
                        input[(y as usize * geom.ix + x as usize) * geom.c + ch]
                    };
                    out.push(v);
                }
            }
        }
        out
    }

    /// The geometry grid shared by the exactness tests: dense, C tails,
    /// strides, pointwise, asymmetric, plus the padded extremes the bulk
    /// path must survive (stride > fx, pad >= fx, ox == 1).
    fn geom_grid() -> Vec<ConvGeom> {
        vec![
            geom(),
            ConvGeom::square(3, 1, 5, 3, 1, 1).unwrap(), // C not multiple of 4
            ConvGeom::square(8, 1, 6, 3, 2, 1).unwrap(), // strided
            ConvGeom::square(4, 1, 8, 1, 1, 0).unwrap(), // pointwise
            ConvGeom::new(2, 1, 7, 5, 3, 2, 1, 2).unwrap(), // asymmetric filter, big pad
            ConvGeom::square(2, 1, 9, 2, 3, 1).unwrap(), // stride > fx: no column reuse
            ConvGeom::square(3, 1, 4, 3, 1, 3).unwrap(), // pad >= fx: fully padded edges
            ConvGeom::new(2, 1, 3, 4, 3, 3, 1, 0).unwrap(), // ox == 1: single column
        ]
    }

    #[test]
    fn matches_reference_over_all_positions() {
        for g in geom_grid() {
            let (mut l1, input_addr, buf) = staged(&g);
            let input: Vec<i8> = (0..g.input_elems() as u32)
                .map(|i| l1.load_i8(input_addr + i))
                .collect();
            for pos in 0..g.oy() * g.ox() {
                let (oy, ox) = (pos / g.ox(), pos % g.ox());
                let mut core = Core::new(CostModel::default());
                im2col_patch(&mut core, &mut l1, &g, input_addr, buf, oy, ox);
                let got: Vec<i8> = (0..g.patch_len() as u32)
                    .map(|i| l1.load_i8(buf + i))
                    .collect();
                assert_eq!(
                    got,
                    reference_patch(&g, &input, oy, ox),
                    "geom {g:?} pos {pos}"
                );
            }
        }
    }

    /// The closed-form block must charge exactly what the reference
    /// charges, per position, for a stalled model too.
    #[test]
    fn patch_block_matches_reference_charging() {
        let stalled = CostModel {
            base: 2,
            load_stall: 3,
            branch_taken_penalty: 5,
            outer_loop_instrs: 4,
            ..CostModel::VEGA
        };
        for costs in [CostModel::default(), stalled] {
            for g in geom_grid() {
                let (mut l1, input_addr, buf) = staged(&g);
                for pos in 0..g.oy() * g.ox() {
                    let (oy, ox) = (pos / g.ox(), pos % g.ox());
                    let mut reference = Core::new(costs);
                    im2col_patch(&mut reference, &mut l1, &g, input_addr, buf, oy, ox);
                    let mut fast = Core::new(costs);
                    fast.charge_block(&patch_block(&costs, &g, oy, ox));
                    assert_eq!(
                        fast.stats(),
                        reference.stats(),
                        "geom {g:?} pos {pos} costs {costs:?}"
                    );
                }
            }
        }
    }

    /// PatchState (memoized charging + slide/full materialization) must
    /// agree with the reference on stats and bytes at every position,
    /// whether it materializes eagerly or only at the end.
    #[test]
    fn patch_state_matches_reference_charges_and_bytes() {
        for g in geom_grid() {
            for eager in [true, false] {
                let (l1, input_addr, buf) = staged(&g);
                let mut l1_ref = l1.clone();
                let mut l1_bulk = l1.clone();
                let mut reference = Core::new(CostModel::default());
                let mut fast = Core::new(CostModel::default());
                let mut charges = Im2colCharges::new(CostModel::default());
                let mut state = PatchState::new(input_addr, buf);
                let n_pos = g.oy() * g.ox();
                let mut pos = 0;
                while pos < n_pos {
                    let n = (n_pos - pos).min(2);
                    im2col_patches(&mut reference, &mut l1_ref, &g, input_addr, buf, pos, n);
                    state.fill(&mut fast, &mut charges, &g, &InstrBlock::new(), pos, n);
                    if eager {
                        state.materialize(&mut l1_bulk, &g);
                        assert_eq!(
                            l1_ref.bytes(),
                            l1_bulk.bytes(),
                            "geom {g:?} pos {pos} eager bytes"
                        );
                    }
                    pos += n;
                }
                state.finish(&mut l1_bulk, &g);
                assert_eq!(l1_ref.bytes(), l1_bulk.bytes(), "geom {g:?} final bytes");
                assert_eq!(fast.stats(), reference.stats(), "geom {g:?} stats");
            }
        }
    }

    #[test]
    fn padded_positions_cost_no_loads() {
        // A fully padded patch (pointless in practice, but possible with
        // large padding) must charge stores only.
        let g = ConvGeom::new(4, 1, 4, 4, 2, 2, 1, 3).unwrap();
        let (mut l1, input_addr, buf) = staged(&g);
        let mut core = Core::new(CostModel::default());
        // position (0,0) with pad 3 and filter 2x2: rows -3,-2 -> all pad.
        im2col_patch(&mut core, &mut l1, &g, input_addr, buf, 0, 0);
        assert_eq!(core.count(InstrClass::Load), 0);
        assert!(core.count(InstrClass::Store) > 0);
    }

    /// The pad-split fix: a row split into left pad + span + right pad
    /// must charge more ALU than a pad-free row of the same geometry.
    #[test]
    fn padded_rows_charge_split_alu() {
        // 5x5 input, 3x3 filter, pad 1: position (1, 0) has left pad,
        // (1, 2) is interior pad-free — identical spans of loads/stores
        // per row differ, but the ALU delta is what this test pins.
        let g = ConvGeom::square(4, 1, 5, 3, 1, 1).unwrap();
        let cost_at =
            |ox: usize| patch_block(&CostModel::default(), &g, 1, ox).count(InstrClass::Alu);
        // Interior row: 1 region -> no split ALU. Left-pad position:
        // 2 regions (pad fill + span copy) -> +2 ALU per in-bounds row.
        assert_eq!(cost_at(0), cost_at(2) + 3 * 2);
        // Both-sided padding (fx wider than the input): 3 regions, +4.
        let narrow = ConvGeom::new(2, 1, 2, 4, 4, 3, 1, 1).unwrap();
        let s = row_split(&narrow, 1, 0, 0);
        assert_eq!(s.regions(), 3);
        assert_eq!(s.split_alu(), 4);
        // A vertically padded row and a pad-free row stay split-free.
        assert_eq!(row_split(&narrow, 0, 0, 0).split_alu(), 0);
        let interior = ConvGeom::square(4, 1, 5, 3, 1, 1).unwrap();
        assert_eq!(row_split(&interior, 1, 1, 0).split_alu(), 0);
    }

    #[test]
    #[should_panic(expected = "one Im2colCharges serves one geometry")]
    fn charge_cache_rejects_geometry_reuse() {
        // The padding-class key is only unique within one geometry; a
        // shared cache across geometries must fail loudly.
        let mut charges = Im2colCharges::new(CostModel::default());
        charges.patch(&geom(), 0, 0);
        charges.patch(&ConvGeom::square(8, 1, 6, 3, 2, 1).unwrap(), 0, 0);
    }

    #[test]
    #[should_panic]
    fn more_than_two_patches_panics() {
        let g = geom();
        let (mut l1, input_addr, buf) = staged(&g);
        let mut core = Core::new(CostModel::default());
        im2col_patches(&mut core, &mut l1, &g, input_addr, buf, 0, 3);
    }
}
