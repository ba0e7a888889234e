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
//! the analytic walk charges, so they agree by construction.
//!
//! # Charging and moving on the three contexts
//!
//! On the per-instruction reference path ([`crate::Ctx::Mem`]) every
//! output position pair rebuilds both patch buffers from the input
//! tensor, exactly as the modeled kernel does, charging as it goes. The
//! other two contexts split that work:
//!
//! * **Charging is closed-form.** The analytic walk (which also yields
//!   the bulk tier's statistics) charges the exact per-position cost of
//!   the full rebuild through a memoized [`patch_block`]
//!   ([`Im2colCharges::pair`]; positions sharing a padding class share
//!   one [`InstrBlock`]), so cycles, instret and per-class counts match
//!   the reference *by construction*.
//! * **Movement is uncharged.** The conv sweep never reads the
//!   scratchpad's im2col buffers: the crate-private `patch_lanes` builds
//!   each 16-lane chunk's patches straight from the requests' inputs,
//!   lane-transposed (two 8×8 byte transposes per 8 patch bytes; rows
//!   of 1, 2 or 4 bytes packed `8 / row` kernel rows per transpose),
//!   from the same `row_split` rows as the reference.
//!   A single run of any conv kernel, the per-channel mixed ones
//!   included, and the im2col-only engine workload then build only each
//!   core's final patches with the crate-private `build_patches` (one
//!   fill or up to pad-fill / contiguous copy / pad-fill per row, on one
//!   borrow of the raw scratchpad bytes), so the scratchpad ends in the
//!   state the reference leaves behind.
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

/// Lanes per [`patch_lanes`] block: the conv sweep's width.
const LANES: usize = crate::bulk::CONV_LANES;

/// Builds the lane-transposed im2col block of one conv sweep chunk:
/// lane `j` is `lanes[j] = (input, flat output position)`, and element
/// `i` of its patch lands at `dst[i * 16 + j]` (`dst` holds 16 entries
/// per patch element), sign-extended to `i16`, so each gathered patch
/// element is one 32-byte row across lanes and the sweep's dot runs at a
/// compile-time width. Host-side data movement only. Row decomposition
/// goes through the same [`row_split`] as every other im2col consumer,
/// so each lane holds exactly the bytes `build_patches` writes for its
/// (input, position).
///
/// Each patch row is two 8×8 byte transposes per 8 bytes
/// ([`transpose_lanes`]), one per 8-lane half. When every lane's first
/// and last patch rows are whole in-bounds spans — every chunk of the
/// executor's pre-padded (`pad = 0`) tiles — all its rows are, one input
/// row apart, and the transposes read them straight from the inputs;
/// rows of 1, 2 or 4 bytes are first packed `8 / row` consecutive kernel
/// rows to an 8-byte lane row ([`packed_rows`]), so they transpose too.
/// Otherwise (padded direct kernel calls, at the edges) each lane's row
/// is first staged with its zero padding. Input reads are bounds-checked
/// slices; an empty span reads nothing.
pub(crate) fn patch_lanes(geom: &ConvGeom, lanes: &[(&[i8], usize); LANES], dst: &mut [i16]) {
    let (c, ox_total) = (geom.c, geom.ox());
    let row = geom.fx * c;
    assert_eq!(dst.len(), geom.patch_len() * LANES, "one block of 16 lanes");
    let yx = lanes.map(|(_, pos)| (pos / ox_total, pos % ox_total));
    let top = yx.map(|(oy, ox)| row_split(geom, oy, ox, 0));
    let whole = |s: &RowSplit| s.y.is_some() && s.span == geom.fx;
    let interior = top
        .iter()
        .zip(&yx)
        .all(|(s, &(oy, ox))| whole(s) && whole(&row_split(geom, oy, ox, geom.fy - 1)));
    // Where lane `j`'s kernel row `ky` starts in its input (interior).
    let start = |j: usize, ky: usize| {
        let s = &top[j];
        ((s.y.unwrap_or(0) + ky) * geom.ix + s.x) * c
    };
    if interior && geom.fy * row >= 8 {
        let stride = geom.ix * c;
        let rows: [_; LANES] = core::array::from_fn(|j| (lanes[j].0, start(j, 0)));
        match row {
            1 => return packed_rows::<1>(&rows, stride, dst),
            2 => return packed_rows::<2>(&rows, stride, dst),
            4 => return packed_rows::<4>(&rows, stride, dst),
            _ => {}
        }
    }
    let mut stage = if interior {
        Vec::new()
    } else {
        vec![0i8; LANES * row]
    };
    for (ky, dst) in dst.chunks_exact_mut(row * LANES).enumerate() {
        for ((lane, &(oy, ox)), &(input, _)) in stage.chunks_exact_mut(row).zip(&yx).zip(lanes) {
            let s = row_split(geom, oy, ox, ky);
            let span = span_bytes(geom, input, &s);
            lane.fill(0);
            lane[s.left * c..][..span.len()].copy_from_slice(span);
        }
        let src = core::array::from_fn(|j| {
            if interior {
                &lanes[j].0[start(j, ky)..][..row]
            } else {
                &stage[j * row..(j + 1) * row]
            }
        });
        transpose_lanes(&src, dst);
    }
}

/// [`patch_lanes`] for interior chunks whose patch rows are `R` (1, 2
/// or 4) bytes: `8 / R` consecutive kernel rows of each lane, one input
/// row (`stride` bytes) apart from `rows[j] = (input, first row's
/// start)`, are packed into one 8-byte lane row, so one transpose per
/// 8-lane half writes all of them. The last group starts early enough to
/// end at the patch's last row (rewriting identical values), so the
/// patch needs at least 8 bytes.
fn packed_rows<const R: usize>(rows: &[(&[i8], usize); LANES], stride: usize, dst: &mut [i16]) {
    let (per, fy) = (8 / R, dst.len() / (R * LANES));
    assert!(8 % R == 0 && fy >= per, "whole kernel rows per 8 bytes");
    for ky in (0..fy).step_by(per) {
        let ky = ky.min(fy - per);
        let packed: [[i8; 8]; LANES] = core::array::from_fn(|j| {
            let (input, first) = rows[j];
            let mut w = [0i8; 8];
            for (q, part) in w.chunks_exact_mut(R).enumerate() {
                let at = first + (ky + q) * stride;
                part.copy_from_slice(&input[at..at + R]);
            }
            w
        });
        let src = packed.each_ref().map(|w| &w[..]);
        transpose_lanes(&src, &mut dst[ky * R * LANES..(ky + per) * R * LANES]);
    }
}

/// The input bytes of a row's in-bounds span (empty for a vertical-pad
/// row or an empty span, without indexing the input).
fn span_bytes<'a>(geom: &ConvGeom, input: &'a [i8], s: &RowSplit) -> &'a [i8] {
    match s.y {
        Some(y) if s.span > 0 => {
            let start = (y * geom.ix + s.x) * geom.c;
            &input[start..start + s.span * geom.c]
        }
        _ => &[],
    }
}

/// Interleaves 16 equal-length byte rows, sign-extended: `dst[i * 16 +
/// j] = src[j][i]`. On x86-64, rows of 8 bytes or more go through SSE2
/// 8×8 transposes, one per 8-lane half (a ragged tail re-transposes the
/// last 8 columns, rewriting identical values); shorter rows, and other
/// targets, take the scalar scatter.
fn transpose_lanes(src: &[&[i8]; LANES], dst: &mut [i16]) {
    let n = dst.len() / LANES;
    assert!(src.iter().all(|s| s.len() == n), "equal-length lane rows");
    #[cfg(target_arch = "x86_64")]
    if n >= 8 {
        for at in (0..n).step_by(8) {
            let at = at.min(n - 8);
            for (h, half) in src.chunks_exact(8).enumerate() {
                let rows = core::array::from_fn(|j| &half[j][at..at + 8]);
                transpose8x8(&rows, &mut dst[at * LANES + 8 * h..]);
            }
        }
        return;
    }
    for (j, s) in src.iter().enumerate() {
        for (d, &v) in dst[j..].iter_mut().step_by(LANES).zip(*s) {
            *d = i16::from(v);
        }
    }
}

/// One SSE2 8×8 byte transpose, sign-extended, into 8 lanes of 8 block
/// rows: `dst[i * 16 + j] = rows[j][i]`. Three rounds of interleaves
/// (words, doublewords, quadwords) leave each pair of columns `2q, 2q +
/// 1` byte-interleaved in one register, lane-major; arithmetic shifts
/// then split it into the two columns' `i16` rows without further
/// shuffles.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn transpose8x8(rows: &[&[i8]; 8], dst: &mut [i16]) {
    use core::arch::x86_64::*;
    assert!(rows.iter().all(|r| r.len() == 8) && dst.len() >= 7 * LANES + 8);
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; each load reads
    // the 8 bytes of a row and each of the eight stores writes entries
    // `i * 16..i * 16 + 8` of `dst` for one `i < 8`, all bounds-checked
    // just above.
    unsafe {
        let ld = |j: usize| _mm_loadl_epi64(rows[j].as_ptr().cast());
        // (row, column) at byte 4 * (c / 2) + 2 * (r % 2) + c % 2.
        let a01 = _mm_unpacklo_epi16(ld(0), ld(1));
        let a23 = _mm_unpacklo_epi16(ld(2), ld(3));
        let a45 = _mm_unpacklo_epi16(ld(4), ld(5));
        let a67 = _mm_unpacklo_epi16(ld(6), ld(7));
        // Rows 0-3 (b) and 4-7 (c): columns 0-3 (lo) and 4-7 (hi), with
        // (row, column) at byte 8 * (c / 2 % 2) + 2 * (r % 4) + c % 2.
        let (b_lo, b_hi) = (_mm_unpacklo_epi32(a01, a23), _mm_unpackhi_epi32(a01, a23));
        let (c_lo, c_hi) = (_mm_unpacklo_epi32(a45, a67), _mm_unpackhi_epi32(a45, a67));
        // Columns 2q and 2q + 1 with (row, column) at byte 2 * r + c % 2.
        let pairs = [
            _mm_unpacklo_epi64(b_lo, c_lo),
            _mm_unpackhi_epi64(b_lo, c_lo),
            _mm_unpacklo_epi64(b_hi, c_hi),
            _mm_unpackhi_epi64(b_hi, c_hi),
        ];
        let out = dst.as_mut_ptr();
        for (q, pair) in pairs.into_iter().enumerate() {
            let even = _mm_srai_epi16::<8>(_mm_slli_epi16::<8>(pair));
            let odd = _mm_srai_epi16::<8>(pair);
            _mm_storeu_si128(out.add(2 * q * LANES).cast(), even);
            _mm_storeu_si128(out.add((2 * q + 1) * LANES).cast(), odd);
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
/// only a handful of distinct blocks. Shared by every core of a
/// `conv::drive_conv` invocation.
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

    /// `prefix` (the driver's per-iteration scaffold) followed by the
    /// im2col blocks of positions `pos .. pos + n_patches`, as one block
    /// — the analytic charge of one position pair.
    pub fn pair(
        &mut self,
        geom: &ConvGeom,
        prefix: &InstrBlock,
        pos: usize,
        n_patches: usize,
    ) -> InstrBlock {
        let ox = geom.ox();
        (pos..pos + n_patches).fold(*prefix, |block, flat| {
            block.then(self.patch(geom, flat / ox, flat % ox))
        })
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

/// Builds the im2col buffers of one position pair without charging:
/// patch `p` (flat output position `pos + p`) at `buf + p * patch_len`,
/// one fill or up to pad-fill / contiguous copy / pad-fill per row
/// straight from the [`row_split`] — the bytes [`im2col_patches`] writes,
/// on one borrow of the raw scratchpad (bus errors still panic via slice
/// bounds).
pub(crate) fn build_patches(
    mem: &mut Scratchpad,
    geom: &ConvGeom,
    input: u32,
    buf: u32,
    pos: usize,
    n_patches: usize,
) {
    let (c, ox_total) = (geom.c, geom.ox());
    debug_assert!(n_patches == 1 || n_patches == 2);
    debug_assert!(pos + n_patches <= ox_total * geom.oy());
    let row_bytes = geom.fx * c;
    let bytes = mem.bytes_mut();
    for p in 0..n_patches {
        let (oy, ox) = ((pos + p) / ox_total, (pos + p) % ox_total);
        let dst = buf as usize + p * geom.patch_len();
        for ky in 0..geom.fy {
            let s = row_split(geom, oy, ox, ky);
            let dst_row = dst + ky * row_bytes;
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

    /// The memoized pair charges and the uncharged `build_patches` must
    /// agree with the reference: bytes after every position pair, stats
    /// over the whole walk.
    #[test]
    fn build_patches_matches_reference_charges_and_bytes() {
        for g in geom_grid() {
            let (l1, input_addr, buf) = staged(&g);
            let mut l1_ref = l1.clone();
            let mut l1_bulk = l1.clone();
            let mut reference = Core::new(CostModel::default());
            let mut fast = Core::new(CostModel::default());
            let mut charges = Im2colCharges::new(CostModel::default());
            let n_pos = g.oy() * g.ox();
            let mut pos = 0;
            while pos < n_pos {
                let n = (n_pos - pos).min(2);
                im2col_patches(&mut reference, &mut l1_ref, &g, input_addr, buf, pos, n);
                fast.charge_block(&charges.pair(&g, &InstrBlock::new(), pos, n));
                build_patches(&mut l1_bulk, &g, input_addr, buf, pos, n);
                assert_eq!(
                    l1_ref.bytes(),
                    l1_bulk.bytes(),
                    "geom {g:?} pos {pos} bytes"
                );
                pos += n;
            }
            assert_eq!(fast.stats(), reference.stats(), "geom {g:?} stats");
        }
    }

    /// `patch_lanes` must hold, lane by lane, the bytes `build_patches`
    /// writes for the same (input, position): on the padding-class grid,
    /// on DS-CNN's C = 1 stem (4-byte patch rows) padded and as the
    /// executor's pre-padded tile, on pre-padded tiles whose 1-, 2- and
    /// 4-byte rows pack several kernel rows per transpose (a last group
    /// that starts early included) or stay scalar (3-byte rows, patches
    /// under 8 bytes), and for lane sets that are uniform, straddle an
    /// output-row edge or a request boundary in either 8-lane half, or
    /// repeat their last lane in either half — plus every chunk a
    /// two-request sweep forms.
    #[test]
    fn patch_lanes_match_build_patches() {
        let mut geoms = geom_grid();
        geoms.extend([
            ConvGeom::square(8, 4, 7, 3, 2, 1).unwrap(), // strided, odd positions
            ConvGeom::square(8, 2, 4, 3, 1, 3).unwrap(), // pad >= fx
            ConvGeom::square(8, 4, 6, 1, 1, 0).unwrap(), // pointwise
            ConvGeom::new(8, 3, 3, 6, 3, 3, 1, 0).unwrap(), // ox == 1
            ConvGeom::square(8, 2, 9, 2, 3, 1).unwrap(), // stride > fx
            ConvGeom::new(1, 64, 10, 49, 4, 10, 2, 2).unwrap(), // DS-CNN stem
            ConvGeom::new(1, 64, 14, 53, 4, 10, 2, 0).unwrap(), // its tile
            ConvGeom::new(2, 4, 8, 9, 2, 3, 1, 0).unwrap(), // 4-byte rows, fy = 3
            ConvGeom::new(1, 4, 12, 20, 2, 9, 1, 0).unwrap(), // 2-byte rows, fy = 9
            ConvGeom::new(1, 4, 3, 20, 1, 10, 1, 0).unwrap(), // 1-byte rows, fy = 10
            ConvGeom::new(3, 4, 6, 6, 1, 3, 1, 0).unwrap(), // 3-byte rows
            ConvGeom::new(1, 4, 6, 6, 2, 2, 1, 0).unwrap(), // 4-byte patch
        ]);
        for g in geoms {
            let positions = g.oy() * g.ox();
            let inputs: Vec<Vec<i8>> = (0..2u64)
                .map(|r| crate::testdata::random_data(g.input_elems(), 5 + r))
                .collect();
            // Each lane's expected patch: staged alone, built alone.
            let patch = |r: usize, pos: usize| {
                let mut l1 = Scratchpad::new("l1", 64 * 1024);
                let input = l1.alloc(g.input_elems(), 4).unwrap();
                let buf = l1.alloc(g.patch_len(), 4).unwrap();
                crate::layout::copy_i8_to_bytes(
                    l1.slice_mut(input, g.input_elems()).unwrap(),
                    &inputs[r],
                );
                build_patches(&mut l1, &g, input, buf, pos, 1);
                l1.slice(buf, g.patch_len()).unwrap().to_vec()
            };
            // Lanes `first..first + live` of the two requests' positions,
            // the dead ones repeating the last.
            let lane_sets = [
                (0, LANES),                            // uniform start
                (g.ox().saturating_sub(3), LANES),     // output-row edge
                (positions.saturating_sub(3), LANES),  // request boundary
                (positions.saturating_sub(11), LANES), // ... in the upper half
                (0, 3),                                // repeated last lane
                (0, 11),                               // ... in the upper half
            ];
            let chunks = (0..2 * positions)
                .step_by(LANES)
                .map(|first| (first, (2 * positions - first).min(LANES)));
            let mut dst = vec![0i16; g.patch_len() * LANES];
            for (first, live) in lane_sets.into_iter().chain(chunks) {
                let lane: [(usize, usize); LANES] = core::array::from_fn(|j| {
                    let l = (first + j.min(live - 1)).min(2 * positions - 1);
                    (l / positions, l % positions)
                });
                let lanes = lane.map(|(r, pos)| (inputs[r].as_slice(), pos));
                patch_lanes(&g, &lanes, &mut dst);
                for (j, &(r, pos)) in lane.iter().enumerate() {
                    let got: Vec<u8> = dst[j..].iter().step_by(LANES).map(|&v| v as u8).collect();
                    assert_eq!(got, patch(r, pos), "{g:?} lanes {first}+{live}, lane {j}");
                }
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
