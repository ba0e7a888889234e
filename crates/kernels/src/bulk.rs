//! Slice-level compute primitives for the bulk fast path
//! ([`crate::Ctx::MemBulk`]).
//!
//! Each helper is the closed-form equivalent of an inner loop the
//! reference kernels execute instruction by instruction. All arithmetic
//! is `i32` wrapping, matching `pv.sdotsp.b` / scalar-MAC accumulation
//! exactly, so outputs are bit-identical to the per-instruction path (the
//! products are the same multiset; wrapping addition is associative and
//! commutative).
//!
//! The FC kernels' per-token gathers are specialized per offset width
//! so the hot path runs without per-element divisions: 4-bit plain
//! offsets decode two blocks per stream byte, 2-bit plain four, and the
//! `xDecimate` kernel's interleaved pair stream feeds both channels of a
//! pair in one walk.
//!
//! Every convolution kernel computes through one lane sweep
//! ([`conv_sweep`]): each output channel supplies its own weight row and
//! gather indices ([`ChannelRow`]) — an N:M channel an index table
//! pre-decoded from its offset segment ([`decim_table`], once per
//! invocation, reused by every chunk of the sweep), a dense channel the
//! identity walk over the patch. The per-channel mixed kernels mix both
//! kinds in one sweep.
//!
//! The two lane sweeps — the conv sweep, 16 (request, output position)
//! lanes per chunk, and the FC token sweep, 8 tokens per chunk — share
//! one channel loop ([`lane_channels`]), one dot ([`lane_dot`]) and one
//! blocked epilogue ([`store_block`]): output channels run 8 at a time,
//! their lane accumulators are requantized in SSE2 registers and
//! byte-transposed, and each live lane takes one 8-byte store.
//!
//! The gathers index their activation windows *unchecked* after a cheap
//! pre-validation of the packed index stream ([`offsets_below`],
//! [`u16_indices_below`]) — the only non-intrinsic `unsafe` in the
//! crate, each site carrying its proof obligation next to the
//! validation that discharges it; the other `unsafe` blocks are SSE2
//! intrinsics over bounds-checked slices. Streams that fail validation
//! fall back to the bounds-checked loops, preserving the original panic
//! behavior.
//!
//! The baseline formats get the same treatment: [`csr_rows_out`],
//! [`dcsr_gather_dot`] and [`blockwise_rows_out`] are the closed forms
//! of the CSR / dCSR / blockwise reference kernels' inner loops.

use nm_core::quant::Requant;
use nm_isa::{CostModel, InstrBlock, InstrClass, Memory};

/// Unpacks the `idx`-th `bits`-wide offset from a packed LSB-first
/// offset stream. Equivalent to the word/byte shift-mask sequences of the
/// software kernels and to the XFU's `ex_stage` field extraction (offset
/// streams are contiguous, so word-relative and global indexing agree).
#[inline]
pub(crate) fn unpack_offset(offsets: &[u8], bits: usize, idx: usize) -> usize {
    debug_assert!(bits == 2 || bits == 4);
    let bitpos = idx * bits;
    ((offsets[bitpos / 8] >> (bitpos % 8)) & ((1u8 << bits) - 1)) as usize
}

/// Bytes needed to unpack `entries` offsets of `bits` bits.
#[inline]
pub(crate) fn offsets_len(entries: usize, bits: usize) -> usize {
    (entries * bits).div_ceil(8)
}

/// Wrapping int8 dot product of two equal-length byte slices — the dense
/// inner loop (SIMD chunks + scalar tail) in one pass.
///
/// On x86-64 the 16-byte chunks run through explicit SSE2 `pmaddwd`
/// (sign-extend both operands to `i16`, multiply-add pairs — exact, see
/// [`lane_dot`]); elsewhere the loop stays as 16 lane-parallel
/// `i16`-widening accumulator chains, the shape the backend
/// auto-vectorizes. Wrapping `i32` addition is associative and
/// commutative, so either reassociation is bit-exact.
#[inline]
pub(crate) fn dense_dot(w: &[u8], a: &[u8]) -> i32 {
    debug_assert_eq!(w.len(), a.len());
    #[cfg(target_arch = "x86_64")]
    {
        dense_dot_sse2(w, a)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut acc = [0i32; 16];
        let chunks = w.len() / 16;
        for (wc, ac) in w.chunks_exact(16).zip(a.chunks_exact(16)) {
            for j in 0..16 {
                acc[j] = madd(acc[j], wc[j], ac[j]);
            }
        }
        let mut sum = 0i32;
        for lane in acc {
            sum = sum.wrapping_add(lane);
        }
        for (&wv, &av) in w[16 * chunks..].iter().zip(&a[16 * chunks..]) {
            sum = madd(sum, wv, av);
        }
        sum
    }
}

/// [`dense_dot`]'s SSE2 body (baseline on x86-64, no feature detection
/// needed): each 16-byte step sign-extends both operand halves to `i16`
/// and `pmaddwd`s them into one `i32x4` accumulator. `i8 × i8` products
/// stay within ±16384, so neither the pair sum nor `pmaddwd`'s sole
/// saturation case can occur — the fold is a pure reassociation of the
/// wrapping-`i32` sum and bit-identical to the scalar walk.
#[cfg(target_arch = "x86_64")]
#[inline]
fn dense_dot_sse2(w: &[u8], a: &[u8]) -> i32 {
    use core::arch::x86_64::*;
    #[inline(always)]
    fn extend_halves(p: *const u8) -> (__m128i, __m128i) {
        // SAFETY: the caller guarantees 16 readable bytes at `p`; SSE2
        // is part of the x86-64 baseline ABI.
        unsafe {
            let x = _mm_loadu_si128(p.cast());
            let lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(_mm_setzero_si128(), x));
            let hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(_mm_setzero_si128(), x));
            (lo, hi)
        }
    }
    let chunks = w.len() / 16;
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every load stays
    // within the first `16 * chunks` bytes of both slices.
    let mut sum = unsafe {
        let mut acc = _mm_setzero_si128();
        for c in 0..chunks {
            let (wl, wh) = extend_halves(w.as_ptr().add(16 * c));
            let (al, ah) = extend_halves(a.as_ptr().add(16 * c));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(wl, al));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(wh, ah));
        }
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().fold(0i32, |s, &l| s.wrapping_add(l))
    };
    for (&wv, &av) in w[16 * chunks..].iter().zip(&a[16 * chunks..]) {
        sum = madd(sum, wv, av);
    }
    sum
}

#[inline]
fn madd(acc: i32, w: u8, a: u8) -> i32 {
    // An i8 x i8 product fits in i16; keeping the multiply narrow helps
    // the backend fuse it with the widening add.
    acc.wrapping_add(i32::from(i16::from(w as i8) * i16::from(a as i8)))
}

/// Activation read for the gather loops, instantiated checked (the
/// fallback for streams that failed pre-validation) or unchecked (the hot
/// path after [`offsets_below`] proved every decoded index in range).
///
/// The bounds check used to cost ~2 of the fc-sw gather's ~3.3 host
/// cycles per element; validating the packed stream once per segment and
/// indexing unchecked removes it without changing the panic contract:
/// invalid offsets still take the checked loop and panic exactly where
/// they did before.
#[inline(always)]
fn at<const CHECKED: bool>(act: &[u8], i: usize) -> u8 {
    if CHECKED {
        act[i]
    } else {
        debug_assert!(i < act.len(), "pre-validated gather index out of range");
        // SAFETY: instantiated with `CHECKED = false` only by the
        // dispatchers below — after `offsets_below` proved every offset
        // `< m` and the activation window holds `values.len() * m` bytes
        // (so each index `b * m + o` is `< act.len()`), or after
        // `u16_indices_below` proved every CSR column index below the
        // input length.
        unsafe { *act.get_unchecked(i) }
    }
}

/// Four-byte activation window for the blockwise gather, checked or
/// pre-validated unchecked (same contract as [`at`]).
#[inline(always)]
fn window4<const CHECKED: bool>(act: &[u8], base: usize) -> &[u8] {
    if CHECKED {
        &act[base..base + 4]
    } else {
        debug_assert!(base + 4 <= act.len(), "pre-validated window out of range");
        // SAFETY: instantiated with `CHECKED = false` only after
        // `u16_indices_below(idx16, act.len() / 4)` proved every block
        // index `i` satisfies `4 * i + 4 <= act.len()`.
        unsafe { act.get_unchecked(base..base + 4) }
    }
}

/// True when every 16-bit little-endian index in `idx16` is below
/// `limit` — the pre-validation for the CSR / blockwise gathers'
/// unchecked activation access. A branch-free max-fold rather than a
/// short-circuiting `all`, so it vectorizes (measured ~7× faster — the
/// scan runs once per kernel invocation over the same stream the gather
/// walks, so its cost matters).
#[inline]
pub(crate) fn u16_indices_below(idx16: &[u8], limit: usize) -> bool {
    let mut max = 0u16;
    for c in idx16.chunks_exact(2) {
        max = max.max(u16::from_le_bytes([c[0], c[1]]));
    }
    usize::from(max) < limit || idx16.len() < 2
}

/// True when the first `entries` `bits`-wide offsets of the packed stream
/// all decode below `m` — the pre-validation that lets the gather loops
/// index their activation window unchecked. A stream whose field width
/// cannot express `m` (2-bit fields with `m >= 4`, 4-bit with `m >= 16`)
/// is valid by construction.
#[inline]
pub(crate) fn offsets_below(offs: &[u8], bits: usize, entries: usize, m: usize) -> bool {
    if m >= (1 << bits) {
        return true;
    }
    if bits == 4 && m == 8 {
        // 1:8 streams: both nibbles of a byte are below 8 iff bit 3 of
        // each is clear — one mask+compare validates two entries.
        let full = entries / 2;
        return offs[..full].iter().all(|&b| b & 0x88 == 0)
            && (entries.is_multiple_of(2) || offs[full] & 0x08 == 0);
    }
    (0..entries).all(|i| unpack_offset(offs, bits, i) < m)
}

/// Decimated wrapping dot product over a plain-layout offset stream
/// ([`nm_core::format::OffsetLayout::Plain`], the FC software kernel):
/// for each non-zero `b`, multiplies `values[b]` with the activation at
/// `b * m + offset(b)`, where `offset(b)` is entry `b` of the packed
/// stream.
#[inline]
pub(crate) fn nm_gather_dot(
    values: &[u8],
    activations: &[u8],
    offsets: &[u8],
    bits: usize,
    m: usize,
) -> i32 {
    debug_assert!(bits == 2 || bits == 4);
    // Pre-validated unchecked-index window: when every offset in the
    // stream decodes below `m` and the activation window covers all
    // `values.len()` blocks, the specialized loops skip per-element
    // bounds checks (`at::<false>`); otherwise they run checked and
    // panic exactly where the old loops did.
    let safe =
        activations.len() >= values.len() * m && offsets_below(offsets, bits, values.len(), m);
    match (bits, safe) {
        (4, true) => gather_dot_4bit_plain::<false>(values, activations, offsets, m),
        (4, false) => gather_dot_4bit_plain::<true>(values, activations, offsets, m),
        (_, true) => gather_dot_2bit_plain::<false>(values, activations, offsets, m),
        (_, false) => gather_dot_2bit_plain::<true>(values, activations, offsets, m),
    }
}

/// 4-bit plain stream (1:8 / 1:16 software kernels): two blocks per
/// stream byte, low nibble first. Unrolled to four blocks per iteration
/// with independent accumulator chains for instruction-level parallelism.
/// `CHECKED` selects bounds-checked or pre-validated unchecked indexing
/// (see [`at`]).
fn gather_dot_4bit_plain<const CHECKED: bool>(
    values: &[u8],
    act: &[u8],
    offs: &[u8],
    m: usize,
) -> i32 {
    let mut acc = [0i32; 4];
    let mut row = 0usize; // b * m, strength-reduced by hand
    let quads = values.chunks_exact(4);
    let rem_start = values.len() - quads.remainder().len();
    for (v, ob) in quads.zip(offs.chunks_exact(2)) {
        acc[0] = madd(
            acc[0],
            v[0],
            at::<CHECKED>(act, row + (ob[0] & 0xF) as usize),
        );
        acc[1] = madd(
            acc[1],
            v[1],
            at::<CHECKED>(act, row + m + (ob[0] >> 4) as usize),
        );
        acc[2] = madd(
            acc[2],
            v[2],
            at::<CHECKED>(act, row + 2 * m + (ob[1] & 0xF) as usize),
        );
        acc[3] = madd(
            acc[3],
            v[3],
            at::<CHECKED>(act, row + 3 * m + (ob[1] >> 4) as usize),
        );
        row += 4 * m;
    }
    for (b, &wv) in values.iter().enumerate().skip(rem_start) {
        acc[0] = madd(acc[0], wv, act[b * m + unpack_offset(offs, 4, b)]);
    }
    acc[0]
        .wrapping_add(acc[1])
        .wrapping_add(acc[2])
        .wrapping_add(acc[3])
}

/// 2-bit plain stream (1:4 software kernels): four blocks per byte.
fn gather_dot_2bit_plain<const CHECKED: bool>(
    values: &[u8],
    act: &[u8],
    offs: &[u8],
    m: usize,
) -> i32 {
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let mut row = 0usize;
    let quads = values.chunks_exact(4);
    let rem_start = values.len() - quads.remainder().len();
    for (v, &ob) in quads.zip(offs) {
        acc0 = madd(acc0, v[0], at::<CHECKED>(act, row + (ob & 3) as usize));
        acc1 = madd(
            acc1,
            v[1],
            at::<CHECKED>(act, row + m + ((ob >> 2) & 3) as usize),
        );
        acc0 = madd(
            acc0,
            v[2],
            at::<CHECKED>(act, row + 2 * m + ((ob >> 4) & 3) as usize),
        );
        acc1 = madd(
            acc1,
            v[3],
            at::<CHECKED>(act, row + 3 * m + (ob >> 6) as usize),
        );
        row += 4 * m;
    }
    for (b, &wv) in values.iter().enumerate().skip(rem_start) {
        acc0 = madd(acc0, wv, act[b * m + unpack_offset(offs, 2, b)]);
    }
    acc0.wrapping_add(acc1)
}

/// Both channels of a 4-bit interleaved pair in one stream walk: byte
/// `b` carries channel 0's offset in the low nibble and channel 1's in
/// the high nibble (the FC `xDecimate` kernel's Fig. 6 layout).
pub(crate) fn gather_dot2_4bit_pair(
    values0: &[u8],
    values1: &[u8],
    act: &[u8],
    offs: &[u8],
    m: usize,
) -> (i32, i32) {
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let mut row = 0usize;
    for ((&v0, &v1), &ob) in values0.iter().zip(values1).zip(offs) {
        acc0 = madd(acc0, v0, act[row + (ob & 0xF) as usize]);
        acc1 = madd(acc1, v1, act[row + (ob >> 4) as usize]);
        row += m;
    }
    (acc0, acc1)
}

/// Both channels of a 2-bit interleaved pair in one stream walk: byte
/// `b / 2` carries two blocks' worth of channel-0/channel-1 entries.
pub(crate) fn gather_dot2_2bit_pair(
    values0: &[u8],
    values1: &[u8],
    act: &[u8],
    offs: &[u8],
    m: usize,
) -> (i32, i32) {
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let nz = values0.len();
    let mut row = 0usize;
    for b in 0..nz {
        let ob = offs[b / 2] >> (4 * (b % 2));
        acc0 = madd(acc0, values0[b], act[row + (ob & 3) as usize]);
        acc1 = madd(acc1, values1[b], act[row + ((ob >> 2) & 3) as usize]);
        row += m;
    }
    (acc0, acc1)
}

/// Dispatches to the dual-channel pair gathers by offset width.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_dot2_pair(
    values0: &[u8],
    values1: &[u8],
    act: &[u8],
    offs: &[u8],
    bits: usize,
    m: usize,
) -> (i32, i32) {
    if bits == 4 {
        gather_dot2_4bit_pair(values0, values1, act, offs, m)
    } else {
        gather_dot2_2bit_pair(values0, values1, act, offs, m)
    }
}

/// The one offset decoder of both lane sweeps ([`decim_table`] for conv,
/// [`FcOffsets::decode`] for FC): `idx[b] = b * m + o`, where entry
/// `base + step * b` of one channel's packed segment `seg` is `o`.
pub(crate) fn decode_offsets(
    seg: &[u8],
    bits: usize,
    m: usize,
    (base, step): (usize, usize),
    idx: &mut [u32],
) {
    for (b, i) in idx.iter_mut().enumerate() {
        *i = (b * m + unpack_offset(seg, bits, base + step * b)) as u32;
    }
}

/// Pre-decoded decimation table for the convolution kernels: entry
/// `k * nz + b` is the patch-buffer index `b * m + offset` of channel
/// `k`'s block `b`. Channels' segments start at `seg_stride` intervals in
/// `offs_region`; entry `step * b` of a segment carries block `b`'s
/// offset: `step` is 1 for the plain layout and 2 for the duplicated one,
/// whose entries `2b` and `2b + 1` both carry block `b` (the same stream
/// walk the `xDecimate` csr performs).
pub(crate) fn decim_table(
    offs_region: &[u8],
    channels: usize,
    seg_stride: usize,
    nz: usize,
    bits: usize,
    m: usize,
    step: usize,
) -> Vec<u32> {
    let mut table = vec![0u32; channels * nz];
    for k in 0..channels {
        let seg = &offs_region[k * seg_stride..];
        decode_offsets(seg, bits, m, (0, step), &mut table[k * nz..(k + 1) * nz]);
    }
    table
}

/// True when every pre-decoded table index is below `limit` — the
/// pre-validation that lets the conv sweep ([`conv_sweep`]) read
/// its patch rows unchecked. A branch-free max fold so it vectorizes; it
/// runs once per table (at kernel invocation, or once for the lifetime
/// of a prepared [`crate::conv::DecimProgram`]) and is then amortized
/// over every sweep chunk.
#[inline]
pub(crate) fn table_below(table: &[u32], limit: usize) -> bool {
    let mut max = 0u32;
    for &t in table {
        max = max.max(t);
    }
    table.is_empty() || (max as usize) < limit
}

/// CSR row dot product: non-zero `i` multiplies `values[i]` with the
/// input byte at the 16-bit little-endian column index `cols16[2i..]` —
/// the closed form of the reference kernel's load-index / load-activation
/// / load-weight / MAC sequence. The index stream is walked through a
/// native `u16` view when aligned (staged `col_idx` buffers are
/// word-aligned, so row subslices at even element offsets always are),
/// two non-zeros per iteration on independent accumulators; instantiate
/// `CHECKED = false` only after [`u16_indices_below`]`(cols16,
/// input.len())` held.
#[inline]
pub(crate) fn csr_gather_dot<const CHECKED: bool>(
    values: &[u8],
    cols16: &[u8],
    input: &[u8],
) -> i32 {
    debug_assert_eq!(cols16.len(), 2 * values.len());
    // SAFETY: u16 has no invalid bit patterns and align_to's split is
    // guaranteed correct; the unaligned pre/post bytes fall back to the
    // byte-assembling loop.
    let (pre, cols, _) = unsafe { cols16.align_to::<u16>() };
    if !pre.is_empty() {
        let mut acc = 0i32;
        for (i, &wv) in values.iter().enumerate() {
            let col = usize::from(u16::from_le_bytes([cols16[2 * i], cols16[2 * i + 1]]));
            acc = madd(acc, wv, input[col]);
        }
        return acc;
    }
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let pairs = values.chunks_exact(2);
    let rem = pairs.remainder();
    for (v, c) in pairs.zip(cols.chunks_exact(2)) {
        acc0 = madd(
            acc0,
            v[0],
            at::<CHECKED>(input, usize::from(u16::from_le(c[0]))),
        );
        acc1 = madd(
            acc1,
            v[1],
            at::<CHECKED>(input, usize::from(u16::from_le(c[1]))),
        );
    }
    if let [v] = rem {
        acc0 = madd(
            acc0,
            *v,
            input[usize::from(u16::from_le(cols[values.len() - 1]))],
        );
    }
    acc0.wrapping_add(acc1)
}

/// One core's worth of CSR output channels in a single call: row `i`
/// spans non-zeros `row_start[i]..row_start[i + 1]` of the flat
/// value/index streams; each row's [`csr_gather_dot`] is requantized
/// into its output byte. Keeping the row loop inside one frame (instead
/// of a per-row closure dispatch) saves ~15 % of the gather's host time
/// on 32-row core ranges.
pub(crate) fn csr_rows_out<const CHECKED: bool>(
    values: &[u8],
    cols16: &[u8],
    input: &[u8],
    row_start: &[usize],
    requant: Requant,
) -> Vec<i8> {
    let mut outs = Vec::with_capacity(row_start.len().saturating_sub(1));
    for w in row_start.windows(2) {
        let (s, e) = (w[0], w[1]);
        let acc = csr_gather_dot::<CHECKED>(&values[s..e], &cols16[2 * s..2 * e], input);
        outs.push(requant.apply(acc));
    }
    outs
}

/// dCSR row dot product: decodes the row's nibble-packed delta stream
/// (low nibble first; field `0` escapes to a two-nibble `d - 16` form),
/// accumulates columns from the implicit start of `-1`, and multiplies
/// each non-zero with the selected input byte. The closed form of the
/// reference kernel's `NibbleStream` walk; charging is the caller's, from
/// the row's nnz/escape metadata. `esc` is the row's escape count from
/// that same metadata: rows declaring zero escapes decode on the
/// branch-free [`dcsr_gather_dot_noesc`] path (the common case at DNN
/// sparsities).
pub(crate) fn dcsr_gather_dot(values: &[u8], deltas: &[u8], esc: usize, input: &[u8]) -> i32 {
    if esc == 0 {
        return dcsr_gather_dot_noesc(values, deltas, input);
    }
    #[inline]
    fn nibble(deltas: &[u8], pos: &mut usize) -> u8 {
        let b = deltas[*pos / 2];
        let v = if pos.is_multiple_of(2) {
            b & 0xF
        } else {
            b >> 4
        };
        *pos += 1;
        v
    }
    let mut acc = 0i32;
    let mut pos = 0usize;
    let mut col: i64 = -1;
    for &wv in values {
        let field = nibble(deltas, &mut pos);
        let d = if field == 0 {
            let lo = nibble(deltas, &mut pos);
            let hi = nibble(deltas, &mut pos);
            16 + i64::from(lo) + (i64::from(hi) << 4)
        } else {
            i64::from(field)
        };
        col += d;
        acc = madd(acc, wv, input[col as usize]);
    }
    acc
}

/// Escape-free dCSR decode: every field is one nibble, so a stream byte
/// yields exactly two columns and the escape test disappears — ~2.5×
/// faster than the serial walk. The column starts at `-1` via a wrapping
/// `usize::MAX` (a well-formed stream's first delta is at least 1; a
/// malformed one lands out of range and panics on the checked activation
/// read, like the serial walk would).
fn dcsr_gather_dot_noesc(values: &[u8], deltas: &[u8], input: &[u8]) -> i32 {
    let mut acc = 0i32;
    let mut col = usize::MAX; // -1
    let pairs = values.chunks_exact(2);
    let rem = pairs.remainder();
    for (v, &b) in pairs.zip(deltas) {
        col = col.wrapping_add(usize::from(b & 0xF));
        acc = madd(acc, v[0], input[col]);
        col = col.wrapping_add(usize::from(b >> 4));
        acc = madd(acc, v[1], input[col]);
    }
    if let [v] = rem {
        col = col.wrapping_add(usize::from(deltas[values.len() / 2] & 0xF));
        acc = madd(acc, *v, input[col]);
    }
    acc
}

/// Blockwise (1×4) row dot product: kept block `b` multiplies its four
/// contiguous weight bytes with the four input bytes at word index
/// `idx16[2b..]` (16-bit little-endian block indices) — the closed form
/// of the reference kernel's index-load / `lw` / `lw` / `pv.sdotsp.b`
/// sequence. One block per iteration into four lane-parallel
/// accumulators (the SLP shape — measured fastest across 256-row
/// workloads, beating both the scalar-accumulator loop and a two-block
/// unroll); instantiate `CHECKED = false` only after
/// [`u16_indices_below`]`(idx16, input.len() / 4)` held.
#[inline]
pub(crate) fn blockwise_gather_dot<const CHECKED: bool>(
    values: &[u8],
    idx16: &[u8],
    input: &[u8],
) -> i32 {
    debug_assert_eq!(2 * values.len(), 4 * idx16.len());
    let mut acc = [0i32; 4];
    for (v, ix) in values.chunks_exact(4).zip(idx16.chunks_exact(2)) {
        let base = usize::from(u16::from_le_bytes([ix[0], ix[1]])) * 4;
        let a = window4::<CHECKED>(input, base);
        for j in 0..4 {
            acc[j] = madd(acc[j], v[j], a[j]);
        }
    }
    acc[0]
        .wrapping_add(acc[1])
        .wrapping_add(acc[2])
        .wrapping_add(acc[3])
}

/// One core's worth of blockwise output channels in a single call (the
/// blockwise analog of [`csr_rows_out`]): row `i` spans kept blocks
/// `row_start[i]..row_start[i + 1]`.
pub(crate) fn blockwise_rows_out<const CHECKED: bool>(
    values: &[u8],
    idx16: &[u8],
    input: &[u8],
    row_start: &[usize],
    requant: Requant,
) -> Vec<i8> {
    let mut outs = Vec::with_capacity(row_start.len().saturating_sub(1));
    for w in row_start.windows(2) {
        let (s, e) = (w[0], w[1]);
        let acc =
            blockwise_gather_dot::<CHECKED>(&values[4 * s..4 * e], &idx16[2 * s..2 * e], input);
        outs.push(requant.apply(acc));
    }
    outs
}

/// Writes computed outputs through the zero-copy view (host-side data
/// movement only; the corresponding stores are charged in the caller's
/// instruction block).
pub(crate) fn write_out(mem: &mut nm_platform::Scratchpad, addr: u32, data: &[i8]) {
    if data.is_empty() {
        return;
    }
    let dst = mem
        .slice_mut(addr, data.len())
        .expect("scratchpad is zero-copy");
    crate::layout::copy_i8_to_bytes(dst, data);
}

/// The conv lane sweep, the bulk tier's one compute for every conv
/// kernel: computes the outputs of `inputs` (a batch's requests; a
/// single run is a batch of one) in one walk, channel `c` of `rows`
/// gathering its patch elements through its own indices. A lane is one
/// (request, output position) pair. The `B·P` lanes of `B` requests over
/// `P` positions are walked request-major in [`CONV_LANES`]-wide chunks,
/// so one request fills a chunk with 16 of its own positions, and a
/// chunk of a small tile spans several requests. Per chunk the
/// lane-transposed patch block ([`crate::im2col::patch_lanes`]) makes
/// each gather index's activations contiguous across lanes, so every
/// weight byte and index is loaded **once** per chunk and feeds all its
/// lanes' multiply-adds — the 1×2 unrolling's data reuse, 16 patches
/// wide.
///
/// Wrapping `i32` accumulation is associative and commutative and the
/// product multiset per (request, channel, position) is the kernel's, so
/// outputs are bit-identical to running each request alone. Request
/// `r`'s output tile lands at `out[r * output_elems()..]`. Nothing is
/// charged: the statistics are the tile's analytic walk (see
/// `conv::drive_conv`).
///
/// Pass `in_range = true` only when every index of `rows` is below the
/// patch length ([`table_below`] held for each decoded table; an
/// identity walk is below it by construction): the dots then read patch
/// rows unchecked. Rows that failed validation run the checked loop,
/// which panics on an index past the patch instead of reading it.
pub(crate) fn conv_sweep(
    job: &crate::conv::ConvJob,
    rows: &[ChannelRow<'_>],
    in_range: bool,
    inputs: &[&[i8]],
    out: &mut [u8],
) {
    if in_range {
        sweep_lanes::<false>(job, rows, inputs, out);
    } else {
        sweep_lanes::<true>(job, rows, inputs, out);
    }
}

/// Lane blocks of up to this many entries live on the stack: 16 Ki, so
/// a 576-element DS-CNN patch block of [`CONV_LANES`] lanes (9,216
/// entries) stays off the heap.
const STACK_BLOCK: usize = 16 * 1024;

/// Runs `f` on a zeroed lane block of `len` entries: on the stack up to
/// [`STACK_BLOCK`], else on the heap. A heap block per call measured
/// ~1.2 µs more per vit-tiny inference (2-vCPU x86-64 host, glibc): a
/// request above the allocator's per-thread cache makes it consolidate
/// the small chunks the graph's other nodes freed.
fn with_lane_block<T: Lane, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= STACK_BLOCK {
        f(&mut [T::default(); STACK_BLOCK][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// An entry of a lane-transposed block: a token byte of the FC sweep,
/// or a patch activation of the conv sweep, sign-extended to `i16` once
/// when the block is built because every output channel reads each
/// patch row again.
trait Lane: Copy + Default {
    /// 8 consecutive lanes as `i16`s.
    #[cfg(target_arch = "x86_64")]
    fn load(lanes: &[Self; 8]) -> core::arch::x86_64::__m128i;
    /// The lane's activation.
    #[cfg(not(target_arch = "x86_64"))]
    fn value(self) -> i16;
}

impl Lane for u8 {
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn load(lanes: &[u8; 8]) -> core::arch::x86_64::__m128i {
        use core::arch::x86_64::*;
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; `lanes` is 8
        // bytes.
        unsafe {
            let x = _mm_loadl_epi64(lanes.as_ptr().cast());
            _mm_srai_epi16::<8>(_mm_unpacklo_epi8(_mm_setzero_si128(), x))
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    fn value(self) -> i16 {
        i16::from(self as i8)
    }
}

impl Lane for i16 {
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn load(lanes: &[i16; 8]) -> core::arch::x86_64::__m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; `lanes` is 16
        // bytes.
        unsafe { core::arch::x86_64::_mm_loadu_si128(lanes.as_ptr().cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    fn value(self) -> i16 {
        self
    }
}

/// Lanes per chunk of the conv sweep ((request, output position) pairs),
/// and the row width of its lane-transposed `i16` patch block: two SSE2
/// registers per row, four `i32x4` accumulators per output channel.
pub(crate) const CONV_LANES: usize = 2 * SWEEP_WIDTH;

/// Lane width of the FC token sweep (tokens per chunk, one SSE2 register
/// pair of `i32` accumulators), and the channel block of the
/// requantize epilogue ([`store_block`]): one 8-byte store per lane.
pub(crate) const SWEEP_WIDTH: usize = 8;

/// Fewest live tokens per chunk worth padding to [`SWEEP_WIDTH`] in the
/// FC token sweep: with fewer live lanes the dead-lane compute exceeds
/// what per-token compute passes would cost, so `fc::drive_fc_batch`
/// routes remainders below this through its per-token fallback. The
/// conv sweep has no such floor: its lanes are output positions too, so
/// every request fills its chunks.
pub(crate) const SWEEP_MIN: usize = 5;

/// How many of a batch's `n` FC tokens the sweep takes: every full
/// [`SWEEP_WIDTH`]-wide chunk, plus a short last chunk when it holds at
/// least [`SWEEP_MIN`] live lanes. The rest run through
/// `fc::drive_fc_batch`'s per-token fallback.
pub(crate) fn sweep_len(n: usize) -> usize {
    if n < SWEEP_MIN {
        0
    } else if n % SWEEP_WIDTH < SWEEP_MIN {
        n - n % SWEEP_WIDTH
    } else {
        n
    }
}

/// One output channel's row for the lane sweeps' channel loop
/// ([`lane_channels`]): its weights and, one per weight, the index of
/// the block element each multiplies, so its dot is `Σ_i w[i] ·
/// block[t[i]]`. Every kernel hands the sweeps a slice of rows — a
/// uniform family's cut from its staged weights and one index table,
/// the per-channel mixed kernels' each of its own length — so one
/// channel loop serves every gather kind.
pub(crate) type ChannelRow<'a> = (&'a [u8], &'a [u32]);

/// The chunked lane walk behind [`conv_sweep`]. A short last chunk
/// repeats its last live lane and never stores the dead ones. The dot's
/// width follows the live lanes: 16 above 8, 8 for 5–8 and 4 for at most
/// 4, so a tile with few output positions does not pay for 16. The fixed
/// widths keep the inner multiply-add at a compile-time trip count — see
/// [`lane_dot`]; the outputs leave through [`lane_channels`]' blocked
/// epilogue.
fn sweep_lanes<const CHECKED: bool>(
    job: &crate::conv::ConvJob,
    rows: &[ChannelRow<'_>],
    inputs: &[&[i8]],
    out: &mut [u8],
) {
    let geom = &job.geom;
    let (kt, positions, out_elems) = (geom.k, geom.oy() * geom.ox(), geom.output_elems());
    debug_assert_eq!(rows.len(), kt);
    debug_assert_eq!(out.len(), inputs.len() * out_elems);
    let lanes = inputs.len() * positions;
    with_lane_block::<i16, _>(geom.patch_len() * CONV_LANES, |patches| {
        for first in (0..lanes).step_by(CONV_LANES) {
            let live = (lanes - first).min(CONV_LANES);
            // Lane `j`'s (request, position); dead lanes repeat the last.
            let lane: [(usize, usize); CONV_LANES] = core::array::from_fn(|j| {
                let l = first + j.min(live - 1);
                (l / positions, l % positions)
            });
            crate::im2col::patch_lanes(geom, &lane.map(|(r, pos)| (inputs[r], pos)), patches);
            let dst = lane.map(|(r, pos)| r * out_elems + pos * kt);
            let (rq, p) = (job.requant, &*patches);
            match live {
                9.. => {
                    lane_channels::<CHECKED, 16, CONV_LANES, i16>(rows, p, rq, &dst, live, 0, out)
                }
                5..=8 => {
                    lane_channels::<CHECKED, 8, CONV_LANES, i16>(rows, p, rq, &dst, live, 0, out)
                }
                _ => lane_channels::<CHECKED, 4, CONV_LANES, i16>(rows, p, rq, &dst, live, 0, out),
            }
        }
    });
}

/// The channel loop of one lane block, shared by both sweeps: channel
/// `c` of `rows` runs a `LANES`-lane [`lane_dot`] over `block`, and lane
/// `j < live` writes its output byte at `out[dst[j] + k0 + c]`. Every
/// whole group of 8 channels leaves through the blocked epilogue
/// ([`store_block`]); the channels past the last multiple of 8 are
/// requantized and stored one byte at a time.
#[inline(always)]
fn lane_channels<const CHECKED: bool, const LANES: usize, const W: usize, T: Lane>(
    rows: &[ChannelRow<'_>],
    block: &[T],
    requant: Requant,
    dst: &[usize; W],
    live: usize,
    k0: usize,
    out: &mut [u8],
) {
    let whole = rows.len() / SWEEP_WIDTH * SWEEP_WIDTH;
    let mut acc = [[0i32; W]; SWEEP_WIDTH];
    // One dot call site over every channel, so the dot is inlined once
    // rather than unrolled 8 times per group.
    for (c, &(v, t)) in rows.iter().enumerate() {
        let a = lane_dot::<CHECKED, LANES, W, T>(v, t, block);
        if c >= whole {
            for (&d, &a) in dst.iter().zip(&a).take(live) {
                out[d + k0 + c] = requant.apply(a) as u8;
            }
            continue;
        }
        acc[c % SWEEP_WIDTH] = a;
        if c % SWEEP_WIDTH == SWEEP_WIDTH - 1 {
            store_block::<LANES, W>(requant, &acc, dst, live, k0 + c + 1 - SWEEP_WIDTH, out);
        }
    }
}

/// The blocked requantize epilogue of both lane sweeps: `acc[c][j]` is
/// channel `k0 + c`'s accumulator in lane `j`, and each live lane `j <
/// live` gets its 8 output bytes `requant.apply(acc[c][j])` (`c` in
/// `0..8`) at `out[dst[j] + k0..][..8]`. Dead lanes are never stored.
///
/// On x86-64 the requantize runs in SSE2 registers ([`requant_lanes`])
/// and one byte transpose ([`transpose_bytes`]) turns the 8 channel
/// registers into per-lane 8-byte rows, so each live lane costs one
/// 8-byte store instead of 8 scalar requantize-and-store steps.
#[inline(always)]
fn store_block<const LANES: usize, const W: usize>(
    requant: Requant,
    acc: &[[i32; W]; SWEEP_WIDTH],
    dst: &[usize; W],
    live: usize,
    k0: usize,
    out: &mut [u8],
) {
    debug_assert!(live <= LANES && LANES <= W && W <= CONV_LANES);
    #[cfg(target_arch = "x86_64")]
    {
        let ch: [_; SWEEP_WIDTH] =
            core::array::from_fn(|c| requant_lanes::<LANES, W>(requant, &acc[c]));
        let rows = transpose_bytes::<LANES>(&ch);
        let mut bytes = [0u64; CONV_LANES];
        // SAFETY: SSE2 is part of the x86-64 baseline ABI; the eight
        // 16-byte stores fill exactly the 128 bytes of `bytes`.
        unsafe {
            for (m, row) in rows.iter().enumerate() {
                core::arch::x86_64::_mm_storeu_si128(bytes.as_mut_ptr().add(2 * m).cast(), *row);
            }
        }
        for (&d, b) in dst.iter().zip(bytes).take(live) {
            out[d + k0..d + k0 + SWEEP_WIDTH].copy_from_slice(&b.to_le_bytes());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for (j, &d) in dst.iter().enumerate().take(live) {
        for (c, a) in acc.iter().enumerate() {
            out[d + k0 + c] = requant.apply(a[j]) as u8;
        }
    }
}

/// [`Requant::apply`] on lanes `0..LANES` of one channel's accumulators,
/// in SSE2 registers: wrapping bias add (`paddd`), arithmetic shift by
/// the register count (`psrad`; `Requant::new` rejects shifts of 32 or
/// more), then `packs_epi32` and `packs_epi16`, whose saturations to
/// `i16` and then `i8` compose to exactly `clip_i8`. Byte `j` of the
/// result is lane `j`'s output, for `j < LANES` (and `j < 8` when
/// `LANES <= 8`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn requant_lanes<const LANES: usize, const W: usize>(
    requant: Requant,
    acc: &[i32; W],
) -> core::arch::x86_64::__m128i {
    use core::arch::x86_64::*;
    assert!(LANES <= W && (W == SWEEP_WIDTH || W == CONV_LANES));
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; each load reads
    // one of the `W / 4` 16-byte quarters of `acc`, and quarters 2 and 3
    // are read only when `LANES > 8`, so `W = 16` (asserted above).
    unsafe {
        let bias = _mm_set1_epi32(requant.bias());
        let shift = _mm_cvtsi32_si128(i32::from(requant.shift()));
        let q = |i: usize| {
            let a = _mm_loadu_si128(acc.as_ptr().add(4 * i).cast());
            _mm_sra_epi32(_mm_add_epi32(a, bias), shift)
        };
        let lo = _mm_packs_epi32(q(0), q(1));
        let hi = if LANES > SWEEP_WIDTH {
            _mm_packs_epi32(q(2), q(3))
        } else {
            lo
        };
        _mm_packs_epi16(lo, hi)
    }
}

/// Byte transpose of 8 channel registers into lane rows: byte `j` of
/// `ch[c]` is lane `j`'s output of channel `c`, and qword `j % 2` of
/// `rows[j / 2]` becomes lane `j`'s 8 channel bytes, for `j < LANES` (8
/// or 16; rows past `LANES / 2` stay zero). Three rounds of interleaves
/// (bytes, words, doublewords) per 8 lanes — an 8×8 byte transpose per
/// half.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn transpose_bytes<const LANES: usize>(
    ch: &[core::arch::x86_64::__m128i; SWEEP_WIDTH],
) -> [core::arch::x86_64::__m128i; SWEEP_WIDTH] {
    use core::arch::x86_64::*;
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; register
    // operations only.
    unsafe {
        let mut rows = [_mm_setzero_si128(); SWEEP_WIDTH];
        for h in 0..LANES.div_ceil(SWEEP_WIDTH) {
            // Channel pairs as 16-bit units, lanes 8h..8h + 8.
            let pair = |c: usize| {
                if h == 0 {
                    _mm_unpacklo_epi8(ch[c], ch[c + 1])
                } else {
                    _mm_unpackhi_epi8(ch[c], ch[c + 1])
                }
            };
            let (p01, p23, p45, p67) = (pair(0), pair(2), pair(4), pair(6));
            // Channels 0-3 (a) and 4-7 (b) as 32-bit units: lanes
            // 8h..8h + 4 (lo) and 8h + 4..8h + 8 (hi).
            let (a_lo, a_hi) = (_mm_unpacklo_epi16(p01, p23), _mm_unpackhi_epi16(p01, p23));
            let (b_lo, b_hi) = (_mm_unpacklo_epi16(p45, p67), _mm_unpackhi_epi16(p45, p67));
            rows[4 * h] = _mm_unpacklo_epi32(a_lo, b_lo);
            rows[4 * h + 1] = _mm_unpackhi_epi32(a_lo, b_lo);
            rows[4 * h + 2] = _mm_unpacklo_epi32(a_hi, b_hi);
            rows[4 * h + 3] = _mm_unpackhi_epi32(a_hi, b_hi);
        }
        rows
    }
}

/// Gathered dot over the first `LANES` (4, 8 or 16) lanes of a
/// transposed block whose rows hold `W` lanes (16 for the conv sweep, 8
/// for the FC sweep): `acc[r] = Σ_i w[i] * block[t[i] * W + r]`
/// (wrapping `i32`) for `r < LANES`, one transposed row per weight
/// feeding every lane; lanes from `LANES` on stay zero.
///
/// The x86-64 path pairs weights through `pmaddwd`, which computes
/// `w0*a0 + w1*a1` exactly in `i32` (products of two `i8` values stay
/// within ±16384, so neither the pair sum nor the instruction's sole
/// saturation case `(-32768)·(-32768)` can occur) — pairing only
/// reassociates the wrapping-`i32` sum, so the result is bit-identical
/// to the scalar walk and to [`nm_gather_dot`].
#[inline(always)]
fn lane_dot<const CHECKED: bool, const LANES: usize, const W: usize, T: Lane>(
    v: &[u8],
    t: &[u32],
    block: &[T],
) -> [i32; W] {
    debug_assert_eq!(v.len(), t.len());
    debug_assert!(matches!(LANES, 4 | 8 | 16) && LANES <= W);
    #[cfg(target_arch = "x86_64")]
    {
        lane_dot_sse2::<CHECKED, LANES, W, T>(v, t, block)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut acc = [0i32; W];
        for (&wv, &ti) in v.iter().zip(t) {
            let row = patch_row::<CHECKED, W, T>(block, ti as usize);
            let w = i16::from(wv as i8);
            for j in 0..LANES {
                acc[j] = acc[j].wrapping_add(i32::from(w * row[j].value()));
            }
        }
        acc
    }
}

/// [`lane_dot`]'s SSE2 body (baseline on x86-64, no feature detection
/// needed): each step loads two rows as `i16`s ([`Lane::load`], 8 lanes
/// per register), interleaves them per lane, and `pmaddwd`s every 4
/// live lanes against the broadcast weight pair into one `i32x4`
/// accumulator. Weights arrive 8 to a register, sign-extended once, and
/// each of its four pairs is broadcast by one `pshufd` that feeds all
/// the lanes: at 16 lanes, both 8-lane halves of each row.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_dot_sse2<const CHECKED: bool, const LANES: usize, const W: usize, T: Lane>(
    v: &[u8],
    t: &[u32],
    block: &[T],
) -> [i32; W] {
    use core::arch::x86_64::*;
    let row = |i: u32| patch_row::<CHECKED, W, T>(block, i as usize);
    let half = |r: &[T; W], h: usize| -> __m128i {
        T::load(r[8 * h..8 * h + 8].try_into().expect("8-lane half row"))
    };
    let wpair =
        |w0: u8, w1: u8| (u32::from(w1 as i8 as u16) << 16 | u32::from(w0 as i8 as u16)) as i32;
    let whole = v.len() - v.len() % 8;
    assert!(W == SWEEP_WIDTH || W == CONV_LANES);
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; each weight load
    // reads one exact 8-byte chunk of `v`, and the final stores write
    // the `W / 4` (2 or 4, asserted above) 16-byte quarters of `acc`.
    unsafe {
        let mut acc4 = [_mm_setzero_si128(); 4];
        let mut step = |i0: u32, i1: u32, w: __m128i| {
            let (r0, r1) = (row(i0), row(i1));
            for h in 0..LANES.div_ceil(8) {
                let (a, b) = (half(r0, h), half(r1, h));
                acc4[2 * h] =
                    _mm_add_epi32(acc4[2 * h], _mm_madd_epi16(_mm_unpacklo_epi16(a, b), w));
                if LANES > 4 {
                    acc4[2 * h + 1] =
                        _mm_add_epi32(acc4[2 * h + 1], _mm_madd_epi16(_mm_unpackhi_epi16(a, b), w));
                }
            }
        };
        for (v8, t8) in v.chunks_exact(8).zip(t.chunks_exact(8)) {
            let w = _mm_loadl_epi64(v8.as_ptr().cast());
            let w = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(w, w));
            step(t8[0], t8[1], _mm_shuffle_epi32::<0x00>(w));
            step(t8[2], t8[3], _mm_shuffle_epi32::<0x55>(w));
            step(t8[4], t8[5], _mm_shuffle_epi32::<0xAA>(w));
            step(t8[6], t8[7], _mm_shuffle_epi32::<0xFF>(w));
        }
        for (v2, t2) in v[whole..].chunks(2).zip(t[whole..].chunks(2)) {
            // An odd last weight pairs with 0, so pairing its row with
            // itself adds exactly its own products.
            let (w1, t1) = if let [_, w1] = v2 {
                (*w1, t2[1])
            } else {
                (0, t2[0])
            };
            step(t2[0], t1, _mm_set1_epi32(wpair(v2[0], w1)));
        }
        let mut acc = [0i32; W];
        for (q, a) in acc4.iter().enumerate().take(W / 4) {
            _mm_storeu_si128(acc.as_mut_ptr().add(4 * q).cast(), *a);
        }
        acc
    }
}

/// One transposed-block row (the `W` lane entries of block element
/// `i`), checked or pre-validated unchecked (same contract as [`at`]).
#[inline(always)]
fn patch_row<const CHECKED: bool, const W: usize, T>(block: &[T], i: usize) -> &[T; W] {
    if CHECKED {
        block[i * W..(i + 1) * W]
            .try_into()
            .expect("exact row width")
    } else {
        debug_assert!((i + 1) * W <= block.len(), "pre-validated row range");
        // SAFETY: instantiated with `CHECKED = false` only after
        // `table_below` proved every decoded table entry `< patch_len`
        // (the other rows are the identity below it) and the block holds
        // `patch_len * CONV_LANES` entries (conv sweep), or
        // after `FcOffsets::below_m` proved every decoded index `< C`
        // (or the index is the identity below `C`) and the token block
        // holds `C * SWEEP_WIDTH` entries (`fc_sweep`).
        unsafe { &*block.as_ptr().add(i * W).cast::<[T; W]>() }
    }
}

/// Where [`fc_sweep`] finds each output channel's inputs: all `C` of
/// them for the dense kernel, the non-zeros' decoded offsets for the N:M
/// kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FcGather {
    /// Dense `K x C` weight rows.
    Dense,
    /// N:M values with one offset segment of `seg` bytes per channel
    /// ([`nm_core::format::OffsetLayout::Plain`], the software kernel).
    Plain {
        /// The pattern.
        nm: nm_core::sparsity::Nm,
        /// Segment stride in bytes.
        seg: usize,
    },
    /// N:M values with one offset segment of `seg` bytes per channel
    /// pair, the two channels' entries alternating
    /// ([`nm_core::format::OffsetLayout::Interleaved`], the `xDecimate`
    /// kernel).
    Interleaved {
        /// The pattern.
        nm: nm_core::sparsity::Nm,
        /// Segment stride in bytes.
        seg: usize,
    },
}

/// A staged FC offset stream and how its entries map to channels.
struct FcOffsets<'a> {
    offs: &'a [u8],
    seg: usize,
    bits: usize,
    m: usize,
    /// Channels per segment: 1 (plain) or 2 (interleaved pairs).
    per_seg: usize,
}

impl FcOffsets<'_> {
    /// Decodes channel `ch`'s offsets into input indices `b * m + o`
    /// (`idx.len()` = non-zeros per channel).
    fn decode(&self, ch: usize, idx: &mut [u32]) {
        let seg = &self.offs[(ch / self.per_seg) * self.seg..];
        let base_step = (ch % self.per_seg, self.per_seg);
        decode_offsets(seg, self.bits, self.m, base_step, idx);
    }

    /// Whether every offset of the `k` channels' segments decodes below
    /// `m` — the [`offsets_below`] fence of the unchecked sweep: with it,
    /// every decoded index `b * m + o` is below `nz * m <= C`.
    fn below_m(&self, k: usize, nz: usize) -> bool {
        let entries = nz * self.per_seg;
        (0..k.div_ceil(self.per_seg))
            .all(|s| offsets_below(&self.offs[s * self.seg..], self.bits, entries, self.m))
    }
}

/// Token-inner sweep for the FC kernels: computes the outputs of
/// `tokens` (a staged tile's token stream) in one walk over the staged
/// weights — the FC twin of [`conv_sweep`]. The tokens are transposed
/// into [`SWEEP_WIDTH`]-wide blocks (row `i` of a block holds input `i`
/// of the chunk's tokens; a short last chunk repeats its last token and
/// never stores the dead lanes), so every weight byte and gather index
/// is loaded **once** per chunk and feeds 8 tokens' multiply-adds
/// through [`lane_dot`]. The channels run 8 at a time: each group's
/// offsets are decoded from the staged stream into an `8 · nz`-entry
/// buffer once per call (no decoded table outlives it), and each
/// chunk's 8 channels leave through the conv sweep's blocked epilogue
/// ([`store_block`]), tokens as lanes.
///
/// Wrapping `i32` accumulation is associative and commutative and the
/// product multiset per (token, channel) is the kernel's, so every output
/// is bit-identical to running the token alone. Token `t`'s `K` outputs
/// land at `out[t * K..]`. Nothing is charged: every token's statistics
/// are the tile's analytic pass (see `fc::drive_fc_batch`).
///
/// The gathers index unchecked only when the offset stream passes the
/// [`offsets_below`] fence; a stream that fails it runs the checked
/// loop, which panics on an index past the input instead of reading it.
pub(crate) fn fc_sweep(
    mem: &nm_platform::Scratchpad,
    job: &crate::fc::FcJob,
    gather: FcGather,
    tokens: &[&[i8]],
    out: &mut [u8],
) {
    let (c, k) = (job.geom.c, job.geom.k);
    debug_assert_eq!(out.len(), tokens.len() * k);
    let n = tokens.len();
    with_lane_block::<u8, _>(n.div_ceil(SWEEP_WIDTH) * c * SWEEP_WIDTH, |blocks| {
        for (block, live) in blocks
            .chunks_exact_mut(c * SWEEP_WIDTH)
            .zip(tokens.chunks(SWEEP_WIDTH))
        {
            for r in 0..SWEEP_WIDTH {
                let x = live[r.min(live.len() - 1)];
                for (i, &v) in x[..c].iter().enumerate() {
                    block[i * SWEEP_WIDTH + r] = v as u8;
                }
            }
        }
        let (nm, seg, per_seg) = match gather {
            FcGather::Dense => {
                let values = mem
                    .slice(job.bufs.weights, k * c)
                    .expect("scratchpad is zero-copy");
                // The identity walk is below `C` by construction.
                fc_sweep_channels::<false>(job, values, c, None, blocks, n, out);
                return;
            }
            FcGather::Plain { nm, seg } => (nm, seg, 1),
            FcGather::Interleaved { nm, seg } => (nm, seg, 2),
        };
        let nz = c / nm.m();
        let values = mem
            .slice(job.bufs.weights, k * nz)
            .expect("scratchpad is zero-copy");
        let offsets = FcOffsets {
            offs: mem
                .slice(job.bufs.offsets, k.div_ceil(per_seg) * seg)
                .expect("scratchpad is zero-copy"),
            seg,
            bits: nm.offset_bits(),
            m: nm.m(),
            per_seg,
        };
        if offsets.below_m(k, nz) {
            fc_sweep_channels::<false>(job, values, nz, Some(&offsets), blocks, n, out);
        } else {
            fc_sweep_channels::<true>(job, values, nz, Some(&offsets), blocks, n, out);
        }
    });
}

/// [`fc_sweep`]'s channel loop: per group of up to 8 output channels,
/// decode their indices into the `8 · nz`-entry buffer (the identity
/// when `offsets` is `None`, the dense case with `nz == C`), then one
/// [`lane_channels`] pass per token block. Instantiate `CHECKED = false`
/// only when every decoded index is below `C` (same contract as
/// [`patch_row`]).
fn fc_sweep_channels<const CHECKED: bool>(
    job: &crate::fc::FcJob,
    values: &[u8],
    nz: usize,
    offsets: Option<&FcOffsets<'_>>,
    blocks: &[u8],
    n_tokens: usize,
    out: &mut [u8],
) {
    let (c, k) = (job.geom.c, job.geom.k);
    // Channel `ch` of a group gathers through `idx[ch * stride..][..nz]`:
    // its own decoded indices, or the one identity walk of the dense
    // kernel.
    let (stride, len) = match offsets {
        Some(_) => (nz, SWEEP_WIDTH * nz),
        None => (0, nz),
    };
    let mut idx: Vec<u32> = (0..len).map(|i| (i % nz) as u32).collect();
    for (g, group) in values.chunks(SWEEP_WIDTH * nz).enumerate() {
        let k0 = g * SWEEP_WIDTH;
        if let Some(offsets) = offsets {
            for (ch, idx) in idx.chunks_exact_mut(nz).take(group.len() / nz).enumerate() {
                offsets.decode(k0 + ch, idx);
            }
        }
        let mut rows: [ChannelRow<'_>; SWEEP_WIDTH] = Default::default();
        for (ch, (row, v)) in rows.iter_mut().zip(group.chunks_exact(nz)).enumerate() {
            *row = (v, &idx[ch * stride..ch * stride + nz]);
        }
        let rows = &rows[..group.len() / nz];
        for (chunk, block) in blocks.chunks_exact(c * SWEEP_WIDTH).enumerate() {
            let t0 = chunk * SWEEP_WIDTH;
            let dst: [usize; SWEEP_WIDTH] = core::array::from_fn(|r| (t0 + r) * k);
            let live = (n_tokens - t0).min(SWEEP_WIDTH);
            lane_channels::<CHECKED, SWEEP_WIDTH, SWEEP_WIDTH, u8>(
                rows,
                block,
                job.requant,
                &dst,
                live,
                k0,
                out,
            );
        }
    }
}

/// Batched equivalent of one `outer_loop_iter(); alu_n(extra);
/// hwloop_setup()` scaffold iteration of a kernel's channel loop.
pub(crate) fn loop_scaffold(costs: &CostModel, extra_alu: u64) -> InstrBlock {
    InstrBlock::new()
        .outer_iter(costs)
        .alu(extra_alu)
        .op(InstrClass::HwLoop, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvGather;
    use crate::testdata::random_data;

    fn pack(entries: &[u8], bits: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; offsets_len(entries.len(), bits)];
        for (i, &e) in entries.iter().enumerate() {
            let bitpos = i * bits;
            bytes[bitpos / 8] |= (e & ((1 << bits) - 1) as u8) << (bitpos % 8);
        }
        bytes
    }

    #[test]
    fn unpack_matches_shift_mask_decoding() {
        let seg4 = pack(&[0, 1, 2, 3, 4, 5, 6, 7], 4);
        for i in 0..8 {
            assert_eq!(unpack_offset(&seg4, 4, i), i);
        }
        let seg2 = pack(&[3, 2, 1, 0], 2);
        assert_eq!(unpack_offset(&seg2, 2, 0), 3);
        assert_eq!(unpack_offset(&seg2, 2, 1), 2);
        assert_eq!(unpack_offset(&seg2, 2, 2), 1);
        assert_eq!(unpack_offset(&seg2, 2, 3), 0);
    }

    #[test]
    fn dense_dot_wraps_like_the_core() {
        let w = [127u8, 0x80, 1]; // 127, -128, 1
        let a = [127u8, 0x80, 0xFF]; // 127, -128, -1
        assert_eq!(dense_dot(&w, &a), 127 * 127 + 128 * 128 - 1);
    }

    /// Slow per-element reference the specialized loops must match, for
    /// every (bits, m, base, step) and odd/even lengths.
    fn gather_ref(
        values: &[u8],
        act: &[u8],
        offs: &[u8],
        bits: usize,
        m: usize,
        base: usize,
        step: usize,
    ) -> i32 {
        let mut acc = 0i32;
        for (b, &wv) in values.iter().enumerate() {
            let o = unpack_offset(offs, bits, base + step * b);
            acc = madd(acc, wv, act[b * m + o]);
        }
        acc
    }

    // Every production decode of a packed offset stream must gather
    // what the reference walk gathers, for every (bits, m) and odd/even
    // lengths: the FC software kernel's plain loops (checked and
    // unchecked), the conv table of the plain (step 1) and duplicated
    // (step 2) layouts, and the FC sweep's plain and interleaved decode
    // (channel `base` of a pair).
    #[test]
    fn specialized_gathers_match_reference() {
        for (bits, m) in [(2usize, 4usize), (4, 8), (4, 16)] {
            for nz in [1, 2, 3, 4, 5, 8, 11] {
                let values: Vec<u8> = random_data(nz, 7).iter().map(|&v| v as u8).collect();
                let act: Vec<u8> = random_data(nz * m, 11).iter().map(|&v| v as u8).collect();
                let table_dot = |idx: &[u32]| {
                    assert_eq!(idx.len(), nz);
                    idx.iter()
                        .zip(&values)
                        .fold(0i32, |s, (&i, &w)| madd(s, w, act[i as usize]))
                };
                for (base, step) in [(0, 1), (0, 2), (1, 2)] {
                    let entries: Vec<u8> = (0..(base + step * nz))
                        .map(|e| ((e * 7 + 3) % m.min(1 << bits)) as u8)
                        .collect();
                    let offs = pack(&entries, bits);
                    let want = gather_ref(&values, &act, &offs, bits, m, base, step);
                    let ctx = format!("bits={bits} m={m} nz={nz} base={base} step={step}");
                    let fc = FcOffsets {
                        offs: &offs,
                        seg: 0,
                        bits,
                        m,
                        per_seg: step,
                    };
                    let mut idx = vec![0u32; nz];
                    fc.decode(base, &mut idx);
                    assert_eq!(table_dot(&idx), want, "FC decode {ctx}");
                    if base == 0 {
                        let table = decim_table(&offs, 1, 0, nz, bits, m, step);
                        assert_eq!(table_dot(&table), want, "conv table {ctx}");
                    }
                    if step == 1 {
                        assert_eq!(nm_gather_dot(&values, &act, &offs, bits, m), want, "{ctx}");
                        let checked = match bits {
                            4 => gather_dot_4bit_plain::<true>(&values, &act, &offs, m),
                            _ => gather_dot_2bit_plain::<true>(&values, &act, &offs, m),
                        };
                        assert_eq!(checked, want, "checked {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn dual_channel_gathers_match_single_channel() {
        for (bits, m) in [(2usize, 4usize), (4, 8), (4, 16)] {
            for nz in [1, 2, 4, 5, 9] {
                let v0: Vec<u8> = random_data(nz, 3).iter().map(|&v| v as u8).collect();
                let v1: Vec<u8> = random_data(nz, 5).iter().map(|&v| v as u8).collect();
                let act: Vec<u8> = random_data(nz * m, 7).iter().map(|&v| v as u8).collect();
                // Interleaved pair stream: entries 2b + q.
                let entries: Vec<u8> = (0..2 * nz)
                    .map(|e| ((e * 3 + 1) % m.min(1 << bits)) as u8)
                    .collect();
                let offs = pack(&entries, bits);
                let want0 = gather_ref(&v0, &act, &offs, bits, m, 0, 2);
                let want1 = gather_ref(&v1, &act, &offs, bits, m, 1, 2);
                assert_eq!(
                    gather_dot2_pair(&v0, &v1, &act, &offs, bits, m),
                    (want0, want1),
                    "pair bits={bits} m={m} nz={nz}"
                );
            }
        }
    }

    #[test]
    fn decim_table_and_lane_dots_match_gather() {
        let (bits, m, channels) = (4usize, 8usize, 3usize);
        // nz below 8, past a multiple of 8, and DS-CNN's 72 (= 576 / 8).
        for nz in [5usize, 9, 72] {
            let seg_stride = offsets_len(2 * nz, bits) + 3;
            let mut region = vec![0u8; channels * seg_stride];
            for k in 0..channels {
                let entries: Vec<u8> = (0..2 * nz).map(|e| ((e * 5 + k) % m) as u8).collect();
                let packed = pack(&entries, bits);
                region[k * seg_stride..k * seg_stride + packed.len()].copy_from_slice(&packed);
            }
            let tab = decim_table(&region, channels, seg_stride, nz, bits, m, 2);
            assert_eq!(tab.len(), channels * nz);
            assert!(table_below(&tab, nz * m));
            // One activation window per lane.
            let acts: Vec<Vec<u8>> = (0..CONV_LANES as u64)
                .map(|j| {
                    random_data(nz * m, 3 + j)
                        .iter()
                        .map(|&v| v as u8)
                        .collect()
                })
                .collect();
            // Transposed blocks, element `i` of lane `j` at `i * W + j`:
            // bytes 8 lanes wide (the FC sweep's), `i16` 16 wide (the
            // conv sweep's).
            let bytes: Vec<u8> = (0..nz * m)
                .flat_map(|i| acts[..SWEEP_WIDTH].iter().map(move |a| a[i]))
                .collect();
            let wide: Vec<i16> = (0..nz * m)
                .flat_map(|i| acts.iter().map(move |a| i16::from(a[i] as i8)))
                .collect();
            for k in 0..channels {
                let values: Vec<u8> = random_data(nz, k as u64 + 13)
                    .iter()
                    .map(|&v| v as u8)
                    .collect();
                let seg = &region[k * seg_stride..];
                let want: Vec<i32> = acts
                    .iter()
                    .map(|a| gather_ref(&values, a, seg, bits, m, 0, 2))
                    .collect();
                // The first `lanes` lanes of `want`, the rest zero.
                fn first<const W: usize>(want: &[i32], lanes: usize) -> [i32; W] {
                    core::array::from_fn(|j| if j < lanes { want[j] } else { 0 })
                }
                let t = &tab[k * nz..(k + 1) * nz];
                let ctx = format!("nz {nz} channel {k}");
                assert_eq!(
                    lane_dot::<true, 8, 8, u8>(&values, t, &bytes),
                    first(&want, 8),
                    "{ctx}"
                );
                assert_eq!(
                    lane_dot::<false, 8, 8, u8>(&values, t, &bytes),
                    first(&want, 8),
                    "{ctx}"
                );
                assert_eq!(
                    lane_dot::<true, 16, 16, i16>(&values, t, &wide),
                    first(&want, 16),
                    "{ctx}"
                );
                assert_eq!(
                    lane_dot::<false, 16, 16, i16>(&values, t, &wide),
                    first(&want, 16),
                    "{ctx}"
                );
                assert_eq!(
                    lane_dot::<true, 8, 16, i16>(&values, t, &wide),
                    first(&want, 8),
                    "{ctx}"
                );
                assert_eq!(
                    lane_dot::<false, 8, 16, i16>(&values, t, &wide),
                    first(&want, 8),
                    "{ctx}"
                );
                assert_eq!(
                    lane_dot::<true, 4, 16, i16>(&values, t, &wide),
                    first(&want, 4),
                    "{ctx}"
                );
                assert_eq!(
                    lane_dot::<false, 4, 16, i16>(&values, t, &wide),
                    first(&want, 4),
                    "{ctx}"
                );
            }
        }
    }

    /// Accumulators that probe the requantize's edges at shift `s`: the
    /// `i32` extremes, 0, ±1, the last values that stay inside `i8`
    /// after the shift and the first that saturate, plus random ones.
    fn edge_accumulators(s: u32, seed: u64) -> Vec<i32> {
        let mut accs = vec![i32::MIN, i32::MAX, 0, 1, -1];
        for edge in [127i32 << s, 128i32 << s] {
            for a in [edge, edge.wrapping_add(1), edge.wrapping_sub(1)] {
                accs.extend([a, a.wrapping_neg()]);
            }
        }
        let noise = random_data(4 * 64, seed);
        accs.extend(
            noise
                .chunks_exact(4)
                .map(|b| i32::from_le_bytes([b[0] as u8, b[1] as u8, b[2] as u8, b[3] as u8])),
        );
        accs
    }

    // The blocked epilogue must store, lane by lane, exactly what
    // `Requant::apply` returns: every shift, biases at the `i32`
    // extremes, accumulators at every saturation edge, at each lane
    // width the sweeps use, with dead lanes left untouched.
    #[test]
    fn store_block_requantizes_like_apply() {
        fn check<const LANES: usize, const W: usize>(rq: Requant, accs: &[i32], live: usize) {
            let (k0, stride) = (3usize, 13usize);
            let dst: [usize; W] = core::array::from_fn(|j| j * stride);
            for window in 0..accs.len().div_ceil(SWEEP_WIDTH * LANES) {
                let acc: [[i32; W]; SWEEP_WIDTH] = core::array::from_fn(|c| {
                    core::array::from_fn(|j| {
                        let i = window * SWEEP_WIDTH * LANES + c * LANES + j;
                        if j < LANES {
                            accs[i % accs.len()]
                        } else {
                            0
                        }
                    })
                });
                let mut out = vec![0xA5u8; W * stride + k0 + SWEEP_WIDTH];
                store_block::<LANES, W>(rq, &acc, &dst, live, k0, &mut out);
                for (j, &d) in dst.iter().enumerate() {
                    for (c, a) in acc.iter().enumerate() {
                        let want = if j < live { rq.apply(a[j]) as u8 } else { 0xA5 };
                        assert_eq!(
                            out[d + k0 + c],
                            want,
                            "{rq:?} lane {j} channel {c} acc {}",
                            a[j]
                        );
                    }
                }
            }
        }
        let random_biases: Vec<i32> = random_data(16, 29)
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes([b[0] as u8, b[1] as u8, b[2] as u8, b[3] as u8]))
            .collect();
        for shift in 0..32u8 {
            let accs = edge_accumulators(u32::from(shift), 31 + u64::from(shift));
            for &bias in [0, 1, -1, i32::MIN, i32::MAX].iter().chain(&random_biases) {
                let rq = Requant::new(bias, shift).unwrap();
                check::<16, 16>(rq, &accs, 16);
                check::<16, 16>(rq, &accs, 9);
                check::<8, 16>(rq, &accs, 8);
                check::<8, 16>(rq, &accs, 5);
                check::<4, 16>(rq, &accs, 3);
                check::<8, 8>(rq, &accs, 8);
                check::<8, 8>(rq, &accs, 6);
            }
        }
    }

    // The epilogue's byte transpose: lane `j`'s row holds byte `j` of
    // every channel register, for 16 and 8 lanes, and an 8×8 transpose
    // of the 8-lane rows gives back the channel registers.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transpose_bytes_round_trips() {
        use core::arch::x86_64::*;
        let m: Vec<u8> = random_data(8 * 16, 37).iter().map(|&v| v as u8).collect();
        let load = |b: &[u8]| {
            let mut x = [0u8; 16];
            x[..b.len()].copy_from_slice(b);
            // SAFETY: SSE2 is part of the x86-64 baseline ABI; `x` is 16
            // bytes.
            unsafe { _mm_loadu_si128(x.as_ptr().cast()) }
        };
        let lane_rows = |rows: &[__m128i; SWEEP_WIDTH]| {
            let mut bytes = [0u8; 128];
            for (q, r) in rows.iter().enumerate() {
                // SAFETY: as above; each store writes 16 of `bytes`' 128.
                unsafe { _mm_storeu_si128(bytes.as_mut_ptr().add(16 * q).cast(), *r) };
            }
            bytes
        };
        let ch: [__m128i; SWEEP_WIDTH] = core::array::from_fn(|c| load(&m[16 * c..16 * c + 16]));
        let rows16 = lane_rows(&transpose_bytes::<16>(&ch));
        let rows8 = lane_rows(&transpose_bytes::<8>(&ch));
        for j in 0..16 {
            for c in 0..8 {
                assert_eq!(
                    rows16[8 * j + c],
                    m[16 * c + j],
                    "16 lanes: lane {j} channel {c}"
                );
                if j < 8 {
                    assert_eq!(
                        rows8[8 * j + c],
                        m[16 * c + j],
                        "8 lanes: lane {j} channel {c}"
                    );
                }
            }
        }
        let again: [__m128i; SWEEP_WIDTH] =
            core::array::from_fn(|j| load(&rows8[8 * j..8 * j + 8]));
        let back = lane_rows(&transpose_bytes::<8>(&again));
        for c in 0..8 {
            assert_eq!(
                back[8 * c..8 * c + 8],
                m[16 * c..16 * c + 8],
                "round trip, channel {c}"
            );
        }
    }

    #[test]
    fn table_below_is_a_strict_bound() {
        assert!(table_below(&[], 0));
        assert!(table_below(&[0, 3, 7], 8));
        assert!(!table_below(&[0, 3, 8], 8));
    }

    #[test]
    fn loop_scaffold_matches_per_instruction_charging() {
        use nm_isa::Core;
        let costs = CostModel {
            outer_loop_instrs: 4,
            branch_taken_penalty: 3,
            ..CostModel::VEGA
        };
        let mut reference = Core::new(costs);
        reference.outer_loop_iter();
        reference.alu_n(3);
        reference.hwloop_setup();
        let mut fast = Core::new(costs);
        fast.charge_block(&loop_scaffold(&costs, 3));
        assert_eq!(fast.stats(), reference.stats());

        let none = CostModel {
            outer_loop_instrs: 0,
            ..CostModel::VEGA
        };
        assert_eq!(loop_scaffold(&none, 2).count(InstrClass::Branch), 0);
    }

    #[test]
    fn dense_dot_chunked_matches_serial() {
        for n in [0usize, 1, 4, 15, 16, 17, 33, 64, 100] {
            let w: Vec<u8> = random_data(n, 3).iter().map(|&v| v as u8).collect();
            let a: Vec<u8> = random_data(n, 5).iter().map(|&v| v as u8).collect();
            let mut want = 0i32;
            for (&wv, &av) in w.iter().zip(&a) {
                want = madd(want, wv, av);
            }
            assert_eq!(dense_dot(&w, &a), want, "n={n}");
        }
    }

    #[test]
    fn offsets_below_validates_streams() {
        // 2-bit fields cannot reach m = 4: always valid.
        assert!(offsets_below(&[0xFF], 2, 4, 4));
        // 4-bit fields with m = 16: always valid.
        assert!(offsets_below(&[0xFF], 4, 2, 16));
        // m = 8 bytewise check: low nibble 8 is invalid.
        assert!(offsets_below(&pack(&[7, 3, 0, 5], 4), 4, 4, 8));
        assert!(!offsets_below(&pack(&[7, 8], 4), 4, 2, 8));
        // Odd entry count checks only the low nibble of the last byte.
        assert!(offsets_below(&pack(&[7, 3, 5, 0x9], 4), 4, 3, 8));
        assert!(!offsets_below(&pack(&[7, 3, 9], 4), 4, 3, 8));
        // Generic slow path (m not a power-of-two special case).
        assert!(offsets_below(&pack(&[4, 5, 0], 4), 4, 3, 6));
        assert!(!offsets_below(&pack(&[4, 6, 0], 4), 4, 3, 6));
    }

    #[test]
    fn csr_gather_matches_scalar() {
        let input: Vec<u8> = random_data(300, 9).iter().map(|&v| v as u8).collect();
        let values: Vec<u8> = random_data(7, 11).iter().map(|&v| v as u8).collect();
        let cols: [u16; 7] = [0, 299, 17, 3, 256, 128, 64];
        let mut cols16 = Vec::new();
        for c in cols {
            cols16.extend_from_slice(&c.to_le_bytes());
        }
        let mut want = 0i32;
        for (i, &c) in cols.iter().enumerate() {
            want = madd(want, values[i], input[usize::from(c)]);
        }
        assert_eq!(csr_gather_dot::<true>(&values, &cols16, &input), want);
        assert_eq!(csr_gather_dot::<false>(&values, &cols16, &input), want);
        assert_eq!(csr_gather_dot::<true>(&[], &[], &input), 0);
        assert!(u16_indices_below(&cols16, 300));
        assert!(!u16_indices_below(&cols16, 299));
    }

    #[test]
    fn dcsr_gather_decodes_escapes() {
        // Columns 0 (delta 1), 14 (delta 14), 230 (delta 216, escaped as
        // 216 - 16 = 200 = 0xC8 → nibbles 8, 12).
        let deltas = pack(&[1u8, 14, 0, 8, 12], 4);
        let mut input = vec![0u8; 256];
        (input[0], input[14], input[230]) = (2, 3, 5);
        let values = [10u8, 100, 7];
        assert_eq!(
            dcsr_gather_dot(&values, &deltas, 1, &input),
            10 * 2 + 100 * 3 + 7 * 5
        );
        assert_eq!(dcsr_gather_dot(&[], &[], 0, &input), 0);
    }

    #[test]
    fn dcsr_noesc_path_matches_serial_walk() {
        // Escape-free stream (all deltas <= 15), odd and even lengths.
        for nnz in [1usize, 2, 5, 8, 11] {
            let entries: Vec<u8> = (0..nnz).map(|i| (i % 15) as u8 + 1).collect();
            let deltas = pack(&entries, 4);
            let input: Vec<u8> = random_data(256, 17).iter().map(|&v| v as u8).collect();
            let values: Vec<u8> = random_data(nnz, 19).iter().map(|&v| v as u8).collect();
            // Force the serial walk by declaring a (fictitious) escape
            // count; it only switches paths, decode is stream-driven.
            let serial = dcsr_gather_dot(&values, &deltas, usize::MAX, &input);
            assert_eq!(
                dcsr_gather_dot(&values, &deltas, 0, &input),
                serial,
                "{nnz}"
            );
        }
    }

    #[test]
    fn blockwise_gather_matches_scalar() {
        let input: Vec<u8> = random_data(64, 13).iter().map(|&v| v as u8).collect();
        let values: Vec<u8> = random_data(12, 15).iter().map(|&v| v as u8).collect();
        let idx: [u16; 3] = [3, 0, 15];
        let mut idx16 = Vec::new();
        for i in idx {
            idx16.extend_from_slice(&i.to_le_bytes());
        }
        let mut want = 0i32;
        for (b, &ix) in idx.iter().enumerate() {
            for j in 0..4 {
                want = madd(want, values[4 * b + j], input[usize::from(ix) * 4 + j]);
            }
        }
        assert_eq!(blockwise_gather_dot::<true>(&values, &idx16, &input), want);
        assert_eq!(blockwise_gather_dot::<false>(&values, &idx16, &input), want);
        assert_eq!(blockwise_gather_dot::<true>(&[], &[], &input), 0);
        assert!(u16_indices_below(&idx16, 16));
        assert!(!u16_indices_below(&idx16, 15));
    }

    #[test]
    fn offsets_len_rounds_up() {
        assert_eq!(offsets_len(8, 4), 4);
        assert_eq!(offsets_len(9, 4), 5);
        assert_eq!(offsets_len(3, 2), 1);
        assert_eq!(offsets_len(5, 2), 2);
    }

    #[test]
    fn sweep_len_takes_full_chunks_and_wide_remainders() {
        for (n, swept) in [
            (0, 0),
            (4, 0),
            (5, 5),
            (8, 8),
            (11, 8),
            (12, 8),
            (13, 13),
            (16, 16),
            (20, 16),
        ] {
            assert_eq!(sweep_len(n), swept, "n={n}");
        }
    }

    /// A staged 1:8 plain-layout FC tile (C = 32, K = 2, so 4 non-zeros
    /// per channel) whose channel-1 offset of block `block` is replaced
    /// by `bad` — a value the fence must reject (>= M = 8). Returns the
    /// scratchpad, the job, the gather, 8 tokens and each channel's
    /// decoded offsets.
    #[allow(clippy::type_complexity)]
    fn corrupted_fc_tile(
        block: usize,
        bad: u8,
    ) -> (
        nm_platform::Scratchpad,
        crate::fc::FcJob,
        FcGather,
        Vec<Vec<i8>>,
        [[usize; 4]; 2],
    ) {
        use nm_core::sparsity::Nm;
        let nm = Nm::ONE_OF_EIGHT;
        let (c, k, seg) = (32usize, 2usize, 4usize);
        let mut offs = [[3usize, 0, 7, 5], [1, 6, 2, 4]];
        offs[1][block] = usize::from(bad);
        let mut mem = nm_platform::Scratchpad::new("l1", 4096);
        let bufs = crate::layout::FcBufs {
            input: mem.alloc(c, 4).unwrap(),
            weights: mem.alloc(k * 4, 4).unwrap(),
            offsets: mem.alloc(k * seg, 4).unwrap(),
            output: mem.alloc(k, 4).unwrap(),
        };
        let values: Vec<u8> = random_data(k * 4, 71).iter().map(|&v| v as u8).collect();
        mem.write_bytes(bufs.weights, &values);
        for (ch, o) in offs.iter().enumerate() {
            let entries: Vec<u8> = o.iter().map(|&e| e as u8).collect();
            mem.write_bytes(bufs.offsets + (ch * seg) as u32, &pack(&entries, 4));
        }
        let job = crate::fc::FcJob {
            geom: nm_core::FcGeom::new(c, k).unwrap(),
            requant: Requant::new(0, 5).unwrap(),
            bufs,
        };
        let tokens = (0..8).map(|t| random_data(c, 80 + t)).collect();
        (mem, job, FcGather::Plain { nm, seg }, tokens, offs)
    }

    /// A staged 1:8 sparse conv tile (3x3 over 8 channels, so a 72-byte
    /// patch of 9 blocks per channel) whose channel-1 offset of block
    /// `block` is rewritten in L1 to `bad`. At 1:8 an offset of 8..15 is
    /// invalid but fits the 4-bit field, so the decoded index
    /// (`block * 8 + bad`) lands in a later block of the patch or past
    /// its end. The duplicated (`xDecimate`) stream gets both copies
    /// rewritten, as a consistent corruption of the staged weights.
    /// Returns the scratchpad, the job and nine inputs, input 0 being
    /// the staged one.
    fn corrupted_conv_tile(
        layout: nm_core::format::OffsetLayout,
        block: usize,
        bad: u8,
    ) -> (
        nm_platform::Scratchpad,
        crate::conv::sparse_sw::SparseConvJob,
        Vec<Vec<i8>>,
    ) {
        use nm_core::format::{NmMatrix, OffsetLayout};
        use nm_core::sparsity::Nm;
        let nm = Nm::ONE_OF_EIGHT;
        let geom = nm_core::ConvGeom::square(8, 4, 5, 3, 1, 1).unwrap();
        let inputs: Vec<Vec<i8>> = (0..9)
            .map(|r| random_data(geom.input_elems(), 90 + r))
            .collect();
        let dense = random_data(geom.weight_elems(), 97);
        let w = NmMatrix::prune_from_dense(&dense, geom.k, geom.patch_len(), nm, layout).unwrap();
        let mut mem = nm_platform::Scratchpad::new("l1", 64 * 1024);
        let bufs = crate::layout::stage_conv_sparse(&mut mem, &geom, &inputs[0], &w, 2).unwrap();
        let nz = geom.patch_len() / nm.m();
        let seg = crate::layout::nm_segment_bytes(nm, nz, layout);
        let step = if layout == OffsetLayout::Duplicated {
            2
        } else {
            1
        };
        let seg_addr = bufs.offsets + seg as u32;
        let mut bytes = mem.slice(seg_addr, seg).unwrap().to_vec();
        for e in step * block..step * (block + 1) {
            let shift = 4 * (e % 2);
            bytes[e / 2] = (bytes[e / 2] & !(0xF << shift)) | (bad << shift);
        }
        mem.write_bytes(seg_addr, &bytes);
        let job = crate::conv::sparse_sw::SparseConvJob {
            conv: crate::conv::ConvJob {
                geom,
                requant: Requant::for_dot_len(nz),
                bufs,
            },
            nm,
        };
        (mem, job, inputs)
    }

    /// The in-kernel table build's fence verdict for a corrupted tile.
    fn conv_tile_in_range(
        mem: &nm_platform::Scratchpad,
        job: &crate::conv::sparse_sw::SparseConvJob,
        step: usize,
    ) -> (Vec<u32>, bool) {
        let geom = job.conv.geom;
        let nz = job.nz_per_channel();
        let layout = if step == 2 {
            nm_core::format::OffsetLayout::Duplicated
        } else {
            nm_core::format::OffsetLayout::Plain
        };
        let seg = crate::layout::nm_segment_bytes(job.nm, nz, layout);
        let offs = mem.slice(job.conv.bufs.offsets, geom.k * seg).unwrap();
        let table = decim_table(offs, geom.k, seg, nz, 4, 8, step);
        let in_range = table_below(&table, geom.patch_len());
        (table, in_range)
    }

    // The conv fence bounds decoded *indices* by the patch length, not
    // offsets by M: a corrupted offset whose index still lands inside the
    // patch passes `table_below`, because the unchecked gather then stays
    // in bounds. It must also stay exact: the bulk tier computes the
    // gather the offset encodes, bit- and cycle-identical to the
    // reference tier on the same staging — single runs (whole
    // scratchpad) and batch sweeps that fill the request-inner chunks —
    // and the checked sweep loop agrees with the unchecked one.
    #[test]
    fn conv_corrupted_offsets_inside_the_patch_match_the_reference() {
        use crate::conv::sparse_isa::{conv_sparse_isa_prepared, conv_sparse_isa_prepared_batch};
        use crate::conv::sparse_sw::{conv_sparse_sw_prepared, conv_sparse_sw_prepared_batch};
        use crate::stats::Ctx;
        use nm_core::format::OffsetLayout;
        let cluster = nm_platform::Cluster::new(2, CostModel::default());
        for (layout, step) in [(OffsetLayout::Plain, 1), (OffsetLayout::Duplicated, 2)] {
            let (mem, job, inputs) = corrupted_conv_tile(layout, 0, 9);
            let (table, in_range) = conv_tile_in_range(&mem, &job, step);
            assert_eq!(
                table[job.nz_per_channel()],
                9,
                "{layout:?}: corrupted entry"
            );
            assert!(in_range, "{layout:?}: index 9 is inside the 72-byte patch");
            let single = |ctx: &mut Ctx<'_>| match layout {
                OffsetLayout::Plain => conv_sparse_sw_prepared(ctx, &job, &cluster, None),
                _ => conv_sparse_isa_prepared(ctx, &job, &cluster, None),
            };
            let (mut reference, mut bulk) = (mem.clone(), mem.clone());
            let want = single(&mut Ctx::Mem(&mut reference)).unwrap();
            let got = single(&mut Ctx::MemBulk(&mut bulk)).unwrap();
            assert_eq!(got, want, "{layout:?} stats");
            assert_eq!(bulk.bytes(), reference.bytes(), "{layout:?} memory");

            let refs: Vec<&[i8]> = inputs.iter().map(Vec::as_slice).collect();
            for b in [SWEEP_MIN + 1, SWEEP_WIDTH + 1] {
                let batch = &refs[..b];
                let run = |ctx: &mut Ctx<'_>| match layout {
                    OffsetLayout::Plain => {
                        conv_sparse_sw_prepared_batch(ctx, &job, &cluster, None, batch)
                    }
                    _ => conv_sparse_isa_prepared_batch(ctx, &job, &cluster, None, batch),
                };
                let want = run(&mut Ctx::Mem(&mut mem.clone())).unwrap();
                let got = run(&mut Ctx::MemBulk(&mut mem.clone())).unwrap();
                assert_eq!(got.outputs, want.outputs, "{layout:?} b{b} outputs");
                assert_eq!(got.stats, want.stats, "{layout:?} b{b} stats");
            }

            let out_elems = job.conv.geom.output_elems();
            let sweep = |checked: bool| {
                let mut out = vec![0u8; (refs.len() - 1) * out_elems];
                let gather = ConvGather::Sparse {
                    nz: job.nz_per_channel(),
                    table: &table,
                    in_range: !checked,
                };
                gather.sweep(&mem, &job.conv, &refs[1..], &mut out);
                out
            };
            assert_eq!(
                sweep(true),
                sweep(false),
                "{layout:?} checked vs unchecked sweep"
            );
        }
    }

    // A corrupted offset that points past the patch must panic as a
    // checked slice index: a single run sweeps its one request, and the
    // fence sends the table down the sweep's checked loop. The unchecked
    // loop would instead trip its debug assertion ("pre-validated row
    // range") in debug builds and read out of bounds in release builds,
    // so this message shows the fence held in both profiles.
    #[test]
    #[should_panic(expected = "out of range for slice")]
    fn conv_corrupted_offsets_past_the_patch_panic_in_the_checked_gather() {
        let (mut mem, job, _) = corrupted_conv_tile(nm_core::format::OffsetLayout::Plain, 8, 15);
        let cluster = nm_platform::Cluster::new(2, CostModel::default());
        let _ = crate::conv::sparse_sw::conv_sparse_sw(
            &mut crate::stats::Ctx::MemBulk(&mut mem),
            &job,
            &cluster,
        );
    }

    // The batch sweep behind that gather: past-the-patch indices panic
    // in its checked row loads ("pre-validated row range" would be the
    // unchecked loop's debug assertion).
    #[test]
    #[should_panic(expected = "out of range for slice")]
    fn conv_sweep_corrupted_offsets_past_the_patch_panic_in_the_checked_loop() {
        let (mem, job, inputs) = corrupted_conv_tile(nm_core::format::OffsetLayout::Plain, 8, 15);
        let (table, in_range) = conv_tile_in_range(&mem, &job, 1);
        assert!(!in_range, "the fence must reject index 79 >= 72");
        let refs: Vec<&[i8]> = inputs[1..].iter().map(Vec::as_slice).collect();
        let mut out = vec![0u8; refs.len() * job.conv.geom.output_elems()];
        let gather = ConvGather::Sparse {
            nz: job.nz_per_channel(),
            table: &table,
            in_range,
        };
        gather.sweep(&mem, &job.conv, &refs, &mut out);
    }

    // Offsets that fail the `offsets_below` fence take the checked sweep
    // loop: a corrupted offset that still lands inside the input
    // computes exactly the gather it encodes.
    #[test]
    fn fc_sweep_corrupted_offsets_inside_the_input_take_the_checked_loop() {
        let (mem, job, gather, tokens, offs) = corrupted_fc_tile(0, 9);
        let FcGather::Plain { nm, seg } = gather else {
            unreachable!()
        };
        let fence = FcOffsets {
            offs: mem.slice(job.bufs.offsets, 2 * seg).unwrap(),
            seg,
            bits: nm.offset_bits(),
            m: nm.m(),
            per_seg: 1,
        };
        assert!(!fence.below_m(2, 4), "the fence must reject offset 9 >= M");
        let xs: Vec<&[i8]> = tokens.iter().map(Vec::as_slice).collect();
        let mut out = vec![0u8; xs.len() * 2];
        fc_sweep(&mem, &job, gather, &xs, &mut out);
        let values = mem.slice(job.bufs.weights, 8).unwrap();
        for (t, x) in xs.iter().enumerate() {
            for (ch, o) in offs.iter().enumerate() {
                let acc = (0..4).fold(0i32, |s, b| {
                    madd(s, values[ch * 4 + b], x[b * 8 + o[b]] as u8)
                });
                assert_eq!(out[t * 2 + ch], job.requant.apply(acc) as u8, "t{t} ch{ch}");
            }
        }
    }

    // A corrupted offset that points past the input must panic as a
    // checked slice index. The unchecked loop would instead trip its
    // debug assertion ("pre-validated row range") in debug builds and
    // read out of bounds in release builds, so this message shows the
    // fence sent the stream down the checked loop in both profiles.
    #[test]
    #[should_panic(expected = "out of range for slice")]
    fn fc_sweep_corrupted_offsets_past_the_input_panic_in_the_checked_loop() {
        let (mem, job, gather, tokens, _) = corrupted_fc_tile(3, 12);
        let xs: Vec<&[i8]> = tokens.iter().map(Vec::as_slice).collect();
        let mut out = vec![0u8; xs.len() * 2];
        fc_sweep(&mem, &job, gather, &xs, &mut out);
    }
}
