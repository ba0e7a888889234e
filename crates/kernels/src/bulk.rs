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
//! The decode+dot loops are specialized per offset width and layout so
//! the hot path runs without per-element divisions: 4-bit plain offsets
//! decode two blocks per stream byte, 2-bit plain four, and the
//! duplicated/interleaved pair layouts one or two blocks per byte at a
//! fixed lane shift. Convolution kernels go one step further and
//! pre-decode each channel's offsets into an index table
//! ([`decim_table`]) once per invocation, because the same table is
//! reused by every output position pair.
//!
//! The gathers index their activation windows *unchecked* after a cheap
//! pre-validation of the packed index stream ([`offsets_below`],
//! [`u16_indices_below`]) — the only `unsafe` in the crate, each site
//! carrying its proof obligation next to the validation that discharges
//! it. Streams that fail validation fall back to the bounds-checked
//! loops, preserving the original panic behavior.
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
/// [`dot8`]); elsewhere the loop stays as 16 lane-parallel
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
        // `table_below` proved every pre-decoded index below the
        // activation window length.
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

/// Decimated wrapping dot product: for each non-zero `b`, multiplies
/// `values[b]` with the activation at `b * m + offset(b)`, where the
/// offset comes from entry `base + step * b` of the packed stream.
/// `step`/`base` encode the three offset layouts: plain `(0, 1)`,
/// duplicated `(0, 2)`, interleaved channel `q` `(q, 2)`.
#[inline]
pub(crate) fn nm_gather_dot(
    values: &[u8],
    activations: &[u8],
    offsets: &[u8],
    bits: usize,
    m: usize,
    base: usize,
    step: usize,
) -> i32 {
    // Pre-validated unchecked-index window (plain layouts only — the
    // pair loops stay checked): when every offset in the stream decodes
    // below `m` and the activation window covers all `values.len()`
    // blocks, the specialized loops skip per-element bounds checks
    // (`at::<false>`); otherwise they run checked and panic exactly
    // where the old loops did. The validation scan runs only on the
    // arms that consume its result.
    let safe =
        || activations.len() >= values.len() * m && offsets_below(offsets, bits, values.len(), m);
    debug_assert!(base == 0 || step != 1, "plain layout streams start at 0");
    match (bits, step) {
        (4, 1) if safe() => gather_dot_4bit_plain::<false>(values, activations, offsets, m),
        (4, 1) => gather_dot_4bit_plain::<true>(values, activations, offsets, m),
        (2, 1) if safe() => gather_dot_2bit_plain::<false>(values, activations, offsets, m),
        (2, 1) => gather_dot_2bit_plain::<true>(values, activations, offsets, m),
        (4, 2) => gather_dot_4bit_pair(values, activations, offsets, m, base),
        (2, 2) => gather_dot_2bit_pair(values, activations, offsets, m, base),
        _ => {
            let mut acc = 0i32;
            for (b, &wv) in values.iter().enumerate() {
                let o = unpack_offset(offsets, bits, base + step * b);
                acc = madd(acc, wv, activations[b * m + o]);
            }
            acc
        }
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

/// 4-bit pair stream (duplicated / interleaved): block `b`'s entry for
/// lane `q` is nibble `q` of byte `b`.
fn gather_dot_4bit_pair(values: &[u8], act: &[u8], offs: &[u8], m: usize, q: usize) -> i32 {
    let shift = 4 * q as u32;
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let mut row = 0usize;
    let pairs = values.chunks_exact(2);
    let rem = pairs.remainder();
    for (v, ob) in pairs.zip(offs.chunks_exact(2)) {
        acc0 = madd(acc0, v[0], act[row + ((ob[0] >> shift) & 0xF) as usize]);
        acc1 = madd(acc1, v[1], act[row + m + ((ob[1] >> shift) & 0xF) as usize]);
        row += 2 * m;
    }
    if let [v] = rem {
        let b = values.len() - 1;
        acc0 = madd(acc0, *v, act[row + unpack_offset(offs, 4, 2 * b + q)]);
    }
    acc0.wrapping_add(acc1)
}

/// 2-bit pair stream (1:4 duplicated / interleaved): two blocks per
/// byte; block `b`'s lane-`q` entry sits at bit `4 * (b % 2) + 2 * q`.
fn gather_dot_2bit_pair(values: &[u8], act: &[u8], offs: &[u8], m: usize, q: usize) -> i32 {
    let s = 2 * q as u32;
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    let mut row = 0usize;
    let pairs = values.chunks_exact(2);
    let rem = pairs.remainder();
    for (v, &ob) in pairs.zip(offs) {
        acc0 = madd(acc0, v[0], act[row + ((ob >> s) & 3) as usize]);
        acc1 = madd(acc1, v[1], act[row + m + ((ob >> (4 + s)) & 3) as usize]);
        row += 2 * m;
    }
    if let [v] = rem {
        let b = values.len() - 1;
        acc0 = madd(acc0, *v, act[row + unpack_offset(offs, 2, 2 * b + q)]);
    }
    acc0.wrapping_add(acc1)
}

/// Pre-decoded decimation table for the convolution kernels: entry
/// `k * nz + b` is the patch-buffer index `b * m + offset` of channel
/// `k`'s block `b`. Channels' segments start at `seg_stride` intervals in
/// `offs_region`; entry `base + step * b` of a segment carries block
/// `b`'s offset (the same stream walk the `xDecimate` csr performs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decim_table(
    offs_region: &[u8],
    channels: usize,
    seg_stride: usize,
    nz: usize,
    bits: usize,
    m: usize,
    base: usize,
    step: usize,
) -> Vec<u32> {
    let mut table = Vec::with_capacity(channels * nz);
    for k in 0..channels {
        let seg = &offs_region[k * seg_stride..];
        for b in 0..nz {
            let o = unpack_offset(seg, bits, base + step * b);
            table.push((b * m + o) as u32);
        }
    }
    table
}

/// True when every pre-decoded table index is below `limit` — the
/// pre-validation that lets [`indexed_dot`] / [`indexed_dot2`] gather
/// unchecked. A branch-free max fold so it vectorizes; it runs once per
/// table (at kernel invocation, or once for the lifetime of a prepared
/// [`crate::conv::DecimProgram`]) and is then amortized over every
/// output position pair.
#[inline]
pub(crate) fn table_below(table: &[u32], limit: usize) -> bool {
    let mut max = 0u32;
    for &t in table {
        max = max.max(t);
    }
    table.is_empty() || (max as usize) < limit
}

/// Wrapping dot of packed values against one activation buffer through a
/// pre-decoded index table. Instantiate `CHECKED = false` only after
/// [`table_below`]`(tab, act.len())` held (same contract as [`at`]).
///
/// On x86-64 the gathers land in an 8-byte stack buffer that feeds SSE2
/// `pmaddwd` (exact for `i8 × i8`, see [`dot8`]); elsewhere a two-chain
/// scalar walk. Both are reassociations of the same wrapping-`i32` sum,
/// so the result is bit-identical either way.
#[inline]
pub(crate) fn indexed_dot<const CHECKED: bool>(values: &[u8], tab: &[u32], act: &[u8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    {
        indexed_dot_sse2::<CHECKED>(values, tab, act)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut acc0 = 0i32;
        let mut acc1 = 0i32;
        let pairs = values.chunks_exact(2);
        let rem = pairs.remainder();
        for (v, t) in pairs.zip(tab.chunks_exact(2)) {
            acc0 = madd(acc0, v[0], at::<CHECKED>(act, t[0] as usize));
            acc1 = madd(acc1, v[1], at::<CHECKED>(act, t[1] as usize));
        }
        if let [v] = rem {
            acc0 = madd(acc0, *v, act[tab[values.len() - 1] as usize]);
        }
        acc0.wrapping_add(acc1)
    }
}

/// [`indexed_dot`]'s SSE2 body: 8 table-gathered activation bytes per
/// step, sign-extended alongside the matching weight bytes and folded
/// through `pmaddwd` into one `i32x4` accumulator; the sub-8 tail stays
/// scalar. The gather itself is serial either way (no SSE2 gather
/// instruction exists) — the win is the 8-wide multiply-add.
#[cfg(target_arch = "x86_64")]
#[inline]
fn indexed_dot_sse2<const CHECKED: bool>(values: &[u8], tab: &[u32], act: &[u8]) -> i32 {
    use core::arch::x86_64::*;
    #[inline(always)]
    fn extend(r: &[u8; 8]) -> __m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline ABI.
        unsafe {
            let x = _mm_loadl_epi64(r.as_ptr().cast());
            _mm_srai_epi16::<8>(_mm_unpacklo_epi8(_mm_setzero_si128(), x))
        }
    }
    let chunks = values.len() / 8;
    let mut gathered = [0u8; 8];
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; operands are
    // stack arrays and in-bounds 8-byte slices.
    let mut sum = unsafe {
        let mut acc = _mm_setzero_si128();
        for c in 0..chunks {
            for (j, g) in gathered.iter_mut().enumerate() {
                *g = at::<CHECKED>(act, tab[8 * c + j] as usize);
            }
            let v: &[u8; 8] = values[8 * c..8 * c + 8].try_into().expect("exact chunk");
            acc = _mm_add_epi32(acc, _mm_madd_epi16(extend(v), extend(&gathered)));
        }
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().fold(0i32, |s, &l| s.wrapping_add(l))
    };
    for i in 8 * chunks..values.len() {
        sum = madd(sum, values[i], at::<CHECKED>(act, tab[i] as usize));
    }
    sum
}

/// [`indexed_dot`] over two patch buffers in one table walk (the 1×2
/// unrolling's data reuse, host-side). The two accumulator chains are
/// independent; a deeper 4-chain unroll measured *slower* (the gathers
/// are the bottleneck, and the extra index bookkeeping just widens the
/// loop), so the plain walk stays.
#[inline]
pub(crate) fn indexed_dot2<const CHECKED: bool>(
    values: &[u8],
    tab: &[u32],
    act0: &[u8],
    act1: &[u8],
) -> (i32, i32) {
    let mut acc0 = 0i32;
    let mut acc1 = 0i32;
    for (&wv, &t) in values.iter().zip(tab) {
        let i = t as usize;
        acc0 = madd(acc0, wv, at::<CHECKED>(act0, i));
        acc1 = madd(acc1, wv, at::<CHECKED>(act1, i));
    }
    (acc0, acc1)
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

/// Computes one output position pair for every channel of a sparse
/// convolution from the pre-decoded [`decim_table`] and writes the
/// outputs into the output tensor (host-side; charging is the caller's).
/// `outs` is a reusable scratch buffer owned by the kernel invocation so
/// the per-pair loop stays allocation-free. Pass `in_range = true` only
/// when [`table_below`]`(table, patch_len)` held — the gathers then skip
/// per-element bounds checks; a table that failed validation runs the
/// checked loops and panics exactly where the old ones did.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_pair_outputs(
    mem: &mut nm_platform::Scratchpad,
    job: &crate::conv::ConvJob,
    nz: usize,
    table: &[u32],
    in_range: bool,
    pos: usize,
    n_patches: usize,
    buf: u32,
    outs: &mut Vec<i8>,
) {
    if in_range {
        conv_pair_outputs_impl::<false>(mem, job, nz, table, pos, n_patches, buf, outs);
    } else {
        conv_pair_outputs_impl::<true>(mem, job, nz, table, pos, n_patches, buf, outs);
    }
}

#[allow(clippy::too_many_arguments)]
fn conv_pair_outputs_impl<const CHECKED: bool>(
    mem: &mut nm_platform::Scratchpad,
    job: &crate::conv::ConvJob,
    nz: usize,
    table: &[u32],
    pos: usize,
    n_patches: usize,
    buf: u32,
    outs: &mut Vec<i8>,
) {
    let geom = &job.geom;
    let plen = geom.patch_len();
    let kt = geom.k;
    outs.clear();
    outs.resize(n_patches * kt, 0);
    {
        let values = mem
            .slice(job.bufs.weights, kt * nz)
            .expect("scratchpad is zero-copy");
        // SAFETY precondition of `CHECKED = false`: both activation
        // windows are exactly `plen` long, and the caller validated
        // every table entry `< plen` via `table_below`.
        let act0 = mem.slice(buf, plen).expect("scratchpad is zero-copy");
        // One exact chunk per channel — no per-channel slice arithmetic
        // or bounds checks in the channel loop (`nz >= 1` always:
        // `patch_len` is a non-zero multiple of M).
        let rows = values.chunks_exact(nz).zip(table.chunks_exact(nz));
        if n_patches == 2 {
            let act1 = mem
                .slice(buf + plen as u32, plen)
                .expect("scratchpad is zero-copy");
            for (k, (v, t)) in rows.enumerate() {
                let (a0, a1) = indexed_dot2::<CHECKED>(v, t, act0, act1);
                outs[k] = job.requant.apply(a0);
                outs[kt + k] = job.requant.apply(a1);
            }
        } else {
            for (k, (v, t)) in rows.enumerate() {
                outs[k] = job.requant.apply(indexed_dot::<CHECKED>(v, t, act0));
            }
        }
    }
    write_out(mem, job.bufs.output + (pos * kt) as u32, outs);
}

/// Request-inner uncharged batch sweep for the sparse conv families:
/// computes the outputs of `inputs` (the batch requests after the first)
/// for every output position in one walk. Per position the transposed
/// patch block ([`crate::im2col::patch_transposed`]) makes each
/// decimation-table entry's activations contiguous across requests, so
/// every weight byte and table index is loaded **once** and feeds
/// `inputs.len()` multiply-adds in a vectorizable inner loop — this is
/// where batch-major serving beats a sequential per-request loop, whose
/// gather walk reloads the index/weight streams for every request.
///
/// Wrapping `i32` accumulation is associative and commutative and the
/// product multiset per (request, channel, position) matches
/// [`indexed_dot`] exactly, so outputs are bit-identical to running each
/// request alone. Request `r`'s output tile lands at
/// `out[r * output_elems()..]`. Charging is none by construction — the
/// caller reuses request 0's statistics (see `conv::drive_conv_batch`).
///
/// `in_range` as in [`conv_pair_outputs`]: pass `true` only when
/// [`table_below`]`(table, patch_len)` held.
pub(crate) fn conv_sweep_sparse(
    mem: &nm_platform::Scratchpad,
    job: &crate::conv::ConvJob,
    nz: usize,
    table: &[u32],
    in_range: bool,
    inputs: &[&[i8]],
    out: &mut [u8],
) {
    if in_range {
        sweep_requests::<false>(mem, job, nz, Tables::PerChannel(table), inputs, out);
    } else {
        sweep_requests::<true>(mem, job, nz, Tables::PerChannel(table), inputs, out);
    }
}

/// [`conv_sweep_sparse`] for the dense conv families: the "table" is the
/// identity (every patch element participates), shared by every output
/// channel, so the walk is a dense dot against the transposed patch
/// block with the same once-per-weight load amortization. Bit-identity
/// vs [`dense_dot`] for the same reason as the sparse sweep (same
/// product multiset, wrapping addition).
pub(crate) fn conv_sweep_dense(
    mem: &nm_platform::Scratchpad,
    job: &crate::conv::ConvJob,
    inputs: &[&[i8]],
    out: &mut [u8],
) {
    let plen = job.geom.patch_len();
    let identity: Vec<u32> = (0..plen as u32).collect();
    // The identity is below `plen` by construction, so the unchecked
    // gather contract holds.
    sweep_requests::<false>(mem, job, plen, Tables::Shared(&identity), inputs, out);
}

/// Lane width of the request-inner sweep: one SSE2 register pair of
/// `i32` accumulators, and the transposed patch row size.
pub(crate) const SWEEP_WIDTH: usize = 8;

/// Fewest live requests per chunk worth padding to [`SWEEP_WIDTH`]: with
/// fewer live lanes the dead-lane compute exceeds what per-request
/// fallback drives would cost, so `conv::drive_conv_batch` routes
/// remainders below this through the fallback loop instead.
pub(crate) const SWEEP_MIN: usize = 5;

/// How many of `n` requests (or tokens) after the first a batch sweep
/// takes: every full [`SWEEP_WIDTH`]-wide chunk, plus a short last chunk
/// when it holds at least [`SWEEP_MIN`] live lanes. The rest run through
/// the caller's per-request fallback.
pub(crate) fn sweep_len(n: usize) -> usize {
    if n < SWEEP_MIN {
        0
    } else if n % SWEEP_WIDTH < SWEEP_MIN {
        n - n % SWEEP_WIDTH
    } else {
        n
    }
}

/// Per-channel gather indices for the sweep: the sparse families have
/// `nz` entries per output channel, the dense families share one
/// identity walk across all channels.
enum Tables<'a> {
    PerChannel(&'a [u32]),
    Shared(&'a [u32]),
}

impl Tables<'_> {
    #[inline(always)]
    fn channel(&self, k: usize, nz: usize) -> &[u32] {
        match self {
            Tables::PerChannel(t) => &t[k * nz..(k + 1) * nz],
            Tables::Shared(t) => t,
        }
    }
}

/// Chunked driver: walks `inputs` in [`SWEEP_WIDTH`]-wide chunks (a
/// short final chunk pads by duplicating its last request and discards
/// the dead lanes). The fixed width is what keeps the inner
/// multiply-add at a compile-time trip count — see [`dot8`].
fn sweep_requests<const CHECKED: bool>(
    mem: &nm_platform::Scratchpad,
    job: &crate::conv::ConvJob,
    nz: usize,
    tables: Tables<'_>,
    inputs: &[&[i8]],
    out: &mut [u8],
) {
    let out_elems = job.geom.output_elems();
    let mut done = 0;
    while done < inputs.len() {
        let take = (inputs.len() - done).min(SWEEP_WIDTH);
        sweep_chunk::<CHECKED>(
            mem,
            job,
            nz,
            &tables,
            &inputs[done..done + take],
            &mut out[done * out_elems..(done + take) * out_elems],
        );
        done += take;
    }
}

/// One [`SWEEP_WIDTH`]-wide request chunk of the uncharged batch sweep:
/// up to 8 live requests (short chunks pad by repeating the last input;
/// padded lanes compute but never store). Each weight byte and gather
/// index is loaded once per position and feeds all 8 lanes.
fn sweep_chunk<const CHECKED: bool>(
    mem: &nm_platform::Scratchpad,
    job: &crate::conv::ConvJob,
    nz: usize,
    tables: &Tables<'_>,
    live: &[&[i8]],
    out: &mut [u8],
) {
    let geom = &job.geom;
    let plen = geom.patch_len();
    let kt = geom.k;
    let out_elems = geom.output_elems();
    debug_assert!(!live.is_empty() && live.len() <= SWEEP_WIDTH);
    debug_assert_eq!(out.len(), live.len() * out_elems);
    let padded: [&[i8]; SWEEP_WIDTH] = core::array::from_fn(|r| live[r.min(live.len() - 1)]);
    let values = mem
        .slice(job.bufs.weights, kt * nz)
        .expect("scratchpad is zero-copy");
    let mut patches = vec![0u8; plen * SWEEP_WIDTH];
    for pos in 0..geom.oy() * geom.ox() {
        crate::im2col::patch_transposed::<SWEEP_WIDTH>(geom, &padded, pos, &mut patches);
        for (k, v) in values.chunks_exact(nz).enumerate() {
            let acc = dot8::<CHECKED>(v, tables.channel(k, nz), &patches);
            for (r, &a) in acc.iter().enumerate().take(live.len()) {
                out[r * out_elems + pos * kt + k] = job.requant.apply(a) as u8;
            }
        }
    }
}

/// 8-lane gathered dot: `acc[r] = Σ_i w[i] * patches[t[i] * 8 + r]`
/// (wrapping `i32`), one transposed-patch row per weight feeding all 8
/// request lanes.
///
/// The x86-64 path pairs weights through `pmaddwd`, which computes
/// `w0*a0 + w1*a1` exactly in `i32` (products of two `i8` values stay
/// within ±16384, so neither the pair sum nor the instruction's sole
/// saturation case `(-32768)·(-32768)` can occur) — pairing only
/// reassociates the wrapping-`i32` sum, so the result is bit-identical
/// to the scalar walk and to [`indexed_dot`].
#[inline(always)]
fn dot8<const CHECKED: bool>(v: &[u8], t: &[u32], patches: &[u8]) -> [i32; 8] {
    debug_assert_eq!(v.len(), t.len());
    #[cfg(target_arch = "x86_64")]
    {
        dot8_sse2::<CHECKED>(v, t, patches)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut acc = [0i32; 8];
        for (&wv, &ti) in v.iter().zip(t) {
            let row = patch_row::<CHECKED>(patches, ti as usize);
            let w = i16::from(wv as i8);
            for j in 0..8 {
                acc[j] = acc[j].wrapping_add(i32::from(w * i16::from(row[j] as i8)));
            }
        }
        acc
    }
}

/// [`dot8`]'s SSE2 body (baseline on x86-64, no feature detection
/// needed): two `__m128i` accumulators hold the 8 `i32` lanes; each
/// step sign-extends two 8-byte patch rows to `i16`, interleaves them
/// per lane, and `pmaddwd`s against the broadcast `[w0, w1]` pair.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn dot8_sse2<const CHECKED: bool>(v: &[u8], t: &[u32], patches: &[u8]) -> [i32; 8] {
    use core::arch::x86_64::*;
    #[inline(always)]
    fn extend(r: &[u8; 8]) -> __m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline ABI.
        unsafe {
            let x = _mm_loadl_epi64(r.as_ptr().cast());
            _mm_srai_epi16::<8>(_mm_unpacklo_epi8(_mm_setzero_si128(), x))
        }
    }
    let wpair =
        |w0: u8, w1: u8| (u32::from(w1 as i8 as u16) << 16 | u32::from(w0 as i8 as u16)) as i32;
    // SAFETY: SSE2 is part of the x86-64 baseline ABI.
    unsafe {
        let mut lo = _mm_setzero_si128();
        let mut hi = _mm_setzero_si128();
        let mut i = 0;
        while i + 1 < v.len() {
            let r0 = extend(patch_row::<CHECKED>(patches, t[i] as usize));
            let r1 = extend(patch_row::<CHECKED>(patches, t[i + 1] as usize));
            let w = _mm_set1_epi32(wpair(v[i], v[i + 1]));
            lo = _mm_add_epi32(lo, _mm_madd_epi16(_mm_unpacklo_epi16(r0, r1), w));
            hi = _mm_add_epi32(hi, _mm_madd_epi16(_mm_unpackhi_epi16(r0, r1), w));
            i += 2;
        }
        if i < v.len() {
            // Odd tail: pair with a zero weight (the duplicated row's
            // products vanish exactly).
            let r0 = extend(patch_row::<CHECKED>(patches, t[i] as usize));
            let w = _mm_set1_epi32(wpair(v[i], 0));
            lo = _mm_add_epi32(lo, _mm_madd_epi16(_mm_unpacklo_epi16(r0, r0), w));
            hi = _mm_add_epi32(hi, _mm_madd_epi16(_mm_unpackhi_epi16(r0, r0), w));
        }
        let mut acc = [0i32; 8];
        _mm_storeu_si128(acc.as_mut_ptr().cast(), lo);
        _mm_storeu_si128(acc.as_mut_ptr().add(4).cast(), hi);
        acc
    }
}

/// One transposed-patch row (the [`SWEEP_WIDTH`] activations of patch
/// element `i`), checked or pre-validated unchecked (same contract as
/// [`at`]).
#[inline(always)]
fn patch_row<const CHECKED: bool>(patches: &[u8], i: usize) -> &[u8; SWEEP_WIDTH] {
    if CHECKED {
        patches[i * SWEEP_WIDTH..(i + 1) * SWEEP_WIDTH]
            .try_into()
            .expect("exact row width")
    } else {
        debug_assert!(
            (i + 1) * SWEEP_WIDTH <= patches.len(),
            "pre-validated row range"
        );
        // SAFETY: instantiated with `CHECKED = false` only after
        // `table_below` proved every table entry `< patch_len` and the
        // buffer holds `patch_len * SWEEP_WIDTH` bytes (conv sweep), or
        // after `FcOffsets::below_m` proved every decoded index `< C`
        // (or the index is the identity below `C`) and the token block
        // holds `C * SWEEP_WIDTH` bytes (`fc_sweep`).
        unsafe {
            &*patches
                .as_ptr()
                .add(i * SWEEP_WIDTH)
                .cast::<[u8; SWEEP_WIDTH]>()
        }
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
        let (base, step) = (ch % self.per_seg, self.per_seg);
        for (b, i) in idx.iter_mut().enumerate() {
            *i = (b * self.m + unpack_offset(seg, self.bits, base + step * b)) as u32;
        }
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

/// Token-inner uncharged sweep for the FC kernels: computes the outputs
/// of `tokens` (the tokens after the first of a staged tile) in one walk
/// over the staged weights — the FC twin of [`conv_sweep_sparse`] /
/// [`conv_sweep_dense`]. The tokens are transposed into
/// [`SWEEP_WIDTH`]-wide blocks (row `i` of a block holds input `i` of
/// the chunk's tokens; a short last chunk repeats its last token and
/// never stores the dead lanes), so every weight byte and gather index
/// is loaded **once** per chunk and feeds 8 tokens' multiply-adds
/// through [`dot8`]. Each channel's offsets are decoded from the staged
/// stream into an `nz`-entry buffer once per call; no decoded table
/// outlives it.
///
/// Wrapping `i32` accumulation is associative and commutative and the
/// product multiset per (token, channel) is the kernel's, so every output
/// is bit-identical to running the token alone. Token `t`'s `K` outputs
/// land at `out[t * K..]`. Nothing is charged: the caller reuses the
/// first token's statistics (see `fc::drive_fc_batch`).
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
    let mut blocks = vec![0u8; tokens.len().div_ceil(SWEEP_WIDTH) * c * SWEEP_WIDTH];
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
            fc_sweep_channels::<false>(job, values, c, None, &blocks, tokens.len(), out);
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
    let n = tokens.len();
    if offsets.below_m(k, nz) {
        fc_sweep_channels::<false>(job, values, nz, Some(&offsets), &blocks, n, out);
    } else {
        fc_sweep_channels::<true>(job, values, nz, Some(&offsets), &blocks, n, out);
    }
}

/// [`fc_sweep`]'s channel loop: per output channel, decode its indices
/// into the `nz`-entry buffer (the identity when `offsets` is `None`,
/// the dense case with `nz == C`), then one [`dot8`] per token block.
/// Instantiate `CHECKED = false` only when every decoded index is below
/// `C` (same contract as [`patch_row`]).
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
    let mut idx: Vec<u32> = (0..nz as u32).collect();
    for (ch, v) in values.chunks_exact(nz).enumerate() {
        if let Some(offsets) = offsets {
            offsets.decode(ch, &mut idx);
        }
        for (chunk, block) in blocks.chunks_exact(c * SWEEP_WIDTH).enumerate() {
            let acc = dot8::<CHECKED>(v, &idx, block);
            let t0 = chunk * SWEEP_WIDTH;
            for (r, &a) in acc.iter().enumerate().take(n_tokens - t0) {
                out[(t0 + r) * k + ch] = job.requant.apply(a) as u8;
            }
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

    #[test]
    fn specialized_gathers_match_reference() {
        for (bits, m) in [(2usize, 4usize), (4, 8), (4, 16)] {
            for nz in [1, 2, 3, 4, 5, 8, 11] {
                let values: Vec<u8> = random_data(nz, 7).iter().map(|&v| v as u8).collect();
                let act: Vec<u8> = random_data(nz * m, 11).iter().map(|&v| v as u8).collect();
                for (base, step) in [(0, 1), (0, 2), (1, 2)] {
                    let entries: Vec<u8> = (0..(base + step * nz))
                        .map(|e| ((e * 7 + 3) % m.min(1 << bits)) as u8)
                        .collect();
                    let offs = pack(&entries, bits);
                    assert_eq!(
                        nm_gather_dot(&values, &act, &offs, bits, m, base, step),
                        gather_ref(&values, &act, &offs, bits, m, base, step),
                        "bits={bits} m={m} nz={nz} base={base} step={step}"
                    );
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
                let want0 = nm_gather_dot(&v0, &act, &offs, bits, m, 0, 2);
                let want1 = nm_gather_dot(&v1, &act, &offs, bits, m, 1, 2);
                assert_eq!(
                    gather_dot2_pair(&v0, &v1, &act, &offs, bits, m),
                    (want0, want1),
                    "pair bits={bits} m={m} nz={nz}"
                );
            }
        }
    }

    #[test]
    fn decim_table_and_indexed_dots_match_gather() {
        let (bits, m, nz, channels) = (4usize, 8usize, 9usize, 3usize);
        let seg_stride = 12;
        let mut region = vec![0u8; channels * seg_stride];
        for k in 0..channels {
            let entries: Vec<u8> = (0..2 * nz).map(|e| ((e * 5 + k) % m) as u8).collect();
            let packed = pack(&entries, bits);
            region[k * seg_stride..k * seg_stride + packed.len()].copy_from_slice(&packed);
        }
        let tab = decim_table(&region, channels, seg_stride, nz, bits, m, 0, 2);
        assert_eq!(tab.len(), channels * nz);
        assert!(table_below(&tab, nz * m));
        let act0: Vec<u8> = random_data(nz * m, 3).iter().map(|&v| v as u8).collect();
        let act1: Vec<u8> = random_data(nz * m, 5).iter().map(|&v| v as u8).collect();
        for k in 0..channels {
            let values: Vec<u8> = random_data(nz, k as u64 + 13)
                .iter()
                .map(|&v| v as u8)
                .collect();
            let seg = &region[k * seg_stride..];
            let want0 = nm_gather_dot(&values, &act0, seg, bits, m, 0, 2);
            let want1 = nm_gather_dot(&values, &act1, seg, bits, m, 0, 2);
            let t = &tab[k * nz..(k + 1) * nz];
            assert_eq!(indexed_dot::<true>(&values, t, &act0), want0);
            assert_eq!(indexed_dot::<false>(&values, t, &act0), want0);
            let (got0, got1) = indexed_dot2::<true>(&values, t, &act0, &act1);
            assert_eq!((got0, got1), (want0, want1));
            assert_eq!(
                indexed_dot2::<false>(&values, t, &act0, &act1),
                (got0, got1)
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
        let table = decim_table(offs, geom.k, seg, nz, 4, 8, 0, step);
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
        use crate::conv::ConvBatch;
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
                let batch = ConvBatch { inputs: &refs[..b] };
                let run = |ctx: &mut Ctx<'_>| match layout {
                    OffsetLayout::Plain => {
                        conv_sparse_sw_prepared_batch(ctx, &job, &cluster, None, &batch)
                    }
                    _ => conv_sparse_isa_prepared_batch(ctx, &job, &cluster, None, &batch),
                };
                let want = run(&mut Ctx::Mem(&mut mem.clone())).unwrap();
                let got = run(&mut Ctx::MemBulk(&mut mem.clone())).unwrap();
                assert_eq!(got.outputs, want.outputs, "{layout:?} b{b} outputs");
                assert_eq!(got.stats, want.stats, "{layout:?} b{b} stats");
            }

            let out_elems = job.conv.geom.output_elems();
            let sweep = |checked: bool| {
                let mut out = vec![0u8; (refs.len() - 1) * out_elems];
                let nz = job.nz_per_channel();
                conv_sweep_sparse(&mem, &job.conv, nz, &table, !checked, &refs[1..], &mut out);
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
    // checked index. The unchecked gather would instead trip its debug
    // assertion ("pre-validated gather index out of range") in debug
    // builds and read out of bounds in release builds, so this message
    // shows the fence sent the table down the checked gather in both
    // profiles.
    #[test]
    #[should_panic(expected = "index out of bounds")]
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
        let nz = job.nz_per_channel();
        conv_sweep_sparse(&mem, &job.conv, nz, &table, in_range, &refs, &mut out);
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
