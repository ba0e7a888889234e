//! Software-managed scratchpad memories and a bump allocator.

use nm_core::{Error, Result};
use nm_isa::{FlatMem, Memory};

/// A named scratchpad memory (L1 TCDM, L2, or L3).
///
/// Addresses are local to the scratchpad (0-based), matching how kernels
/// receive L1 buffer pointers from the tiling runtime.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    name: &'static str,
    mem: FlatMem,
    alloc: BumpAllocator,
}

impl Scratchpad {
    /// Creates a zeroed scratchpad.
    pub fn new(name: &'static str, size: usize) -> Self {
        Scratchpad {
            name,
            mem: FlatMem::new(size),
            alloc: BumpAllocator::new(size),
        }
    }

    /// The scratchpad's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Allocates `bytes` with `align`-byte alignment, returning the base
    /// address.
    ///
    /// # Errors
    /// [`Error::OutOfMemory`] when the region does not fit.
    pub fn alloc(&mut self, bytes: usize, align: usize) -> Result<u32> {
        self.alloc.alloc(bytes, align)
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.alloc.used()
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.alloc.available()
    }

    /// Releases all allocations (the memory contents are kept).
    pub fn reset_alloc(&mut self) {
        self.alloc.reset();
    }

    /// Restores the scratchpad to its freshly-created state — all
    /// allocations released and the contents zeroed — without
    /// reallocating the backing store. The compiled executor's
    /// tile loop calls this between tiles instead of constructing a new
    /// scratchpad per tile, so kernels still observe exactly what a fresh
    /// [`Scratchpad::new`] would hand them.
    ///
    /// Only the allocator's high-water region is cleared (plus the word
    /// of alignment slack a 32-bit store at the end of the last buffer
    /// may have touched): every kernel write lands inside an allocated
    /// buffer, so bytes beyond that region are still zero from creation
    /// or the previous reset.
    pub fn reset(&mut self) {
        let end = (self.alloc.used() + 3).min(self.mem.size());
        self.mem.bytes_mut()[..end].fill(0);
        self.alloc.reset();
    }

    /// Direct view of the backing bytes (for test assertions).
    pub fn bytes(&self) -> &[u8] {
        self.mem.bytes()
    }

    /// Direct mutable view of the backing bytes — the bulk accessor the
    /// bulk im2col builder batches its row copies and fills on (one
    /// borrow per position pair instead of one trait dispatch per row).
    /// Out-of-range indexing through the returned slice panics exactly
    /// like the per-access bus errors of [`Memory`].
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.mem.bytes_mut()
    }
}

impl Memory for Scratchpad {
    #[inline]
    fn size(&self) -> usize {
        self.mem.size()
    }

    #[inline]
    fn load_u8(&self, addr: u32) -> u8 {
        self.mem.load_u8(addr)
    }

    #[inline]
    fn store_u8(&mut self, addr: u32, value: u8) {
        self.mem.store_u8(addr, value);
    }

    #[inline]
    fn load_u32(&self, addr: u32) -> u32 {
        self.mem.load_u32(addr)
    }

    #[inline]
    fn store_u32(&mut self, addr: u32, value: u32) {
        self.mem.store_u32(addr, value);
    }

    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
    }

    fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        self.mem.read_bytes(addr, len)
    }

    #[inline]
    fn slice(&self, addr: u32, len: usize) -> Option<&[u8]> {
        self.mem.slice(addr, len)
    }

    #[inline]
    fn slice_mut(&mut self, addr: u32, len: usize) -> Option<&mut [u8]> {
        self.mem.slice_mut(addr, len)
    }

    fn copy_within(&mut self, src: u32, dst: u32, len: usize) {
        self.mem.copy_within(src, dst, len);
    }
}

/// A thread-safe pool of same-sized scratchpads for concurrent workers
/// (the compiled executor's tile threads, the serving layer's worker
/// pool): [`checkout`] hands out a scratchpad guaranteed to be
/// indistinguishable from a freshly created one, [`checkin`] returns it
/// for reuse.
///
/// The fresh-state guarantee is the pool's contract: `checkin` runs
/// [`Scratchpad::reset`] (clearing the allocator *and* the high-water
/// region of the backing bytes), so a worker that dirtied its scratchpad
/// arbitrarily cannot leak state into the next checkout. Kernels
/// therefore observe exactly what a fresh [`Scratchpad::new`] would hand
/// them, regardless of which worker used the pad before — pinned by
/// `pooled_checkout_matches_fresh_scratchpad` below.
///
/// [`checkout`]: ScratchpadPool::checkout
/// [`checkin`]: ScratchpadPool::checkin
#[derive(Debug)]
pub struct ScratchpadPool {
    name: &'static str,
    size: usize,
    pads: std::sync::Mutex<Vec<Scratchpad>>,
}

impl ScratchpadPool {
    /// Creates an empty pool; scratchpads are allocated lazily on
    /// checkout and retained on checkin.
    pub fn new(name: &'static str, size: usize) -> Self {
        ScratchpadPool {
            name,
            size,
            pads: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The byte size of every scratchpad this pool hands out.
    pub fn pad_size(&self) -> usize {
        self.size
    }

    /// Takes a scratchpad from the pool (or creates one when the pool is
    /// empty). The returned pad is bit-identical to a fresh
    /// [`Scratchpad::new`]: zeroed contents, empty allocator.
    pub fn checkout(&self) -> Scratchpad {
        self.pads
            .lock()
            .expect("scratchpad pool poisoned")
            .pop()
            .unwrap_or_else(|| Scratchpad::new(self.name, self.size))
    }

    /// Returns a scratchpad to the pool for reuse, resetting it to the
    /// fresh state first (see the type docs for why the reset lives on
    /// this side: a dirty pad must never be observable through
    /// [`checkout`](Self::checkout)).
    pub fn checkin(&self, mut pad: Scratchpad) {
        pad.reset();
        self.pads
            .lock()
            .expect("scratchpad pool poisoned")
            .push(pad);
    }

    /// Scratchpads currently parked in the pool (not checked out).
    pub fn idle(&self) -> usize {
        self.pads.lock().expect("scratchpad pool poisoned").len()
    }
}

/// A monotonic (arena) allocator over a fixed-size region — the standard
/// allocation discipline for PULP L1 buffers, where a layer's buffers are
/// planned statically and freed all at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BumpAllocator {
    size: usize,
    top: usize,
}

impl BumpAllocator {
    /// Creates an allocator over `size` bytes.
    pub fn new(size: usize) -> Self {
        BumpAllocator { size, top: 0 }
    }

    /// Allocates `bytes` with `align` alignment (power of two).
    ///
    /// # Errors
    /// [`Error::OutOfMemory`] when the request exceeds the remaining space.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: usize, align: usize) -> Result<u32> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.top + align - 1) & !(align - 1);
        let end = base.checked_add(bytes).ok_or(Error::OutOfMemory {
            requested: bytes,
            available: self.size.saturating_sub(self.top),
        })?;
        if end > self.size {
            return Err(Error::OutOfMemory {
                requested: bytes,
                available: self.size - self.top,
            });
        }
        self.top = end;
        Ok(base as u32)
    }

    /// Bytes allocated (including alignment padding).
    pub fn used(&self) -> usize {
        self.top
    }

    /// Bytes remaining.
    pub fn available(&self) -> usize {
        self.size - self.top
    }

    /// Frees everything.
    pub fn reset(&mut self) {
        self.top = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_monotonic() {
        let mut a = BumpAllocator::new(64);
        let p0 = a.alloc(3, 1).unwrap();
        let p1 = a.alloc(4, 4).unwrap();
        assert_eq!(p0, 0);
        assert_eq!(p1, 4);
        assert_eq!(a.used(), 8);
        let p2 = a.alloc(1, 16).unwrap();
        assert_eq!(p2, 16);
    }

    #[test]
    fn alloc_fails_when_full() {
        let mut a = BumpAllocator::new(16);
        a.alloc(10, 1).unwrap();
        let err = a.alloc(10, 1).unwrap_err();
        assert_eq!(
            err,
            Error::OutOfMemory {
                requested: 10,
                available: 6
            }
        );
        a.reset();
        assert!(a.alloc(16, 1).is_ok());
    }

    #[test]
    fn scratchpad_allocates_and_stores() {
        let mut l1 = Scratchpad::new("l1", 1024);
        let buf = l1.alloc(64, 4).unwrap();
        l1.store_u32(buf, 0x1234_5678);
        assert_eq!(l1.load_u32(buf), 0x1234_5678);
        assert_eq!(l1.name(), "l1");
        assert_eq!(l1.available(), 1024 - 64);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_alignment_panics() {
        let mut a = BumpAllocator::new(64);
        let _ = a.alloc(4, 3);
    }

    #[test]
    fn zero_copy_views_agree_with_per_byte_access() {
        let mut l1 = Scratchpad::new("l1", 64);
        for i in 0..64 {
            l1.store_u8(i, (7 * i + 1) as u8);
        }
        let per_byte: Vec<u8> = (0..16).map(|i| l1.load_u8(8 + i)).collect();
        assert_eq!(l1.slice(8, 16).unwrap(), per_byte.as_slice());
        assert_eq!(l1.read_bytes(8, 16), per_byte);

        let mut words = [0u32; 2];
        l1.load_u32_bulk(5, &mut words); // unaligned
        assert_eq!(words, [l1.load_u32(5), l1.load_u32(9)]);

        l1.slice_mut(0, 4).unwrap().fill(0xEE);
        assert_eq!(l1.load_u32(0), 0xEEEE_EEEE);
        l1.copy_within(0, 30, 4);
        assert_eq!(l1.load_u32(30), 0xEEEE_EEEE);
        l1.fill_bytes(30, 2, 0);
        assert_eq!(l1.load_u32(30), 0xEEEE_0000);
    }

    /// A reset scratchpad must be indistinguishable from a fresh one:
    /// same available space, and every byte the previous use dirtied
    /// reads back as zero.
    #[test]
    fn reset_restores_the_fresh_state() {
        let mut l1 = Scratchpad::new("l1", 256);
        let fresh = l1.clone();
        let a = l1.alloc(40, 4).unwrap();
        let b = l1.alloc(9, 4).unwrap();
        l1.slice_mut(a, 40).unwrap().fill(0xAB);
        // A word store at the end of the last buffer spills into the
        // alignment slack reset() must also clear.
        l1.store_u32(b + 8, 0xDEAD_BEEF);
        l1.reset();
        assert_eq!(l1.used(), 0);
        assert_eq!(l1.available(), 256);
        assert_eq!(l1.bytes(), fresh.bytes());
        // Allocation starts over from address 0.
        assert_eq!(l1.alloc(8, 4).unwrap(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_view_is_a_bus_error() {
        let l1 = Scratchpad::new("l1", 16);
        let _ = l1.slice(10, 8);
    }

    /// The pooled path of the reset contract: checkout → dirty →
    /// checkin → checkout must observe the same bytes as a fresh
    /// scratchpad, including the allocator high-water region (and the
    /// word of alignment slack a trailing 32-bit store may have
    /// touched).
    #[test]
    fn pooled_checkout_matches_fresh_scratchpad() {
        let pool = ScratchpadPool::new("l1", 256);
        let fresh = Scratchpad::new("l1", 256);

        let mut pad = pool.checkout();
        assert_eq!(pad.bytes(), fresh.bytes(), "first checkout is fresh");
        let a = pad.alloc(40, 4).unwrap();
        let b = pad.alloc(9, 4).unwrap();
        pad.slice_mut(a, 40).unwrap().fill(0xAB);
        // Dirty the high-water region's alignment slack too: a word
        // store at the end of the last buffer spills past `used()`.
        pad.store_u32(b + 8, 0xDEAD_BEEF);
        pool.checkin(pad);
        assert_eq!(pool.idle(), 1);

        let again = pool.checkout();
        assert_eq!(pool.idle(), 0, "the dirtied pad itself was reused");
        assert_eq!(again.bytes(), fresh.bytes(), "reused pad reads fresh");
        assert_eq!(again.used(), 0);
        assert_eq!(again.available(), 256);
        assert_eq!(again.name(), "l1");
    }

    /// An empty pool mints pads on demand; checkin grows the idle set.
    #[test]
    fn pool_mints_and_retains_pads() {
        let pool = ScratchpadPool::new("l1", 64);
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.pad_size(), 64);
        let p0 = pool.checkout();
        let p1 = pool.checkout();
        assert_eq!(p0.size(), 64);
        assert_eq!(p1.size(), 64);
        pool.checkin(p0);
        pool.checkin(p1);
        assert_eq!(pool.idle(), 2);
    }

    /// Concurrent workers hammering the pool never observe a dirty pad.
    #[test]
    fn pool_is_safe_and_fresh_under_concurrency() {
        let pool = ScratchpadPool::new("l1", 128);
        let fresh = Scratchpad::new("l1", 128);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let (pool, fresh) = (&pool, &fresh);
                scope.spawn(move || {
                    for i in 0..50u32 {
                        let mut pad = pool.checkout();
                        assert_eq!(pad.bytes(), fresh.bytes());
                        let base = pad.alloc(32, 4).unwrap();
                        pad.slice_mut(base, 32)
                            .unwrap()
                            .fill(t.wrapping_add(i as u8) | 1);
                        pool.checkin(pad);
                    }
                });
            }
        });
        assert!(pool.idle() >= 1);
    }
}
