//! Facts about the host process: its CPU pinning, its heap high water,
//! and the host's speed from moment to moment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// where the affinity calls are unavailable or fail.
///
/// With every thread on one CPU, a request handed from the caller to the
/// service worker and back is a context switch on that CPU instead of a
/// wake-up of another, idle vCPU, which a shared virtual machine may
/// deliver milliseconds late.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // The C library's affinity calls (the standard library links it).
    // The mask is glibc's `cpu_set_t`: 1024 bits in 64-bit words.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the
    // call only reads it.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The system allocator, counting live heap bytes and their high water.
/// Unlike the resident set, the count does not depend on page sizes,
/// huge-page promotion or the allocator's caching, so it repeats from
/// run to run.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The counters are statistics that publish no other data: `Relaxed`.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around the
// calls neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Restarts the high water at the bytes live now, and returns them.
pub fn reset_heap_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most heap bytes live at once since the last reset.
pub fn heap_peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// A fixed unit of work, timed between requests to measure how fast the
/// host runs at that moment: eight dot products of two 4 KiB `i8`
/// vectors, which the compiler vectorises, so it stays in the L1 cache
/// and uses the SIMD units the way the kernels do.
///
/// On a shared host, another tenant's work on the same physical core
/// slows vectorised code by about the same factor as the inference
/// (1.64× for the probe against 1.62× for `microvit-closed` in one
/// recording), while a dependent ALU chain slows far less. So the probe
/// measures the slowdown that the benchmark's timings suffer, and being
/// fixed code, it does not move when the program changes.
pub struct Probe {
    a: Vec<i8>,
    b: Vec<i8>,
}

impl Probe {
    pub fn new() -> Probe {
        let fill = |k: usize| (0..4096).map(|i| (i * k % 251) as i8).collect();
        Probe {
            a: fill(7),
            b: fill(13),
        }
    }

    fn dot(&self) -> i32 {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        a.iter()
            .zip(b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum()
    }

    /// Runs the probe once and returns its time in microseconds. One
    /// untimed pass first brings the vectors back into the L1 cache,
    /// which the work between probes evicts.
    pub fn time_us(&self) -> f64 {
        let mut acc = self.dot();
        let start = Instant::now();
        for _ in 0..8 {
            acc = acc.wrapping_add(self.dot());
        }
        let elapsed = start.elapsed();
        black_box(acc);
        elapsed.as_secs_f64() * 1e6
    }
}
