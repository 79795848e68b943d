//! A counting global allocator: the system allocator wrapped with live/peak
//! byte counters, used by the residency tests and the benchmark as a
//! portable peak-RSS proxy.
//!
//! Install it in a binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rtc_obs::alloc::CountingAlloc = rtc_obs::alloc::CountingAlloc;
//! ```
//!
//! then bracket measured regions with [`reset_peak`] / [`peak_since`]. The
//! counters are process-global statics: only meaningful when the allocator
//! is actually installed, and a single measurement region should be active
//! at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapped with live/peak byte counters.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Start a fresh high-water measurement from the current live footprint;
/// returns that baseline for a later [`peak_since`] call.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak bytes allocated above `baseline` since the matching [`reset_peak`].
pub fn peak_since(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Keep heap memory the process frees for reuse instead of returning it
/// to the kernel whenever the top of the heap is free.
///
/// Call-by-call analysis frees a call's whole working set (pcap chunks,
/// DPI candidates, the dissection, the judged messages) once the call is
/// absorbed, and nothing long-lived sits above it on the heap. With
/// glibc's default thresholds the heap is then trimmed, and the next call
/// faults the same pages back in: 2–4 ms on a 5–30 ms call. This fixes
/// the thresholds where glibc's own adaptive rule settles for a program
/// that frees 32 MiB blocks: blocks under 32 MiB come from the heap, and
/// up to 64 MiB of free heap stays mapped. Only the first call acts; it
/// does nothing on other C libraries.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            // SAFETY: `mallopt` only sets allocator tuning parameters; both
            // values are within the ranges glibc accepts (the mmap threshold
            // at most `HEAP_MAX_SIZE / 2`), and a rejected value is ignored.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 32 << 20);
                mallopt(M_TRIM_THRESHOLD, 64 << 20);
            }
        });
    }
}

/// Process peak resident set size in bytes, from `/proc/self/status`'s
/// `VmHWM` line (the kernel's high-water mark — covers every allocation
/// source, not just the Rust global allocator). Returns `None` on
/// platforms without procfs; callers fall back to the counting-allocator
/// peak there.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_vmhwm() {
        let rss = super::peak_rss_bytes().expect("procfs VmHWM available on linux");
        assert!(rss > 0);
    }
}
