//! Counting global allocator for the perf microbench.
//!
//! Wall-clock events/sec is noisy (machine load, turbo states), but the
//! *allocation count* of a deterministic simulation is exact and
//! repeatable — the same seed takes the same code paths and grows the
//! same maps. `allocs-per-event` is therefore the gateable half of the
//! perf trajectory: CI asserts it never regresses past a committed
//! budget (see `--alloc-budget` in `c3 perf` and the perf-smoke job),
//! while events/sec is recorded but not gated.
//!
//! Hand-rolled on `std::alloc::System` — no external dependency, so
//! offline builds keep working. The `c3` binary installs it for every
//! subcommand; another binary installs it the same way:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: c3_bench::alloc::CountingAlloc = c3_bench::alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocation calls
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`). Frees are not
/// counted: the budget tracks pressure on the allocator's hot path.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls since process start (monotonic; snapshot before and
/// after a region to count its allocations). Returns 0 unless
/// [`CountingAlloc`] is installed as the global allocator.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    // `alloc_count` is exercised end-to-end by `c3 perf` (which
    // installs the allocator); here we only pin that the counter is
    // monotonic and safe to read without installation.
    #[test]
    fn counter_reads_without_installation() {
        let a = super::alloc_count();
        let b = super::alloc_count();
        assert!(b >= a);
    }
}
