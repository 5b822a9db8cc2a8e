//! A counting `#[global_allocator]` shared by the allocation-discipline
//! test binaries (each includes this file with `#[path]`).
//!
//! It wraps `System` and counts every `alloc`/`realloc` while armed. The
//! counter is toggled around the measured window so test harness
//! bookkeeping doesn't pollute the count. The armed flag and counter are
//! **thread-local**: libtest runs `#[test]` fns (and its own
//! result-printing bookkeeping, which allocates) on concurrent threads, so
//! a process-global flag would intermittently count a sibling thread's
//! allocations inside a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every `alloc`/`realloc` while armed; delegates to [`System`].
struct CountingAlloc;

thread_local! {
    /// Per-thread armed flag: only the measuring thread counts.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Per-thread allocation count for the current armed window.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method delegates directly to [`System`], which upholds the
// `GlobalAlloc` contract; the counter bookkeeping never touches the layout
// or the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`. The
    // thread-locals are const-initialized `Cell`s, so accessing them here
    // never allocates (no recursion); `try_with` tolerates TLS teardown.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(|a| a.get()).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
        System.alloc(layout)
    }

    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`; the
    // caller guarantees they came from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all arguments unchanged to `System.realloc`; the
    // caller guarantees `ptr`/`layout` describe a live allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.try_with(|a| a.get()).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many
/// heap allocations it performed.
pub fn count_allocations(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(|c| c.get())
}
