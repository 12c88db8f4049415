//! Proof that the motif kernel is allocation-free after workspace warm-up.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! call has grown every scratch buffer, repeated [`count_motifs_with`] calls
//! on the same workspace must perform exactly zero heap allocations — the
//! core promise of the CSR + marker-array rewrite.
//!
//! The count is per thread: the test harness runs these tests in parallel,
//! and a process-wide counter would charge one test with another's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tsg_graph::motifs::{count_motifs_bruteforce, count_motifs_with, MotifWorkspace};
use tsg_graph::visibility::{horizontal_visibility_graph, visibility_graph};
use tsg_graph::Graph;

struct CountingAllocator;

thread_local! {
    // `const`-initialised: no lazy init, so bumping it never allocates
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread's locals are being torn down;
    // no test measures then
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: the impl upholds the GlobalAlloc contract by delegating every
// call verbatim to `System` — same layout, same pointer — only bumping a
// thread-local counter on the side, which cannot itself allocate or unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // guarantees it is valid per the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr`/`layout` come from our caller, who guarantees `ptr` was
    // returned by this allocator (which always hands out System pointers)
    // with this layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see above — a direct delegation of the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same delegation argument as `dealloc` for `ptr`/`layout`;
    // `new_size` is forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: see above — a direct delegation of the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn pseudo_series(seed: u64, n: usize) -> Vec<f64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64) / (u32::MAX as f64)
        })
        .collect()
}

#[test]
fn count_motifs_allocates_nothing_after_warm_up() {
    let series = pseudo_series(17, 600);
    let vg = visibility_graph(&series);
    let hvg = horizontal_visibility_graph(&series);

    let mut ws = MotifWorkspace::new();
    // warm-up: grows every scratch buffer to the larger graph's size
    let reference_vg = count_motifs_with(&vg, &mut ws);
    let reference_hvg = count_motifs_with(&hvg, &mut ws);

    let before = allocation_count();
    for _ in 0..5 {
        assert_eq!(count_motifs_with(&vg, &mut ws), reference_vg);
        assert_eq!(count_motifs_with(&hvg, &mut ws), reference_hvg);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "count_motifs_with allocated {} times after warm-up",
        after - before
    );
}

#[test]
fn warmed_workspace_handles_smaller_graphs_without_allocating() {
    // shrinking below the warmed-up size must not reallocate either
    let big = visibility_graph(&pseudo_series(3, 400));
    let small = visibility_graph(&pseudo_series(4, 60));
    let mut ws = MotifWorkspace::new();
    count_motifs_with(&big, &mut ws);
    let reference = count_motifs_with(&small, &mut ws);
    assert_eq!(reference, count_motifs_bruteforce(&small));

    let before = allocation_count();
    let counts = count_motifs_with(&small, &mut ws);
    let after = allocation_count();
    assert_eq!(counts, reference);
    assert_eq!(after - before, 0);
}

#[test]
fn csr_construction_from_edge_buffer_is_exact_size() {
    // not allocation-free (CSR owns its arrays) but exact: finalizing an
    // edge buffer allocates `offsets` and `neighbors` once each and sorts
    // and deduplicates in place.
    let series = pseudo_series(9, 500);
    let edges: Vec<(u32, u32)> = {
        let g = visibility_graph(&series);
        g.edges().map(|(u, v)| (u as u32, v as u32)).collect()
    };
    let before = allocation_count();
    let g = Graph::from_edge_buffer(500, &edges);
    let after = allocation_count();
    assert_eq!(g.n_edges(), edges.len());
    assert!(
        after - before <= 2,
        "CSR finalize performed {} allocations",
        after - before
    );
}
