//! Level repair allocates nothing once its scratch has grown: the serve
//! loop runs one repair per epoch on a persistent `LevelScratch`, so a
//! steady-state epoch close must not pay the allocator for it.
//!
//! The test binary counts allocations per thread, so tests the harness
//! runs on other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sparse_alloc_dynamic::repair::{repair_levels, LevelRepairConfig, LevelScratch};
use sparse_alloc_graph::generators::union_of_spanning_trees;
use sparse_alloc_graph::{DeltaGraph, RightId};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread's locals are torn down,
    // when nothing is being measured.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// `System`, counting every allocation on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// calls back into the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn repeated_repairs_allocate_nothing_after_warm_up() {
    let g = union_of_spanning_trees(400, 300, 3, 2, 5).graph;
    let mut dg = DeltaGraph::new(g);
    // Deleted base edges, staged inserts and an arrival: every adjacency
    // source the gather copies from.
    for u in (0..400).step_by(9) {
        let v = dg
            .left_neighbors_iter(u)
            .next()
            .expect("a forest left has an edge");
        dg.delete_edge(u, v);
        dg.insert_edge(u, (v + 17) % 300);
    }
    dg.arrive(&[3, 40, 41]);
    // Sorted sets of 4 to 80 distinct rights, the shape of an epoch's
    // dirty list after its sort and dedup.
    let balls: Vec<Vec<RightId>> = (0..6u32)
        .map(|k| {
            let mut ball: Vec<RightId> = (0..4 + 15 * k).map(|j| (k * 47 + j * 13) % 300).collect();
            ball.sort_unstable();
            ball.dedup();
            ball
        })
        .collect();
    let mut levels: Vec<i64> = (0..300).map(|v| (v % 5) as i64 - 2).collect();
    let mut scratch = LevelScratch::default();
    let configs = [2, 4].map(|rounds| LevelRepairConfig { eps: 0.25, rounds });
    // The gather depends on the graph and the ball only, so one pass over
    // the same calls grows the scratch to everything the second pass
    // needs.
    let mut pass = |levels: &mut [i64]| {
        for ball in &balls {
            for cfg in &configs {
                repair_levels(&dg, levels, ball, cfg, &mut scratch);
            }
        }
    };
    pass(&mut levels);
    let before = ALLOCS.with(Cell::get);
    pass(&mut levels);
    assert_eq!(
        ALLOCS.with(Cell::get) - before,
        0,
        "a warm repair allocated"
    );
}
