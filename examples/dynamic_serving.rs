//! Dynamic serving: keep a (1+ε)-quality allocation alive under churn.
//!
//! An ad server holds a pool of advertisers (right side, with budgets);
//! impressions (left side) arrive, linger, and expire, advertisers top up
//! or cut budgets. Instead of re-solving from scratch on every change,
//! the [`ServeLoop`] repairs the solution locally around each update and
//! certifies the `k/(k+1)` quality bound at every epoch boundary.
//!
//! ```sh
//! cargo run --release --example dynamic_serving
//! ```

use sparse_alloc::dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc::prelude::*;

fn main() {
    // 1. The standing instance: a λ-sparse client/server graph.
    let gen = union_of_spanning_trees(20_000, 15_000, 4, 2, 42);
    let g = gen.graph;
    println!(
        "instance: {} (n = {}, m = {}, λ ≤ {})",
        gen.family,
        g.n(),
        g.m(),
        gen.lambda_upper
    );

    // 2. Boot the serve loop: one static solve, then incremental forever.
    let eps = 0.2;
    let cfg = DynamicConfig::for_eps(eps);
    let k = cfg.walk_budget;
    let t0 = std::time::Instant::now();
    let mut serve = ServeLoop::new(g.clone(), cfg);
    println!(
        "boot: static solve matched {} in {:.1} ms (walk budget k = {k} ⇒ ≥ {k}/{} of OPT)",
        serve.match_size(),
        t0.elapsed().as_secs_f64() * 1e3,
        k + 1,
    );

    // 3. Serve five epochs of mixed churn: sessions expire and re-enter,
    //    edges flicker, budgets wiggle.
    let events_per_epoch = 400;
    let updates = churn_stream(&g, 5 * events_per_epoch, &ChurnMix::default(), 7);
    for (epoch, chunk) in updates.chunks(events_per_epoch).enumerate() {
        let t = std::time::Instant::now();
        for up in chunk {
            serve.apply(up);
        }
        let report = serve.end_epoch();
        println!(
            "epoch {}: {} events in {:.2} ms — matched {}, sweep found {}, β-ball {} rights{}",
            epoch + 1,
            chunk.len(),
            t.elapsed().as_secs_f64() * 1e3,
            report.match_size,
            report.sweep_augmentations,
            report.ball_rights,
            match (report.compacted, report.rebuilt) {
                (true, true) => ", folded, levels re-solved",
                (true, false) => ", folded",
                _ => "",
            },
        );
    }

    // 4. A few point queries — O(1) reads of maintained state.
    for u in [0u32, 7, 99] {
        match serve.query(u) {
            Some(v) => println!("client {u} → server {v}"),
            None => println!("client {u} → unmatched"),
        }
    }

    // 5. Audit the maintained state against the exact oracle.
    let live = serve.snapshot();
    serve
        .assignment()
        .validate(&live)
        .expect("maintained allocation feasible");
    let opt = opt_value(&live);
    let ratio = serve.match_size() as f64 / opt.max(1) as f64;
    let s = serve.stats();
    println!(
        "audit: matched {} of OPT {opt} (ratio {ratio:.4} ≥ {:.4} guaranteed)",
        serve.match_size(),
        k as f64 / (k as f64 + 1.0),
    );
    println!(
        "lifetime: {} updates, {} augmentations, {} evictions, {} folds ({} re-solved the levels)",
        s.updates, s.augmentations, s.evictions, s.compactions, s.rebuilds
    );
    assert!(ratio >= k as f64 / (k as f64 + 1.0) - 1e-9);
}
