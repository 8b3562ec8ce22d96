//! Regenerates the **route_bench** experiment — the route-engine hot
//! path (frozen CSR adjacency, pooled `SearchArena` A*, in-place RDP)
//! benchmarked stage by stage against the naive oracle
//! (`habit_core::reference`: pointer-graph A* with per-call allocations
//! → recursive sub-path-cloning RDP) on KIEL.
//!
//! Shape to verify: every imputation byte-identical across the two
//! paths at any scale, and a ≥2x end-to-end speedup on the full-scale
//! committed run.

use std::process::ExitCode;

fn main() -> ExitCode {
    habit_bench::report_main(|| {
        let kiel = habit_bench::kiel();
        eprintln!(
            "kiel: {} train trips, {} test trips",
            kiel.train.len(),
            kiel.test.len()
        );
        habit_bench::reports::route_bench_report(&kiel, habit_bench::SEED)
    })
}
