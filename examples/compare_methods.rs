//! Head-to-head comparison of HABIT, GTI and SLI on the same gaps —
//! a miniature of the paper's Figure 5 / Table 4 protocol.
//!
//! ```text
//! cargo run --release --example compare_methods
//! ```
//!
//! Fits every method on the same 70 % training split of the KIEL
//! corridor, injects one 60-minute gap per held-out trip, and reports
//! per-method accuracy (mean/median DTW), failures, model size and
//! query latency in a single table.

use habit::eval::experiments::{cells, table, Column, DatasetId, Gaps, Grid};
use habit::eval::Method;

fn main() {
    // The configurations the paper compares (§4.3).
    let methods = [
        Method::habit(9, 100.0),
        Method::habit(9, 250.0),
        Method::habit(10, 100.0),
        Method::gti(1e-4),
        Method::gti(5e-4),
        Method::Sli,
    ];
    let kiel = DatasetId::Kiel;
    let grid = Grid::run(42, 0.3, cells(kiel, &methods, Some(Gaps::HOUR)));
    let bench = grid.bench(kiel);
    println!(
        "KIEL: {} train trips, {} test trips, {} gap cases\n",
        bench.train.len(),
        bench.test.len(),
        grid.cases(kiel, Gaps::HOUR).len()
    );
    for m in &methods {
        grid.fit(kiel, m).expect("every method fits KIEL");
    }
    let rows = grid.rows(kiel, &methods, Gaps::HOUR);
    println!("{}", table(&rows, &Column::COMPARISON).render());

    println!(
        "expected shape (paper §4.3): GTI most accurate on this confined route,\n\
         HABIT close behind and far ahead of SLI, with HABIT's model an order\n\
         of magnitude smaller and its queries several times faster than GTI's."
    );
}
