//! Pins the search-arena pool: arenas resident number the peak
//! *concurrent* searches, not the threads that ever searched.
//!
//! A test binary of its own, with one test, because the pool is
//! process-wide: any other test routing in this process would move the
//! count.

use habit_core::impute::pooled_search_arenas;
use habit_core::{HabitModel, Route};
use hexgrid::HexCell;
use std::path::Path;
use std::sync::Barrier;

#[test]
fn arenas_follow_concurrent_searches_not_threads() {
    let blob = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/v1_model.habit");
    let model = HabitModel::from_bytes(&std::fs::read(blob).expect("golden blob")).expect("decode");
    // Every ordered pair of a spread of model cells that routes.
    let cells: Vec<HexCell> = model
        .csr()
        .nodes()
        .step_by(7)
        .map(|(id, _)| HexCell::from_raw(id).expect("node ids are cells"))
        .collect();
    let pairs: Vec<(HexCell, HexCell)> = cells
        .iter()
        .flat_map(|&a| cells.iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a != b && model.route_between(a, b).is_ok())
        .take(8)
        .collect();
    assert_eq!(pairs.len(), 8, "the fixture routes between 8 cell pairs");
    let expected: Vec<Route> = pairs
        .iter()
        .map(|&(a, b)| model.route_between(a, b).expect("routes"))
        .collect();
    assert_eq!(pooled_search_arenas(), 1, "one thread, one arena");

    // Eight short-lived threads, one after the other: each checks the
    // same arena out and back in. (A thread-local arena would leave
    // eight behind on a pool that kept its threads.)
    for (&(a, b), want) in pairs.iter().zip(&expected) {
        let got = std::thread::scope(|scope| {
            scope
                .spawn(|| model.route_between(a, b).expect("routes"))
                .join()
                .expect("search thread")
        });
        assert_eq!(&got, want);
        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        assert_eq!(pooled_search_arenas(), 1);
    }

    // N threads released together: at most N arenas ever exist, and
    // every route is still the single-thread answer bit for bit.
    let n = 4;
    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        for worker in 0..n {
            let (model, barrier, pairs, expected) = (&model, &barrier, &pairs, &expected);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..16 {
                    let i = (worker + round) % pairs.len();
                    let got = model.route_between(pairs[i].0, pairs[i].1).expect("routes");
                    assert_eq!(got, expected[i]);
                    assert_eq!(got.cost.to_bits(), expected[i].cost.to_bits());
                }
            });
        }
    });
    let pooled = pooled_search_arenas();
    assert!((1..=n).contains(&pooled), "{pooled} arenas for {n} threads");
}
