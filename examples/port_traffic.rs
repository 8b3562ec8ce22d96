//! Port-traffic analytics over the SAR scenario — the trip table + HABIT
//! stack used for maritime decision-making (paper §1, "prioritize
//! actions in congested areas").
//!
//! ```text
//! cargo run --release --example port_traffic
//! ```
//!
//! Segments all Saronic-gulf traffic into trips, fits HABIT (whose
//! per-cell group-by is the paper's DuckDB step), ranks the busiest
//! water cells around the port of Piraeus by distinct vessel count from
//! the fitted graph's cell statistics, and lists the strongest
//! transitions there.

use habit::prelude::*;
use habit::synth::{datasets, DatasetSpec};

fn main() {
    let dataset = datasets::sar(DatasetSpec {
        seed: 42,
        scale: 0.3,
    });
    let trips = dataset.trips();
    println!(
        "SAR: {} positions, {} vessels, {} trips",
        dataset.num_positions(),
        dataset.num_ships(),
        trips.len()
    );

    // --- 1. Per-cell statistics: fitting HABIT assigns every report to
    //        an H3 cell and groups per cell, exactly like the paper's
    //        DuckDB CTE (§3.2); the fitted graph's nodes carry the result.
    const RES: u8 = 8;
    let grid = HexGrid::new();
    let table = habit::ais::trips_to_table(&trips);
    let model = HabitModel::fit(&table, HabitConfig::with_r_t(RES, 100.0)).expect("fit");
    let graph = model.csr();

    // Rank cells near Piraeus by distinct vessels.
    let piraeus = dataset.world.port("Piraeus").expect("port").pos;
    let near_piraeus = |id: u64| {
        HexCell::from_raw(id)
            .is_ok_and(|cell| habit::geo::haversine_m(&grid.center(cell), &piraeus) < 8_000.0)
    };
    let mut near: Vec<_> = graph.nodes().filter(|&(id, _)| near_piraeus(id)).collect();
    near.sort_by_key(|&(_, stats)| std::cmp::Reverse(stats.vessels));
    println!("\nbusiest cells within 8 km of Piraeus (res {RES}):");
    println!(
        "{:>18}  {:>8}  {:>8}  {:>10}",
        "cell", "vessels", "msgs", "median SOG"
    );
    for (cell, stats) in near.iter().take(10) {
        println!(
            "{cell:>18}  {:>8}  {:>8}  {:>10.1}",
            stats.vessels, stats.msg_count, stats.median_sog
        );
    }

    // --- 2. The same model's transitions: strongest transitions near
    //        the port = the approach corridors.
    println!(
        "\nHABIT graph: {} cells / {} transitions",
        model.node_count(),
        model.edge_count()
    );
    let mut corridors: Vec<(u32, u64, u64)> = Vec::new();
    for (idx, &id) in graph.ids().iter().enumerate() {
        if !near_piraeus(id) {
            continue;
        }
        for (to, e) in graph.edges_from_index(idx as u32) {
            corridors.push((e.transitions, id, graph.node_id(to)));
        }
    }
    corridors.sort_by_key(|&(w, _, _)| std::cmp::Reverse(w));
    println!("\nstrongest approach-corridor transitions (from -> to, trips):");
    for (w, from, to) in corridors.iter().take(10) {
        println!("  {from} -> {to}: {w} trips");
    }
}
