//! Port-traffic analytics over the SAR scenario — the aggdb + HABIT
//! stack used for maritime decision-making (paper §1, "prioritize
//! actions in congested areas").
//!
//! ```text
//! cargo run --release --example port_traffic
//! ```
//!
//! Segments all Saronic-gulf traffic into trips, aggregates per-cell
//! statistics with the columnar engine (the paper's DuckDB step), and
//! ranks the busiest water cells around the port of Piraeus by distinct
//! vessel count — then shows how the fitted HABIT graph exposes the same
//! statistics per transition.

use habit::aggdb::{Agg, AggSpec};
use habit::prelude::*;
use habit::synth::{datasets, DatasetSpec};

#[allow(clippy::needless_range_loop)] // parallel column access by row index
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

    // --- 1. Columnar aggregation: assign every report to an H3 cell and
    //        group per cell, exactly like the paper's DuckDB CTE (§3.2).
    const RES: u8 = 8;
    let grid = HexGrid::new();
    let table = habit::ais::trips_to_table(&trips);
    let lon = table
        .column_by_name("lon")
        .expect("lon")
        .f64_values()
        .expect("f64");
    let lat = table
        .column_by_name("lat")
        .expect("lat")
        .f64_values()
        .expect("f64");
    let cells: Vec<u64> = lon
        .iter()
        .zip(lat)
        .map(|(&x, &y)| {
            grid.cell(&GeoPoint::new(x, y), RES)
                .map(|c| c.raw())
                .unwrap_or(0)
        })
        .collect();
    let with_cells = table
        .clone()
        .with_column("cell", Column::from_u64(cells))
        .expect("add cell column");

    let stats = with_cells
        .group_by(
            &["cell"],
            &[
                AggSpec::new("", Agg::Count, "msgs"),
                AggSpec::new("vessel_id", Agg::CountDistinctApprox, "vessels"),
                AggSpec::new("sog", Agg::Median, "median_sog"),
            ],
        )
        .expect("group by cell");

    // Rank cells near Piraeus by distinct vessels.
    let piraeus = dataset.world.port("Piraeus").expect("port").pos;
    let cell_ids = stats
        .column_by_name("cell")
        .expect("cell")
        .u64_values()
        .expect("u64");
    let mut near: Vec<(u64, u64, u64, f64)> = Vec::new();
    for i in 0..stats.num_rows() {
        let Ok(cell) = HexCell::from_raw(cell_ids[i]) else {
            continue;
        };
        let center = grid.center(cell);
        if habit::geo::haversine_m(&center, &piraeus) < 8_000.0 {
            let vessels = stats
                .column_by_name("vessels")
                .expect("col")
                .value(i)
                .as_u64()
                .unwrap_or(0);
            let msgs = stats
                .column_by_name("msgs")
                .expect("col")
                .value(i)
                .as_u64()
                .unwrap_or(0);
            let sog = stats
                .column_by_name("median_sog")
                .expect("col")
                .value(i)
                .as_f64()
                .unwrap_or(0.0);
            near.push((vessels, cell_ids[i], msgs, sog));
        }
    }
    near.sort_by_key(|&(v, _, _, _)| std::cmp::Reverse(v));
    println!("\nbusiest cells within 8 km of Piraeus (res {RES}):");
    println!(
        "{:>18}  {:>8}  {:>8}  {:>10}",
        "cell", "vessels", "msgs", "median SOG"
    );
    for (v, cell, m, s) in near.iter().take(10) {
        println!("{cell:>18}  {v:>8}  {m:>8}  {s:>10.1}");
    }

    // --- 2. The same statistics inside a fitted HABIT model: strongest
    //        transitions near the port = the approach corridors.
    let model = HabitModel::fit(&table, HabitConfig::with_r_t(RES, 100.0)).expect("fit");
    println!(
        "\nHABIT graph: {} cells / {} transitions",
        model.node_count(),
        model.edge_count()
    );
    let mut corridors: Vec<(u32, u64, u64)> = Vec::new();
    let graph = model.csr();
    for (idx, &id) in graph.ids().iter().enumerate() {
        let Ok(cell) = HexCell::from_raw(id) else {
            continue;
        };
        if habit::geo::haversine_m(&grid.center(cell), &piraeus) > 8_000.0 {
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
