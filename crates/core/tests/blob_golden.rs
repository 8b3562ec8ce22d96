//! Golden-file pins of the model blob layouts.
//!
//! Two contracts are frozen here:
//!
//! * the **v2 container layout** (header + length-prefixed graph +
//!   embedded `FitState`): the committed `tests/golden/v2_model.habit`
//!   must equal `to_bytes_full()` of a deterministic fit, byte for
//!   byte — any layout change must be deliberate (bump the version,
//!   regenerate);
//! * **v1 backward compatibility**: the committed
//!   `tests/golden/v1_model.habit` (the pre-FitState, graph-only
//!   layout) must still load read-only and impute **byte-identically**
//!   to the committed `tests/golden/v1_imputation.csv`.
//!
//! Regenerate the fixtures after a *deliberate* format change with
//! `HABIT_REGEN_GOLDEN=1 cargo test -p habit-core --test blob_golden`.

use ais::{trips_to_table, AisPoint, Trip};
use habit_core::{GapQuery, HabitConfig, HabitModel};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A fixed two-corridor world: everything about it is hard-coded, so
/// the fitted model is a pure function of the fit pipeline.
fn fixture_model() -> HabitModel {
    let mut trips = Vec::new();
    for k in 0..4u64 {
        trips.push(Trip {
            trip_id: k + 1,
            mmsi: 100 + k,
            points: (0..150)
                .map(|i| {
                    AisPoint::new(
                        100 + k,
                        i as i64 * 60,
                        10.0 + i as f64 * 0.003,
                        56.0,
                        12.0,
                        90.0,
                    )
                })
                .collect(),
        });
        trips.push(Trip {
            trip_id: 100 + k + 1,
            mmsi: 200 + k,
            points: (0..120)
                .map(|i| {
                    AisPoint::new(
                        200 + k,
                        i as i64 * 60,
                        10.2,
                        55.9 + i as f64 * 0.0025,
                        10.0,
                        0.0,
                    )
                })
                .collect(),
        });
    }
    HabitModel::fit(&trips_to_table(&trips), HabitConfig::with_r_t(9, 100.0)).expect("fixture fit")
}

/// The fixed gap the v1 compatibility fixture answers: east along the
/// lat-56 corridor, then north up the lon-10.2 one — the corner keeps
/// the RDP-simplified answer non-trivial.
fn fixture_gap() -> GapQuery {
    GapQuery::new(10.05, 56.0, 0, 10.2, 56.15, 3600)
}

/// Deterministic text rendering of an imputation (shortest-round-trip
/// float formatting, one `t,lon,lat` row per point).
fn render_imputation(model: &HabitModel) -> String {
    let imp = model.impute(&fixture_gap()).expect("fixture gap imputes");
    let mut out = String::from("t,lon,lat\n");
    for p in &imp.points {
        out.push_str(&format!("{},{},{}\n", p.t, p.pos.lon, p.pos.lat));
    }
    out
}

fn read_or_regen(path: &Path, fresh: &[u8]) -> Vec<u8> {
    if std::env::var_os("HABIT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(path, fresh).expect("write golden fixture");
    }
    std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with HABIT_REGEN_GOLDEN=1",
            path.display()
        )
    })
}

#[test]
fn v2_container_layout_is_pinned() {
    let model = fixture_model();
    let fresh = model.to_bytes_full();
    let committed = read_or_regen(&golden_dir().join("v2_model.habit"), &fresh);
    assert_eq!(
        fresh, committed,
        "v2 container bytes changed — if deliberate, bump the blob/state version and \
         regenerate with HABIT_REGEN_GOLDEN=1"
    );

    // The committed blob round-trips through this build.
    let back = HabitModel::from_bytes(&committed).expect("committed v2 loads");
    assert_eq!(back.blob_version(), 2);
    assert_eq!(back.to_bytes_full(), committed);
    let prov = back.fit_provenance().expect("state embedded");
    assert_eq!(prov.trips, 8);
    assert_eq!(prov.reports, 4 * 150 + 4 * 120);
}

#[test]
fn v1_blob_still_loads_and_imputes_byte_identically() {
    let model = fixture_model();
    // The v1 fixture is the lean graph-only layout — exactly what
    // pre-FitState builds wrote to disk.
    let fresh_blob = model.to_bytes();
    let committed_blob = read_or_regen(&golden_dir().join("v1_model.habit"), &fresh_blob);

    let v1 = HabitModel::from_bytes(&committed_blob).expect("v1 blob loads");
    assert_eq!(v1.blob_version(), 1);
    assert!(v1.state().is_none(), "v1 models are read-only");
    assert_eq!(
        v1.to_bytes(),
        committed_blob,
        "v1 re-serialization is stable"
    );

    let fresh_csv = render_imputation(&v1);
    let committed_csv = read_or_regen(
        &golden_dir().join("v1_imputation.csv"),
        fresh_csv.as_bytes(),
    );
    assert_eq!(
        fresh_csv.as_bytes(),
        committed_csv.as_slice(),
        "imputation through a v1 blob must stay byte-identical"
    );

    // And the v2 path over the same data answers the same gap with the
    // same bytes — the state changes persistence, never answers.
    assert_eq!(render_imputation(&model), fresh_csv);
}

/// A blob whose edge section repeats a `(from, to)` record declares N
/// edges but holds N−1 distinct ones: it would decode, then re-encode
/// to different bytes. It is corruption and must be refused.
#[test]
fn duplicate_edge_record_is_rejected() {
    let mut blob = std::fs::read(golden_dir().join("v1_model.habit")).expect("v1 fixture");
    // v1 header (magic, version, 3 config bytes, tolerance), then the
    // graph: magic, node count, edge count, 56-byte node records
    // (id + CellStats), 24-byte edge records (from, to, EdgeStats).
    let graph_at = 4 + 1 + 3 + 8;
    let count = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
    let (nodes, edges) = (count(graph_at + 4), count(graph_at + 12));
    assert!(edges >= 2);
    let edges_at = graph_at + 20 + nodes * 56;
    assert_eq!(blob.len(), edges_at + edges * 24, "layout as documented");
    assert!(HabitModel::from_bytes(&blob).is_ok());
    // Overwrite the second edge's endpoints with the first's.
    blob.copy_within(edges_at..edges_at + 16, edges_at + 24);
    assert!(matches!(
        HabitModel::from_bytes(&blob),
        Err(habit_core::HabitError::BadModelBlob)
    ));
}
