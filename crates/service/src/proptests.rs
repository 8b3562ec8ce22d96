//! Property-based robustness tests for the two decoders of untrusted
//! input: whatever a client sends, `wire::decode_request` answers with
//! a request or a typed `bad_request`, and whatever a file holds, the
//! AIS, track and gap CSV readers answer with rows or a typed
//! `IoError` — neither ever panics.

use crate::csvio::{
    read_ais_csv, read_ais_csv_reader, read_gaps_csv_reader, read_track_csv_reader, write_ais_csv,
};
use crate::error::{ErrorCode, ServiceError};
use crate::request::Request;
use crate::wire::{decode_request, encode_request};
use ais::{AisPoint, Trajectory};
use habit_core::GapQuery;
use proptest::prelude::*;

/// A decode is acceptable when it parses or fails as `bad_request`.
fn check_decode(line: &str) -> Result<Option<Request>, TestCaseError> {
    match decode_request(line) {
        Ok(request) => Ok(Some(request)),
        Err(ServiceError { code, message }) => {
            prop_assert_eq!(code, ErrorCode::BadRequest, "{}", message);
            Ok(None)
        }
    }
}

/// A valid `impute` (`batch == 0`) or `impute_batch` line of `batch`
/// gaps.
fn valid_line(batch: usize, lon: f64, lat: f64, t: i64, provenance: bool) -> String {
    let gap = |i: usize| GapQuery::new(lon, lat, t, lon + 0.1 * i as f64, lat + 0.05, t + 3_600);
    let request = match batch {
        0 => Request::Impute {
            gap: gap(1),
            provenance,
        },
        n => Request::ImputeBatch {
            gaps: (1..=n).map(gap).collect(),
            provenance,
        },
    };
    encode_request(&request)
}

fn valid_lines() -> impl Strategy<Value = String> {
    (
        0usize..4,
        -180.0f64..180.0,
        -85.0f64..85.0,
        0i64..2_000_000_000,
        any::<bool>(),
    )
        .prop_map(|(batch, lon, lat, t, provenance)| valid_line(batch, lon, lat, t, provenance))
}

proptest! {
    /// Arbitrary bytes, lossily decoded as a line would be, never panic
    /// the decoder: they fail typed.
    #[test]
    fn decode_request_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4_096)) {
        let line = String::from_utf8_lossy(&bytes);
        check_decode(&line)?;
    }

    /// Every valid line round-trips, and every strict prefix of it is a
    /// `bad_request` — a cut line never decodes to a different request.
    #[test]
    fn truncated_request_lines_are_bad_requests(line in valid_lines(), cut_frac in 0.0f64..1.0) {
        let request = check_decode(&line)?;
        prop_assert!(request.is_some(), "valid line rejected: {}", line);
        let cut = ((line.len() as f64) * cut_frac) as usize;
        prop_assert!(check_decode(&line[..cut])?.is_none(), "prefix decoded: {}", &line[..cut]);
    }

    /// A single flipped bit anywhere in a valid line decodes to some
    /// request or fails typed.
    #[test]
    fn bit_flipped_request_lines_fail_typed(
        line in valid_lines(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = line.into_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        check_decode(&String::from_utf8_lossy(&bytes))?;
    }

    /// Nesting depth is bounded by the decoder, not by the stack: an
    /// arbitrarily deep document is a `bad_request`.
    #[test]
    fn deeply_nested_lines_fail_typed(depth in 1usize..200_000, object in any::<bool>()) {
        let open = if object { "{\"a\":" } else { "[" };
        let line = format!("{{\"v\":1,\"op\":\"impute\",\"from\":{}", open.repeat(depth));
        prop_assert!(check_decode(&line)?.is_none());
    }
}

/// Runs all three CSV readers over `bytes`. Each answers `Ok` or a
/// typed `IoError` (the signature allows nothing else); what `Ok`
/// holds is at most one record per input line, so storage stays a
/// constant multiple of the input length.
fn check_csv_readers(bytes: &[u8]) -> Result<(), TestCaseError> {
    let lines = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
    if let Ok(trajectories) = read_ais_csv_reader(bytes) {
        let points: usize = trajectories.iter().map(Trajectory::len).sum();
        prop_assert!(points < lines, "{} points from {} lines", points, lines);
    }
    if let Ok(points) = read_track_csv_reader(bytes) {
        prop_assert!(points.len() < lines);
    }
    if let Ok(gaps) = read_gaps_csv_reader(bytes) {
        prop_assert!(gaps.len() < lines);
    }
    Ok(())
}

/// A valid CSV of `rows` records for one of the three readers (`kind`
/// 0 AIS, 1 track, 2 gaps), with shuffled-looking but parseable
/// values.
fn valid_csv(kind: u8, rows: &[(u64, i64, f64, f64)]) -> String {
    let mut text = String::from(match kind {
        0 => "mmsi,t,lon,lat,sog,cog,heading\n",
        1 => "t,lon,lat\n",
        _ => "lon1,lat1,t1,lon2,lat2,t2\n",
    });
    for &(mmsi, t, lon, lat) in rows {
        let row = match kind {
            0 => format!(
                "{mmsi},{t},{lon},{lat},12.5,{},{}\n",
                lat + 90.0,
                lon + 180.0
            ),
            1 => format!("{t},{lon},{lat}\n"),
            _ => format!("{lon},{lat},{t},{lat},{lon},{}\n", t + 3_600),
        };
        text.push_str(&row);
    }
    text
}

fn valid_csvs() -> impl Strategy<Value = String> {
    (
        0u8..3,
        proptest::collection::vec(
            (
                0u64..5,
                -100_000i64..100_000,
                -180.0f64..180.0,
                -85.0f64..85.0,
            ),
            1..40,
        ),
    )
        .prop_map(|(kind, rows)| valid_csv(kind, &rows))
}

/// Any `f64` but NaN (whose payload a text round trip need not keep).
fn non_nan(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_nan() {
        f64::MAX
    } else {
        x
    }
}

proptest! {
    /// Arbitrary bytes — on their own and behind each reader's valid
    /// header — never panic a CSV reader.
    #[test]
    fn csv_readers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2_048), kind in 0u8..4) {
        let mut input = match kind {
            0 => Vec::new(),
            kind => valid_csv(kind - 1, &[]).into_bytes(),
        };
        input.extend_from_slice(&bytes);
        check_csv_readers(&input)?;
    }

    /// Every cut of a valid file fails typed or reads a prefix of it.
    #[test]
    fn truncated_csv_files_fail_typed(text in valid_csvs(), cut_frac in 0.0f64..1.0) {
        let cut = ((text.len() as f64) * cut_frac) as usize;
        check_csv_readers(&text.as_bytes()[..cut])?;
    }

    /// A single flipped bit anywhere in a valid file reads or fails
    /// typed.
    #[test]
    fn bit_flipped_csv_files_fail_typed(text in valid_csvs(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = text.into_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        check_csv_readers(&bytes)?;
    }

    /// The AIS CSV writer and reader round-trip every field bit for bit,
    /// whatever the `f64` (NaN aside).
    #[test]
    fn csv_round_trip(
        rows in proptest::collection::vec(
            (0u64..4, any::<i64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..50,
        ),
        vessel_base in any::<u64>(),
    ) {
        let mut per_vessel = std::collections::BTreeMap::<u64, Vec<AisPoint>>::new();
        for (vessel, t, lon, lat, sog, cog, heading) in rows {
            let mmsi = vessel_base.wrapping_add(vessel);
            let mut p = AisPoint::new(mmsi, t, non_nan(lon), non_nan(lat), non_nan(sog), non_nan(cog));
            p.heading = non_nan(heading);
            per_vessel.entry(mmsi).or_default().push(p);
        }
        let trajectories: Vec<Trajectory> = per_vessel
            .into_iter()
            .map(|(mmsi, points)| Trajectory::new(mmsi, points))
            .collect();
        let path = std::env::temp_dir().join(format!("habit-csv-round-trip-{}.csv", std::process::id()));
        write_ais_csv(&trajectories, &path).expect("write");
        let back = read_ais_csv(&path).expect("read");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back.len(), trajectories.len());
        for (a, b) in trajectories.iter().zip(&back) {
            prop_assert_eq!(a.mmsi, b.mmsi);
            prop_assert_eq!(a.len(), b.len());
            for (p, q) in a.points.iter().zip(&b.points) {
                prop_assert_eq!((p.mmsi, p.t), (q.mmsi, q.t));
                let bits = |p: &AisPoint| [p.pos.lon, p.pos.lat, p.sog, p.cog, p.heading].map(f64::to_bits);
                prop_assert_eq!(bits(p), bits(q));
            }
        }
    }
}
