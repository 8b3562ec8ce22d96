//! Property-based robustness tests for the wire decoder: whatever a
//! client sends, `wire::decode_request` answers with a request or a
//! typed `bad_request`, and never panics.

use crate::error::{ErrorCode, ServiceError};
use crate::request::Request;
use crate::wire::{decode_request, encode_request};
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
