//! `compare A.json B.json`: two `run` result files, metric by metric,
//! against the declared bounds.

use crate::data::Workload;
use crate::spec::END_TO_END;
use eval::json::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("results")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Relative difference of two readings, as a share of the smaller
/// magnitude, so the verdict does not depend on which file is named
/// first.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if a == b {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        (a - b).abs() / base
    }
}

/// Prints, per workload and end-to-end metric, both values, their
/// relative difference and the bound; `Ok(false)` when any pair
/// disagrees beyond its bound or either run recorded a failure.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut agree = true;
    println!("workload metric a b difference bound verdict");
    for workload in Workload::ALL.map(Workload::name) {
        for (metric, _unit, _better, bound) in END_TO_END {
            let read = |doc: &Json, path: &str| {
                value(doc, workload, metric).ok_or(format!("{path}: no {workload}.{metric}"))
            };
            let (va, vb) = (read(&a, a_path)?, read(&b, b_path)?);
            let difference = relative_difference(va, vb);
            let within = difference <= bound;
            agree &= within;
            println!(
                "{workload} {metric} {va} {vb} {difference:.4} {bound} {}",
                if within { "ok" } else { "BEYOND BOUND" }
            );
        }
        for (doc, path) in [(&a, a_path), (&b, b_path)] {
            let failed = doc
                .get("results")
                .and_then(|r| r.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64);
            if failed != Some(0.0) {
                println!("{workload} failed operations in {path}: {failed:?}");
                agree = false;
            }
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::relative_difference;

    #[test]
    fn difference_is_symmetric_and_relative_to_the_smaller_reading() {
        assert_eq!(relative_difference(100.0, 110.0), 0.1);
        assert_eq!(relative_difference(110.0, 100.0), 0.1);
        assert_eq!(relative_difference(5.0, 5.0), 0.0);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert!(relative_difference(0.0, 1.0).is_infinite());
    }
}
