//! `habit eval` — quick accuracy/latency comparison on a synthetic
//! dataset (a compact version of the paper's Figure 5 + Table 4).
//!
//! No model file is involved (methods are fitted in-memory on a fresh
//! split by the experiment grid), so there is no service request behind
//! this command; its errors still speak the unified taxonomy.

use crate::args::Args;
use crate::commands::synth_cmd::dataset_id;
use eval::experiments::{cells, table, Cell, Column, Gaps, Grid};
use eval::Method;
use habit_service::{ErrorCode, ServiceError};

/// Entry point for `habit eval`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&["dataset", "seed", "scale", "gap"])?;
    let name = args.get("dataset").unwrap_or("kiel");
    let seed: u64 = args.get_or("seed", 42)?;
    let scale: f64 = args.get_or("scale", 0.3)?;
    let gap_minutes: i64 = args.get_or("gap", 60)?;
    if gap_minutes <= 0 {
        return Err(ServiceError::bad_request("--gap must be positive minutes"));
    }
    let dataset = dataset_id(name)?;

    let gaps = Gaps {
        duration_s: gap_minutes * 60,
        seed_offset: 0,
    };
    let methods = [
        Method::habit(9, 100.0),
        Method::habit(10, 100.0),
        Method::gti(5e-4),
        Method::Sli,
    ];
    let cells = cells(dataset, &methods, Some(gaps));
    let mut grid = Grid::new(seed, scale, cells.clone());
    // The gap cases first: nothing is fitted when no trip hosts a gap.
    grid.evaluate(&[Cell {
        dataset,
        method: None,
        gaps: Some(gaps),
    }]);
    let (bench, cases) = (grid.bench(dataset), grid.cases(dataset, gaps).len());
    println!(
        "{}: {} train trips / {} test trips, {cases} gaps of {gap_minutes} min\n",
        bench.name,
        bench.train.len(),
        bench.test.len(),
    );
    if cases == 0 {
        return Err(ServiceError::new(
            ErrorCode::BadInput,
            "no trip can host a gap of this duration — lower --gap or raise --scale",
        ));
    }
    grid.evaluate(&cells);
    // HABIT must fit; a GTI that cannot is left out of the table.
    for habit in &methods[..2] {
        let fit = grid.fit(dataset, habit);
        fit.map_err(|e| ServiceError::new(ErrorCode::EmptyModel, e))?;
    }
    let rows = grid.rows(dataset, &methods, gaps);
    println!("{}", table(&rows, &Column::COMPARISON).render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_runs_on_tiny_kiel() {
        let args = Args::parse(
            ["eval", "--dataset", "kiel", "--scale", "0.1", "--seed", "7"].map(String::from),
        )
        .unwrap();
        run(&args).expect("eval");
    }

    #[test]
    fn eval_rejects_bad_gap() {
        let args = Args::parse(["eval", "--gap", "-10"].map(String::from)).unwrap();
        let err = run(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
