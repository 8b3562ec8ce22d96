//! Tables: named, typed columns of equal length.

use crate::column::Column;
use crate::error::AggError;
use crate::fxhash::FxHashMap;
use crate::value::{DataType, Value};

/// A named, typed column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Index of the field called `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// An in-memory columnar table.
///
/// This is the unit of data exchange: the AIS preprocessing pipeline
/// materializes trips into a `Table`, HABIT's graph generation adds the
/// cell and lag columns to it, and its two group-bys read the typed
/// columns back out.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new_empty(f.dtype))
            .collect();
        Self {
            schema,
            columns,
            nrows: 0,
        }
    }

    /// Creates a table from parallel (name, column) pairs.
    pub fn from_columns(pairs: Vec<(&str, Column)>) -> Result<Self, AggError> {
        let mut fields = Vec::with_capacity(pairs.len());
        let mut columns = Vec::with_capacity(pairs.len());
        let mut nrows = None;
        for (name, col) in pairs {
            match nrows {
                None => nrows = Some(col.len()),
                Some(n) if n != col.len() => return Err(AggError::LengthMismatch),
                _ => {}
            }
            fields.push(Field::new(name, col.dtype()));
            columns.push(col);
        }
        Ok(Self {
            schema: Schema::new(fields),
            columns,
            nrows: nrows.unwrap_or(0),
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, AggError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| AggError::UnknownColumn(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// Appends a row of dynamic values.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), AggError> {
        if row.len() != self.columns.len() {
            return Err(AggError::ArityMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        for (i, value) in row.into_iter().enumerate() {
            self.columns[i].push(value).map_err(|e| match e {
                AggError::TypeMismatch {
                    expected, actual, ..
                } => AggError::TypeMismatch {
                    column: self.schema.fields()[i].name.clone(),
                    expected,
                    actual,
                },
                other => other,
            })?;
        }
        self.nrows += 1;
        Ok(())
    }

    /// Materializes row `idx` as dynamic values.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(idx)).collect()
    }

    /// Adds a computed column. Its length must match the table.
    pub fn with_column(mut self, name: &str, col: Column) -> Result<Self, AggError> {
        if col.len() != self.nrows {
            return Err(AggError::LengthMismatch);
        }
        self.schema = Schema::new(
            self.schema
                .fields()
                .iter()
                .cloned()
                .chain(std::iter::once(Field::new(name, col.dtype())))
                .collect(),
        );
        self.columns.push(col);
        Ok(self)
    }

    /// Selects the rows at `indices` (in that order) into a new table.
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(indices)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            nrows: indices.len(),
        }
    }

    /// Keeps the rows where `predicate` returns true.
    pub fn filter<F: FnMut(usize) -> bool>(&self, mut predicate: F) -> Table {
        let indices: Vec<usize> = (0..self.nrows).filter(|&i| predicate(i)).collect();
        self.take(&indices)
    }

    /// Approximate in-memory size of the table in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Partitions the rows by the value of the `UInt64` column `key` and
    /// returns the row indices per group, in first-appearance order (so
    /// the result is deterministic). Null is its own group, distinct
    /// from `0`.
    pub fn group_rows(&self, key: &str) -> Result<Vec<Vec<usize>>, AggError> {
        let col = self.column_by_name(key)?;
        let vals = col.u64_values().ok_or_else(|| AggError::TypeMismatch {
            column: key.to_string(),
            expected: "UInt64",
            actual: col.dtype().name(),
        })?;
        // Hash a packed integer key per row; null goes out-of-band in a
        // validity flag.
        let mut groups: FxHashMap<(u64, bool), usize> = FxHashMap::default();
        groups.reserve(self.nrows / 4 + 1);
        let mut group_rows: Vec<Vec<usize>> = Vec::new();
        for (row, &val) in vals.iter().enumerate() {
            let valid = col.is_valid(row);
            let key = (if valid { val } else { 0 }, valid);
            match groups.get(&key) {
                Some(&g) => group_rows[g].push(row),
                None => {
                    groups.insert(key, group_rows.len());
                    group_rows.push(vec![row]);
                }
            }
        }
        Ok(group_rows)
    }
}

/// Total order over values: Null last, numerics by value, strings
/// lexical. Pure integer pairs compare exactly (no f64 round trip, which
/// would collapse u64 cell ids above 2^53); mixed numeric pairs fall
/// back to f64.
pub(crate) fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater,
        (_, Value::Null) => Ordering::Less,
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::UInt(x), Value::UInt(y)) => x.cmp(y),
        (Value::Int(x), Value::UInt(y)) => (*x as i128).cmp(&(*y as i128)),
        (Value::UInt(x), Value::Int(y)) => (*x as i128).cmp(&(*y as i128)),
        _ => {
            let fa = a.as_f64().unwrap_or(f64::NAN);
            let fb = b.as_f64().unwrap_or(f64::NAN);
            fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_columns(vec![
            ("trip", Column::from_u64(vec![1, 1, 2, 2, 2])),
            ("ts", Column::from_i64(vec![10, 20, 5, 15, 25])),
            ("sog", Column::from_f64(vec![9.0, 9.5, 0.2, 11.0, 12.0])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.column_by_name("ts").unwrap().i64_values().unwrap()[2], 5);
        assert!(t.column_by_name("nope").is_err());
        assert_eq!(
            t.row(0),
            vec![Value::UInt(1), Value::Int(10), Value::Float(9.0)]
        );
    }

    #[test]
    fn mismatched_columns_rejected() {
        let r = Table::from_columns(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_i64(vec![1])),
        ]);
        assert!(matches!(r, Err(AggError::LengthMismatch)));
    }

    #[test]
    fn push_row_arity_and_types() {
        let mut t = sample();
        assert!(t.push_row(vec![Value::UInt(3), Value::Int(1)]).is_err());
        let err = t
            .push_row(vec![Value::UInt(3), Value::from("x"), Value::Float(1.0)])
            .unwrap_err();
        match err {
            AggError::TypeMismatch { column, .. } => assert_eq!(column, "ts"),
            other => panic!("unexpected {other:?}"),
        }
        t.push_row(vec![Value::UInt(3), Value::Int(30), Value::Float(8.0)])
            .unwrap();
        assert_eq!(t.num_rows(), 6);
    }

    #[test]
    fn filter_and_take() {
        let t = sample();
        let fast = t.filter(|i| t.column(2).value(i).as_f64().unwrap() > 9.2);
        assert_eq!(fast.num_rows(), 3);
        let taken = t.take(&[4, 0]);
        assert_eq!(taken.row(0)[1], Value::Int(25));
        assert_eq!(taken.row(1)[1], Value::Int(10));
    }

    #[test]
    fn group_rows_by_single_key() {
        let t = sample();
        let groups = t.group_rows("trip").unwrap();
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3, 4]]);
        // Null is a group of its own, distinct from 0.
        let nullable = Table::from_columns(vec![(
            "a",
            Column::from_u64_opt(vec![Some(0), None, Some(0), None]),
        )])
        .unwrap();
        assert_eq!(
            nullable.group_rows("a").unwrap(),
            vec![vec![0, 2], vec![1, 3]]
        );
        // Only UInt64 keys partition.
        assert!(t.group_rows("ts").is_err());
        assert!(t.group_rows("nope").is_err());
    }

    #[test]
    fn with_column_validates_length() {
        let t = sample();
        assert!(t
            .clone()
            .with_column("x", Column::from_i64(vec![1]))
            .is_err());
        let t2 = t.with_column("x", Column::from_i64(vec![0; 5])).unwrap();
        assert_eq!(t2.num_columns(), 4);
        assert_eq!(t2.schema().fields()[3].name, "x");
    }
}
