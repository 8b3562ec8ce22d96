//! Typed columns with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::error::AggError;
use crate::value::{DataType, Value};
use std::sync::Arc;

/// The typed storage backing a column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Signed 64-bit integers.
    I64(Vec<i64>),
    /// Unsigned 64-bit integers.
    U64(Vec<u64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Strings.
    Str(Vec<Arc<str>>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len(),
            ColumnData::U64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }
}

/// A column: typed values plus a validity bitmap (bit set ⇒ non-null).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Bitmap,
}

impl Column {
    /// Creates an empty column of `dtype`.
    pub fn new_empty(dtype: DataType) -> Self {
        let data = match dtype {
            DataType::Int64 => ColumnData::I64(Vec::new()),
            DataType::UInt64 => ColumnData::U64(Vec::new()),
            DataType::Float64 => ColumnData::F64(Vec::new()),
            DataType::Utf8 => ColumnData::Str(Vec::new()),
        };
        Self {
            data,
            validity: Bitmap::new(),
        }
    }

    /// Builds a non-nullable column from a vector of `i64`.
    pub fn from_i64(values: Vec<i64>) -> Self {
        let validity = Bitmap::filled(values.len(), true);
        Self {
            data: ColumnData::I64(values),
            validity,
        }
    }

    /// Builds a non-nullable column from a vector of `u64`.
    pub fn from_u64(values: Vec<u64>) -> Self {
        let validity = Bitmap::filled(values.len(), true);
        Self {
            data: ColumnData::U64(values),
            validity,
        }
    }

    /// Builds a non-nullable column from a vector of `f64`.
    pub fn from_f64(values: Vec<f64>) -> Self {
        let validity = Bitmap::filled(values.len(), true);
        Self {
            data: ColumnData::F64(values),
            validity,
        }
    }

    /// Builds a non-nullable column from strings.
    pub fn from_str_values<I: IntoIterator<Item = S>, S: AsRef<str>>(values: I) -> Self {
        let data: Vec<Arc<str>> = values.into_iter().map(|s| Arc::from(s.as_ref())).collect();
        let validity = Bitmap::filled(data.len(), true);
        Self {
            data: ColumnData::Str(data),
            validity,
        }
    }

    /// Builds a nullable `u64` column from options.
    pub fn from_u64_opt(values: Vec<Option<u64>>) -> Self {
        let mut validity = Bitmap::new();
        let mut data = Vec::with_capacity(values.len());
        for v in values {
            validity.push(v.is_some());
            data.push(v.unwrap_or(0));
        }
        Self {
            data: ColumnData::U64(data),
            validity,
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::I64(_) => DataType::Int64,
            ColumnData::U64(_) => DataType::UInt64,
            ColumnData::F64(_) => DataType::Float64,
            ColumnData::Str(_) => DataType::Utf8,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.len() - self.validity.count_ones()
    }

    /// Returns `true` when row `idx` is non-null.
    #[inline]
    pub fn is_valid(&self, idx: usize) -> bool {
        self.validity.get(idx)
    }

    /// Dynamic accessor. Prefer the typed accessors in hot loops.
    pub fn value(&self, idx: usize) -> Value {
        if !self.validity.get(idx) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(v) => Value::Int(v[idx]),
            ColumnData::U64(v) => Value::UInt(v[idx]),
            ColumnData::F64(v) => Value::Float(v[idx]),
            ColumnData::Str(v) => Value::Str(v[idx].clone()),
        }
    }

    /// Appends a dynamic value; `Null` is recorded in the bitmap.
    pub fn push(&mut self, value: Value) -> Result<(), AggError> {
        match (&mut self.data, value) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnData::I64(v), Value::Int(x)) => v.push(x),
            (ColumnData::U64(v), Value::UInt(x)) => v.push(x),
            (ColumnData::F64(v), Value::Float(x)) => v.push(x),
            (ColumnData::F64(v), Value::Int(x)) => v.push(x as f64),
            (ColumnData::Str(v), Value::Str(x)) => v.push(x),
            (data, value) => {
                let actual = match value {
                    Value::Int(_) => "Int64",
                    Value::UInt(_) => "UInt64",
                    Value::Float(_) => "Float64",
                    Value::Str(_) => "Utf8",
                    Value::Null => unreachable!("handled above"),
                };
                let expected = match data {
                    ColumnData::I64(_) => "Int64",
                    ColumnData::U64(_) => "UInt64",
                    ColumnData::F64(_) => "Float64",
                    ColumnData::Str(_) => "Utf8",
                };
                return Err(AggError::TypeMismatch {
                    column: String::new(),
                    expected,
                    actual,
                });
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Appends a null row.
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::I64(v) => v.push(0),
            ColumnData::U64(v) => v.push(0),
            ColumnData::F64(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(Arc::from("")),
        }
        self.validity.push(false);
    }

    /// Typed view of an `i64` column, or `None` if the type differs.
    pub fn i64_values(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of a `u64` column.
    pub fn u64_values(&self) -> Option<&[u64]> {
        match &self.data {
            ColumnData::U64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of an `f64` column.
    pub fn f64_values(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view of a string column.
    pub fn str_values(&self) -> Option<&[Arc<str>]> {
        match &self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Builds a new column containing the rows at `indices`.
    ///
    /// Column-major: one match on the storage type, then a typed gather
    /// — no per-row `Value` boxing or dynamic dispatch. `take` backs
    /// `Table::filter` on the fit path, where the per-row version showed
    /// up in profiles.
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::I64(v) => ColumnData::I64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::U64(v) => ColumnData::U64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::F64(v) => ColumnData::F64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(indices.iter().map(|&i| Arc::clone(&v[i])).collect())
            }
        };
        // All-valid columns (the common case) skip per-row bit reads.
        let validity = if self.null_count() == 0 {
            Bitmap::filled(indices.len(), true)
        } else {
            let mut bm = Bitmap::new();
            for &i in indices {
                bm.push(self.validity.get(i));
            }
            bm
        };
        Column { data, validity }
    }

    /// Approximate heap size of the column in bytes (storage metric).
    pub fn byte_size(&self) -> usize {
        let data = match &self.data {
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::U64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Str(v) => v.iter().map(|s| s.len() + 16).sum(),
        };
        data + self.len() / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_builders_and_access() {
        let c = Column::from_f64(vec![1.0, 2.5]);
        assert_eq!(c.dtype(), DataType::Float64);
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), Value::Float(2.5));
        assert_eq!(c.null_count(), 0);
        assert_eq!(c.f64_values().unwrap(), &[1.0, 2.5]);
        assert!(c.i64_values().is_none());
    }

    #[test]
    fn nullable_column() {
        let c = Column::from_u64_opt(vec![Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_valid(0));
        assert!(!c.is_valid(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::UInt(3));
    }

    #[test]
    fn push_type_checks() {
        let mut c = Column::new_empty(DataType::Int64);
        c.push(Value::Int(5)).unwrap();
        c.push(Value::Null).unwrap();
        assert!(c.push(Value::from("nope")).is_err());
        assert_eq!(c.len(), 2);
        // Int promotes into Float columns (CSV convenience).
        let mut f = Column::new_empty(DataType::Float64);
        f.push(Value::Int(2)).unwrap();
        assert_eq!(f.value(0), Value::Float(2.0));
    }

    #[test]
    fn take_preserves_values_and_nulls() {
        let c = Column::from_u64_opt(vec![Some(10), None, Some(30), Some(40)]);
        let t = c.take(&[3, 1, 0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(0), Value::UInt(40));
        assert_eq!(t.value(1), Value::Null);
        assert_eq!(t.value(2), Value::UInt(10));
    }

    #[test]
    fn byte_size_is_positive() {
        let c = Column::from_i64(vec![0; 100]);
        assert!(c.byte_size() >= 800);
        let s = Column::from_str_values(["abc", "de"]);
        assert!(s.byte_size() > 5);
    }
}
