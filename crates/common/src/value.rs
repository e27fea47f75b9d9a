//! Runtime scalar values with total ordering and hashing.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::types::DataType;

/// A runtime scalar value.
///
/// `Value` implements `Eq`, `Ord` and `Hash` (floats are normalized:
/// `NaN == NaN`, `-0.0 == 0.0`) so it can serve as a join/group key and a
/// sort key. `Null` orders before every non-null value; comparisons with
/// SQL three-valued-logic semantics live in the executor, not here.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Boolean(bool),
    Int64(i64),
    Float64(f64),
    Utf8(String),
    Date(i32),
}

impl Value {
    /// The value's data type, or `None` for `Null` (which is untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Utf8(_) => Some(DataType::Utf8),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view as f64 for arithmetic and SUM/AVG.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(i) => Some(*i as f64),
            Value::Float64(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric view as i64, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate encoded size in bytes, used by the bytes-scanned metric.
    pub fn encoded_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Boolean(_) => 1,
            Value::Int64(_) | Value::Float64(_) => 8,
            Value::Utf8(s) => s.len(),
            Value::Date(_) => 4,
        }
    }

    /// Normalized f64 bits for hashing/equality (NaN collapsed, -0.0 == 0.0).
    fn f64_key(f: f64) -> u64 {
        if f.is_nan() {
            u64::MAX
        } else if f == 0.0 {
            0u64
        } else {
            f.to_bits()
        }
    }

    /// SQL comparison: `None` when either side is `Null` (unknown),
    /// otherwise the ordering. Cross numeric comparisons are allowed.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int64(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Float64(a), Value::Float64(b)) => Some(total_f64_cmp(*a, *b)),
            (Value::Int64(a), Value::Float64(b)) => Some(total_f64_cmp(*a as f64, *b)),
            (Value::Float64(a), Value::Int64(b)) => Some(total_f64_cmp(*a, *b as f64)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            (Value::Utf8(a), Value::Utf8(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    let ka = if a == 0.0 { 0.0 } else { a };
    let kb = if b == 0.0 { 0.0 } else { b };
    ka.total_cmp(&kb)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order across all variants: Null < Boolean < Int64/Float64 < Utf8
/// < Date; ints and floats compare numerically with each other.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Boolean(_) => 1,
                Value::Int64(_) | Value::Float64(_) => 2,
                Value::Utf8(_) => 3,
                Value::Date(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Boolean(a), Value::Boolean(b)) => a.cmp(b),
            (Value::Int64(a), Value::Int64(b)) => a.cmp(b),
            (Value::Float64(a), Value::Float64(b)) => total_f64_cmp(*a, *b),
            (Value::Int64(a), Value::Float64(b)) => total_f64_cmp(*a as f64, *b),
            (Value::Float64(a), Value::Int64(b)) => total_f64_cmp(*a, *b as f64),
            (Value::Utf8(a), Value::Utf8(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Boolean(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equal, so hash
            // every numeric through its normalized f64 bits.
            Value::Int64(i) => {
                2u8.hash(state);
                Value::f64_key(*i as f64).hash(state);
            }
            Value::Float64(f) => {
                2u8.hash(state);
                Value::f64_key(*f).hash(state);
            }
            Value::Utf8(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

/// FNV-1a over row contents (row count, per-row arity, and every value
/// through [`Value`]'s `Hash`, which normalizes float bits). Deterministic
/// within a process, which is all integrity verification and in-process
/// equality witnesses need. The reuse cache stamps entries with it and
/// re-verifies on every hit; a `ConstantTable` leaf carries it so plan
/// comparison and canonical encoding never walk shared rows.
pub fn rows_checksum(rows: &[Vec<Value>]) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01B3);
            }
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    rows.len().hash(&mut h);
    for row in rows {
        row.len().hash(&mut h);
        for v in row {
            v.hash(&mut h);
        }
    }
    h.0
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int64(i) => write!(f, "{i}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "DATE({d})"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Boolean(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int64(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float64(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Utf8(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Utf8(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_equality_and_hash_agree() {
        let a = Value::Int64(3);
        let b = Value::Float64(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_and_negative_zero_normalize() {
        assert_eq!(Value::Float64(f64::NAN), Value::Float64(f64::NAN));
        assert_eq!(Value::Float64(-0.0), Value::Float64(0.0));
        assert_eq!(
            hash_of(&Value::Float64(-0.0)),
            hash_of(&Value::Float64(0.0))
        );
    }

    #[test]
    fn sql_cmp_returns_none_for_null() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).sql_cmp(&Value::Null), None);
        assert_eq!(
            Value::Int64(1).sql_cmp(&Value::Float64(2.0)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_is_stable_across_variants() {
        let mut vs = [Value::Utf8("a".into()),
            Value::Int64(5),
            Value::Null,
            Value::Boolean(true),
            Value::Date(10)];
        vs.sort();
        assert!(vs[0].is_null());
        assert!(matches!(vs[1], Value::Boolean(_)));
        assert!(matches!(vs[4], Value::Date(_)));
    }

    #[test]
    fn encoded_sizes() {
        assert_eq!(Value::Int64(1).encoded_size(), 8);
        assert_eq!(Value::Utf8("abcd".into()).encoded_size(), 4);
        assert_eq!(Value::Date(1).encoded_size(), 4);
    }
}
