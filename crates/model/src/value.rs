//! Values and value constraints.
//!
//! A *value constraint* on an object type enumerates (or bounds) the possible
//! instances of the type, e.g. `{'x1', 'x2'}` in Fig. 5 of the paper. Its
//! *cardinality* — the number of possible values — is what Patterns 4 and 5
//! compare against frequency-constraint lower bounds.

use std::fmt;

/// A concrete instance value, used both in value constraints and in
/// populations (`orm-population`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A string value such as `'x1'`.
    Str(String),
    /// An integer value.
    Int(i64),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

/// Restricts the possible instances of an object type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueConstraint {
    /// An explicit enumeration, e.g. `{'x1', 'x2'}`.
    Enumeration(Vec<Value>),
    /// An inclusive integer range, e.g. `{1..10}`.
    IntRange {
        /// Lowest admissible value.
        min: i64,
        /// Highest admissible value (inclusive).
        max: i64,
    },
}

impl ValueConstraint {
    /// Build an enumeration constraint, deduplicating values while keeping
    /// first-occurrence order.
    pub fn enumeration<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for v in values {
            let v = v.into();
            if seen.insert(v.clone()) {
                out.push(v);
            }
        }
        ValueConstraint::Enumeration(out)
    }

    /// The number of admissible values. This is the quantity `c` used by
    /// Patterns 4 and 5 of the paper.
    ///
    /// Returns `0` for an empty enumeration or an inverted range — such a
    /// constraint makes the type itself unpopulatable.
    pub fn cardinality(&self) -> u64 {
        match self {
            ValueConstraint::Enumeration(vs) => vs.len() as u64,
            ValueConstraint::IntRange { min, max } => {
                if max < min {
                    0
                } else {
                    (max - min) as u64 + 1
                }
            }
        }
    }

    /// Whether `value` is admitted by this constraint.
    pub fn admits(&self, value: &Value) -> bool {
        match self {
            ValueConstraint::Enumeration(vs) => vs.contains(value),
            ValueConstraint::IntRange { min, max } => match value {
                Value::Int(i) => min <= i && i <= max,
                Value::Str(_) => false,
            },
        }
    }

    /// Iterate over all admissible values.
    ///
    /// Used by the bounded model finder to draw candidate instances for
    /// value-constrained types.
    pub fn iter_values(&self) -> Box<dyn Iterator<Item = Value> + '_> {
        match self {
            ValueConstraint::Enumeration(vs) => Box::new(vs.iter().cloned()),
            ValueConstraint::IntRange { min, max } => Box::new((*min..=*max).map(Value::Int)),
        }
    }

    /// The constraint admitting exactly the values both `self` and `other`
    /// admit. A subtype inherits every value constraint along its
    /// supertype chain, so its effective value set is the intersection —
    /// possibly empty, which makes the type unpopulatable.
    pub fn intersect(&self, other: &ValueConstraint) -> ValueConstraint {
        use ValueConstraint::*;
        match (self, other) {
            (Enumeration(xs), o) => {
                Enumeration(xs.iter().filter(|v| o.admits(v)).cloned().collect())
            }
            (r @ IntRange { .. }, Enumeration(ys)) => {
                Enumeration(ys.iter().filter(|v| r.admits(v)).cloned().collect())
            }
            (IntRange { min: a, max: b }, IntRange { min: c, max: d }) => {
                IntRange { min: *a.max(c), max: *b.min(d) }
            }
        }
    }
}

impl fmt::Display for ValueConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueConstraint::Enumeration(vs) => {
                write!(f, "{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            ValueConstraint::IntRange { min, max } => write!(f, "{{{min}..{max}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_cardinality_counts_distinct_values() {
        let vc = ValueConstraint::enumeration(["x1", "x2", "x1"]);
        assert_eq!(vc.cardinality(), 2);
    }

    #[test]
    fn empty_enumeration_has_zero_cardinality() {
        let vc = ValueConstraint::enumeration(Vec::<Value>::new());
        assert_eq!(vc.cardinality(), 0);
    }

    #[test]
    fn range_cardinality_is_inclusive() {
        let vc = ValueConstraint::IntRange { min: 1, max: 5 };
        assert_eq!(vc.cardinality(), 5);
    }

    #[test]
    fn inverted_range_is_empty() {
        let vc = ValueConstraint::IntRange { min: 5, max: 1 };
        assert_eq!(vc.cardinality(), 0);
        assert!(!vc.admits(&Value::int(3)));
    }

    #[test]
    fn admits_checks_membership() {
        let vc = ValueConstraint::enumeration(["x1", "x2"]);
        assert!(vc.admits(&Value::str("x1")));
        assert!(!vc.admits(&Value::str("x3")));
        assert!(!vc.admits(&Value::int(1)));

        let range = ValueConstraint::IntRange { min: 0, max: 2 };
        assert!(range.admits(&Value::int(0)));
        assert!(range.admits(&Value::int(2)));
        assert!(!range.admits(&Value::int(3)));
        assert!(!range.admits(&Value::str("0")));
    }

    #[test]
    fn iter_values_matches_cardinality() {
        let vc = ValueConstraint::enumeration(["a", "b", "c"]);
        assert_eq!(vc.iter_values().count() as u64, vc.cardinality());
        let range = ValueConstraint::IntRange { min: -1, max: 1 };
        assert_eq!(
            range.iter_values().collect::<Vec<_>>(),
            vec![Value::int(-1), Value::int(0), Value::int(1)]
        );
    }

    #[test]
    fn intersect_enumerations() {
        let a = ValueConstraint::enumeration(["x", "y", "z"]);
        let b = ValueConstraint::enumeration(["y", "z", "w"]);
        assert_eq!(a.intersect(&b).cardinality(), 2);
        let disjoint = ValueConstraint::enumeration(["p", "q"]);
        assert_eq!(a.intersect(&disjoint).cardinality(), 0);
    }

    #[test]
    fn intersect_ranges() {
        let a = ValueConstraint::IntRange { min: 1, max: 10 };
        let b = ValueConstraint::IntRange { min: 5, max: 20 };
        assert_eq!(a.intersect(&b), ValueConstraint::IntRange { min: 5, max: 10 });
        let disjoint = ValueConstraint::IntRange { min: 11, max: 20 };
        assert_eq!(a.intersect(&disjoint).cardinality(), 0);
    }

    #[test]
    fn intersect_mixed() {
        let e = ValueConstraint::enumeration([Value::int(1), Value::int(5), Value::str("x")]);
        let r = ValueConstraint::IntRange { min: 0, max: 3 };
        let i = e.intersect(&r);
        assert_eq!(i, ValueConstraint::Enumeration(vec![Value::int(1)]));
        let j = r.intersect(&e);
        assert_eq!(j, ValueConstraint::Enumeration(vec![Value::int(1)]));
    }

    #[test]
    fn display_formats() {
        let vc = ValueConstraint::enumeration(["x1"]);
        assert_eq!(vc.to_string(), "{'x1'}");
        let range = ValueConstraint::IntRange { min: 1, max: 3 };
        assert_eq!(range.to_string(), "{1..3}");
    }
}
