//! Object types (entity types and value types).

use crate::value::ValueConstraint;

/// Whether an object type is an entity type or a (lexical) value type.
///
/// The distinction does not affect the unsatisfiability patterns themselves —
/// the paper treats both uniformly — but it matters for verbalization and for
/// which types may carry value constraints in idiomatic ORM diagrams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectTypeKind {
    /// A non-lexical entity type such as `Person`.
    Entity,
    /// A lexical value type such as `EmpNr`; typically carries a value
    /// constraint.
    Value,
}

/// An object type: a named concept that can play roles in fact types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectType {
    pub(crate) name: String,
    pub(crate) kind: ObjectTypeKind,
    pub(crate) value_constraint: Option<ValueConstraint>,
}

impl ObjectType {
    /// The unique name of the type within its schema.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entity or value type.
    pub fn kind(&self) -> ObjectTypeKind {
        self.kind
    }

    /// The value constraint restricting this type's population, if any.
    pub fn value_constraint(&self) -> Option<&ValueConstraint> {
        self.value_constraint.as_ref()
    }

    /// The number of possible instances as bounded by the value constraint:
    /// `None` means unbounded (no value constraint).
    pub fn value_cardinality(&self) -> Option<u64> {
        self.value_constraint.as_ref().map(ValueConstraint::cardinality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueConstraint;

    #[test]
    fn accessors() {
        let ot = ObjectType {
            name: "EmpNr".into(),
            kind: ObjectTypeKind::Value,
            value_constraint: Some(ValueConstraint::enumeration(["x1", "x2"])),
        };
        assert_eq!(ot.name(), "EmpNr");
        assert_eq!(ot.kind(), ObjectTypeKind::Value);
        assert_eq!(ot.value_cardinality(), Some(2));
    }

    #[test]
    fn unconstrained_type_has_no_cardinality() {
        let ot = ObjectType {
            name: "Person".into(),
            kind: ObjectTypeKind::Entity,
            value_constraint: None,
        };
        assert_eq!(ot.value_cardinality(), None);
        assert!(ot.value_constraint().is_none());
    }
}
