//! Constraint violations found while checking a population.

use crate::{ConstraintId, ObjectTypeId, RingKind, RoleId, Schema, Value};
use std::fmt;

/// One way a population fails to satisfy a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A fact tuple's value is not a member of the role player's extent.
    Conformity {
        /// The role whose column holds the stray value.
        role: RoleId,
        /// The value.
        value: Value,
        /// The player type it should belong to.
        player: ObjectTypeId,
    },
    /// A type extent contains a value its value constraint does not admit.
    ValueConstraint {
        /// The constrained type.
        ty: ObjectTypeId,
        /// The inadmissible value.
        value: Value,
    },
    /// A subtype instance missing from the supertype extent.
    SubtypeNotSubset {
        /// The subtype.
        sub: ObjectTypeId,
        /// The supertype.
        sup: ObjectTypeId,
        /// The offending value.
        value: Value,
    },
    /// Strict-subset semantics: a non-empty subtype population equals its
    /// supertype's.
    SubtypeNotProper {
        /// The subtype.
        sub: ObjectTypeId,
        /// The supertype.
        sup: ObjectTypeId,
    },
    /// ORM's implicit exclusion: two unrelated types share an instance.
    ImplicitExclusion {
        /// First type.
        a: ObjectTypeId,
        /// Second type.
        b: ObjectTypeId,
        /// The shared value.
        value: Value,
    },
    /// An instance of the player does not play any covered role.
    Mandatory {
        /// The violated constraint.
        constraint: ConstraintId,
        /// The non-playing instance.
        value: Value,
    },
    /// A combination occurs more than once under a uniqueness constraint.
    Uniqueness {
        /// The violated constraint.
        constraint: ConstraintId,
        /// The repeated combination.
        combo: Vec<Value>,
        /// How often it occurs.
        count: u32,
    },
    /// A combination occurs outside the frequency bounds.
    Frequency {
        /// The violated constraint.
        constraint: ConstraintId,
        /// The offending combination.
        combo: Vec<Value>,
        /// How often it occurs.
        count: u32,
        /// Required lower bound.
        min: u32,
        /// Required upper bound, if any.
        max: Option<u32>,
    },
    /// A subset/equality/exclusion constraint does not hold.
    SetComparison {
        /// The violated constraint.
        constraint: ConstraintId,
        /// Human-readable witness.
        detail: String,
    },
    /// Two exclusive types share an instance.
    ExclusiveTypes {
        /// The violated constraint.
        constraint: ConstraintId,
        /// The shared value.
        value: Value,
    },
    /// A supertype instance not covered by any subtype.
    Totality {
        /// The violated constraint.
        constraint: ConstraintId,
        /// The uncovered value.
        value: Value,
    },
    /// A ring constraint kind does not hold on the fact table.
    Ring {
        /// The violated constraint.
        constraint: ConstraintId,
        /// Which kind failed.
        kind: RingKind,
        /// Human-readable witness.
        witness: String,
    },
}

impl Violation {
    /// Render with names resolved against `schema`.
    pub fn render(&self, schema: &Schema) -> String {
        match self {
            Violation::Conformity { role, value, player } => format!(
                "value {value} in role `{}` is not an instance of `{}`",
                schema.role_label(*role),
                schema.object_type(*player).name()
            ),
            Violation::ValueConstraint { ty, value } => format!(
                "value {value} is not admitted by the value constraint on `{}`",
                schema.object_type(*ty).name()
            ),
            Violation::SubtypeNotSubset { sub, sup, value } => format!(
                "{value} is a `{}` but not a `{}`",
                schema.object_type(*sub).name(),
                schema.object_type(*sup).name()
            ),
            Violation::SubtypeNotProper { sub, sup } => format!(
                "population of subtype `{}` equals its supertype `{}` (strict subset required)",
                schema.object_type(*sub).name(),
                schema.object_type(*sup).name()
            ),
            Violation::ImplicitExclusion { a, b, value } => format!(
                "{value} belongs to both `{}` and `{}`, which share no common supertype",
                schema.object_type(*a).name(),
                schema.object_type(*b).name()
            ),
            Violation::Mandatory { constraint, value } => {
                format!("{value} does not play the mandatory role(s) of {constraint}")
            }
            Violation::Uniqueness { constraint, combo, count } => {
                format!("combination {combo:?} occurs {count} times under uniqueness {constraint}")
            }
            Violation::Frequency { constraint, combo, count, min, max } => format!(
                "combination {combo:?} occurs {count} times, outside FC({min}-{}) of {constraint}",
                max.map_or("∞".to_owned(), |m| m.to_string())
            ),
            Violation::SetComparison { constraint, detail } => {
                format!("set-comparison {constraint} violated: {detail}")
            }
            Violation::ExclusiveTypes { constraint, value } => {
                format!("{value} is shared by the exclusive types of {constraint}")
            }
            Violation::Totality { constraint, value } => {
                format!("{value} is not covered by any subtype required by {constraint}")
            }
            Violation::Ring { constraint, kind, witness } => {
                format!("ring kind `{kind}` of {constraint} violated: {witness}")
            }
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemaBuilder;

    #[test]
    fn render_resolves_names() {
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        b.subtype(student, person).unwrap();
        let s = b.finish();
        let v = Violation::SubtypeNotSubset { sub: student, sup: person, value: Value::str("ann") };
        let rendered = v.render(&s);
        assert!(rendered.contains("Student"));
        assert!(rendered.contains("Person"));
        assert!(rendered.contains("ann"));
    }
}
