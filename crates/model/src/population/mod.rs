//! Model-theoretic semantics: concrete populations and the checker that
//! decides whether one is a model of a schema.
//!
//! A [`Population`] assigns a set of instances to every object type and a
//! set of tuples to every (binary) fact type. [`check`] decides whether a
//! population *satisfies* a schema — the formal semantics from
//! \[H89\]/\[BHW91\] that the paper's satisfiability notions are defined
//! against:
//!
//! * **weak (schema) satisfiability** — some population satisfies the
//!   schema (the all-empty population always does for this constraint
//!   language, as the paper's Fig. 1 discussion illustrates);
//! * **concept satisfiability** — a satisfying population populates the
//!   queried object types;
//! * **strong (role) satisfiability** — a satisfying population populates
//!   the queried roles.
//!
//! This is the one population semantics of the workspace. It lives in the
//! metamodel crate so that every engine can certify its witnesses with it:
//! the saturation engine in `orm-dl`, the bounded finder in
//! `orm-reasoner`, and the compiled bulk checker in `orm-population`
//! (which also re-exports this module). The six ring kinds are evaluated
//! in one place, [`ring_witness`], for the checker, the compiled plan and
//! the finder alike.
//!
//! The checker reports precise [`Violation`]s, which makes it usable both
//! as the ground truth for the pattern checkers (see the cross-validation
//! tests) and as a data-validation utility in its own right. Two semantic
//! switches from the paper are configurable via [`CheckOptions`]:
//!
//! * `proper_subtypes` — \[H01\]'s *strict* subset semantics for subtypes,
//!   the premise of Pattern 9;
//! * `implicit_type_exclusion` — ORM's convention that object types are
//!   mutually exclusive unless connected through the subtype graph, the
//!   premise of Pattern 1.

mod check;
mod ring;
mod violation;

pub use check::{check, check_indexed, satisfies, CheckOptions};
pub use ring::ring_witness;
pub use violation::Violation;

use crate::{FactTypeId, ObjectTypeId, RoleId, Schema, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

fn empty_extent() -> &'static BTreeSet<Value> {
    static EMPTY: OnceLock<BTreeSet<Value>> = OnceLock::new();
    EMPTY.get_or_init(BTreeSet::new)
}

/// An interpretation of a schema: instances per object type, tuples per
/// fact type. Instances are plain [`Value`]s so identity is shared across
/// types (as subtyping requires).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Population {
    extents: BTreeMap<ObjectTypeId, BTreeSet<Value>>,
    facts: BTreeMap<FactTypeId, BTreeSet<(Value, Value)>>,
}

impl Population {
    /// The empty population (always a model of any schema in this
    /// constraint language).
    pub fn new() -> Population {
        Population::default()
    }

    /// Add an instance to a type's extent. Idempotent.
    pub fn add_instance(&mut self, ty: ObjectTypeId, value: impl Into<Value>) {
        self.extents.entry(ty).or_default().insert(value.into());
    }

    /// Remove an instance from a type's extent; returns whether it was
    /// present.
    pub fn remove_instance(&mut self, ty: ObjectTypeId, value: &Value) -> bool {
        self.extents.get_mut(&ty).is_some_and(|e| e.remove(value))
    }

    /// Add a tuple to a fact table. Idempotent (fact tables are sets).
    pub fn add_fact(
        &mut self,
        fact: FactTypeId,
        first: impl Into<Value>,
        second: impl Into<Value>,
    ) {
        self.facts.entry(fact).or_default().insert((first.into(), second.into()));
    }

    /// Remove a tuple; returns whether it was present.
    pub fn remove_fact(&mut self, fact: FactTypeId, first: &Value, second: &Value) -> bool {
        self.facts.get_mut(&fact).is_some_and(|t| t.remove(&(first.clone(), second.clone())))
    }

    /// The extent of an object type (empty set if never populated).
    pub fn extent(&self, ty: ObjectTypeId) -> &BTreeSet<Value> {
        self.extents.get(&ty).unwrap_or_else(|| empty_extent())
    }

    /// Iterate over the tuples of a fact type.
    pub fn tuples(&self, fact: FactTypeId) -> impl Iterator<Item = &(Value, Value)> {
        self.facts.get(&fact).into_iter().flatten()
    }

    /// Number of tuples in a fact table.
    pub fn fact_count(&self, fact: FactTypeId) -> usize {
        self.facts.get(&fact).map_or(0, BTreeSet::len)
    }

    /// The population of a role: the projection of its fact table onto the
    /// role's column. This is the set the paper's "role satisfiability"
    /// quantifies over.
    pub fn role_population(&self, schema: &Schema, role: RoleId) -> BTreeSet<Value> {
        self.role_values(schema, role).cloned().collect()
    }

    /// Borrowed projection of a role's fact table onto the role's column —
    /// the non-allocating companion of [`Population::role_population`].
    /// Yields one value **per tuple** (duplicates included) in fact-table
    /// order; collect into a set when projection semantics is needed, or
    /// scan directly when a membership/containment test is enough.
    pub fn role_values<'a>(
        &'a self,
        schema: &Schema,
        role: RoleId,
    ) -> impl Iterator<Item = &'a Value> {
        let r = schema.role(role);
        let position = r.position();
        self.tuples(r.fact_type()).map(move |(a, b)| if position == 0 { a } else { b })
    }

    /// Whether a role has a non-empty population.
    pub fn role_populated(&self, schema: &Schema, role: RoleId) -> bool {
        let r = schema.role(role);
        self.facts.get(&r.fact_type()).is_some_and(|t| !t.is_empty())
    }

    /// Whether a type has a non-empty extent.
    pub fn type_populated(&self, ty: ObjectTypeId) -> bool {
        self.extents.get(&ty).is_some_and(|e| !e.is_empty())
    }

    /// Whether nothing at all is populated.
    pub fn is_empty(&self) -> bool {
        self.extents.values().all(BTreeSet::is_empty) && self.facts.values().all(BTreeSet::is_empty)
    }

    /// Total instance + tuple count (for reporting).
    pub fn size(&self) -> usize {
        self.extents.values().map(BTreeSet::len).sum::<usize>()
            + self.facts.values().map(BTreeSet::len).sum::<usize>()
    }

    /// Render against a schema, with element names resolved.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for (ty, extent) in &self.extents {
            if extent.is_empty() {
                continue;
            }
            let values: Vec<String> = extent.iter().map(Value::to_string).collect();
            out.push_str(&format!(
                "  {} = {{{}}}\n",
                schema.object_type(*ty).name(),
                values.join(", ")
            ));
        }
        for (fact, tuples) in &self.facts {
            if tuples.is_empty() {
                continue;
            }
            let pairs: Vec<String> = tuples.iter().map(|(a, b)| format!("({a}, {b})")).collect();
            out.push_str(&format!(
                "  {} = {{{}}}\n",
                schema.fact_type(*fact).name(),
                pairs.join(", ")
            ));
        }
        if out.is_empty() {
            out.push_str("  (empty population)\n");
        }
        out
    }
}

impl fmt::Display for Population {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Population({} elements)", self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemaBuilder;

    #[test]
    fn extents_are_sets() {
        let mut pop = Population::new();
        let ty = ObjectTypeId::from_raw(0);
        pop.add_instance(ty, "a");
        pop.add_instance(ty, "a");
        assert_eq!(pop.extent(ty).len(), 1);
        assert!(pop.type_populated(ty));
        assert!(pop.remove_instance(ty, &Value::str("a")));
        assert!(!pop.remove_instance(ty, &Value::str("a")));
        assert!(pop.is_empty());
    }

    #[test]
    fn fact_tables_are_sets() {
        let mut pop = Population::new();
        let f = FactTypeId::from_raw(0);
        pop.add_fact(f, "a", "b");
        pop.add_fact(f, "a", "b");
        assert_eq!(pop.fact_count(f), 1);
        assert!(pop.remove_fact(f, &Value::str("a"), &Value::str("b")));
        assert_eq!(pop.fact_count(f), 0);
    }

    #[test]
    fn role_population_projects_columns() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let s = b.finish();
        let [r0, r1] = s.fact_type(f).roles();
        let mut pop = Population::new();
        pop.add_fact(f, "a1", "x1");
        pop.add_fact(f, "a1", "x2");
        assert_eq!(pop.role_population(&s, r0).len(), 1);
        assert_eq!(pop.role_population(&s, r1).len(), 2);
        assert!(pop.role_populated(&s, r0));
    }

    #[test]
    fn render_mentions_names() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("Person").unwrap();
        let f = b.fact_type("knows", a, a).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(a, "ann");
        pop.add_fact(f, "ann", "ann");
        let rendered = pop.render(&s);
        assert!(rendered.contains("Person"));
        assert!(rendered.contains("knows"));
        assert!(Population::new().render(&s).contains("empty"));
    }

    #[test]
    fn size_counts_everything() {
        let mut pop = Population::new();
        pop.add_instance(ObjectTypeId::from_raw(0), "a");
        pop.add_fact(FactTypeId::from_raw(0), "a", "b");
        assert_eq!(pop.size(), 2);
    }
}
