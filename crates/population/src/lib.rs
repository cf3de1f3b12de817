//! # orm-population — bulk conformance checking for ORM populations
//!
//! The population semantics itself — [`Population`], [`check`],
//! [`Violation`], [`CheckOptions`] — lives in [`orm_model::population`],
//! below every engine, so that the saturation engine and the bounded
//! finder certify their witnesses with the same checker. This crate
//! re-exports it unchanged (so every `orm_population::…` path resolves)
//! and adds the data-scale path on top:
//!
//! * [`ColumnarPopulation`] — a population frozen into interned, sorted
//!   id columns and bitsets;
//! * [`CheckPlan`] — a schema's constraints compiled once, certified by a
//!   tableau sweep, then executed over columnar populations. It reports
//!   exactly the violation sequence [`check`] reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod plan;

pub use columnar::{BitSet, ColumnarPopulation};
pub use orm_model::population::*;
pub use plan::CheckPlan;

/// Unit tests of the re-exported checker, one per constraint kind.
#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::{RingKind, RoleSeq, Schema, SchemaBuilder, Value, ValueConstraint};

    fn v(s: &str) -> Value {
        Value::str(s)
    }

    #[test]
    fn empty_population_satisfies_everything() {
        // Weak satisfiability is trivial for this constraint language —
        // the observation behind the paper's Fig. 1 discussion.
        let fixture = orm_fixture();
        let pop = Population::new();
        assert!(satisfies(&fixture, &pop, CheckOptions::default()));
    }

    /// Small schema exercising several constraint kinds.
    fn orm_fixture() -> Schema {
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        b.subtype(student, person).unwrap();
        let code = b.value_type("Code", Some(ValueConstraint::enumeration(["x1", "x2"]))).unwrap();
        let f = b.fact_type_full("has", (student, Some("r1")), (code, Some("r2")), None).unwrap();
        let r1 = b.schema().fact_type(f).first();
        b.unique([r1]).unwrap();
        b.mandatory(r1).unwrap();
        b.finish()
    }

    #[test]
    fn conforming_population_passes() {
        let s = orm_fixture();
        let person = s.object_type_by_name("Person").unwrap();
        let student = s.object_type_by_name("Student").unwrap();
        let code = s.object_type_by_name("Code").unwrap();
        let f = s.fact_type_by_name("has").unwrap();
        let mut pop = Population::new();
        pop.add_instance(person, v("ann"));
        pop.add_instance(person, v("bob")); // proper superset
        pop.add_instance(student, v("ann"));
        pop.add_instance(code, v("x1"));
        pop.add_fact(f, v("ann"), v("x1"));
        assert_eq!(check(&s, &pop, CheckOptions::default()), vec![]);
    }

    #[test]
    fn conformity_violation_detected() {
        let s = orm_fixture();
        let f = s.fact_type_by_name("has").unwrap();
        let mut pop = Population::new();
        // Tuple without the instances being members of the player types.
        pop.add_fact(f, v("ghost"), v("x1"));
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::Conformity { .. })));
    }

    #[test]
    fn value_constraint_violation_detected() {
        let s = orm_fixture();
        let code = s.object_type_by_name("Code").unwrap();
        let mut pop = Population::new();
        pop.add_instance(code, v("nope"));
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::ValueConstraint { .. })));
    }

    #[test]
    fn subtype_subset_violation_detected() {
        let s = orm_fixture();
        let student = s.object_type_by_name("Student").unwrap();
        let mut pop = Population::new();
        pop.add_instance(student, v("ann")); // not a Person
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::SubtypeNotSubset { .. })));
    }

    #[test]
    fn proper_subtype_semantics_configurable() {
        let s = orm_fixture();
        let person = s.object_type_by_name("Person").unwrap();
        let student = s.object_type_by_name("Student").unwrap();
        let code = s.object_type_by_name("Code").unwrap();
        let f = s.fact_type_by_name("has").unwrap();
        let mut pop = Population::new();
        pop.add_instance(person, v("ann"));
        pop.add_instance(student, v("ann")); // equal, non-empty
        pop.add_instance(code, v("x1"));
        pop.add_fact(f, v("ann"), v("x1"));
        let strict = check(&s, &pop, CheckOptions::default());
        assert!(strict.iter().any(|x| matches!(x, Violation::SubtypeNotProper { .. })));
        let permissive = check(&s, &pop, CheckOptions::permissive());
        assert!(permissive.is_empty());
    }

    #[test]
    fn mandatory_violation_detected() {
        let s = orm_fixture();
        let person = s.object_type_by_name("Person").unwrap();
        let student = s.object_type_by_name("Student").unwrap();
        let mut pop = Population::new();
        pop.add_instance(person, v("ann"));
        pop.add_instance(person, v("x"));
        pop.add_instance(student, v("ann")); // ann plays nothing
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::Mandatory { .. })));
    }

    #[test]
    fn uniqueness_violation_detected() {
        let s = orm_fixture();
        let person = s.object_type_by_name("Person").unwrap();
        let student = s.object_type_by_name("Student").unwrap();
        let code = s.object_type_by_name("Code").unwrap();
        let f = s.fact_type_by_name("has").unwrap();
        let mut pop = Population::new();
        for p in ["ann", "pad"] {
            pop.add_instance(person, v(p));
        }
        pop.add_instance(student, v("ann"));
        pop.add_instance(code, v("x1"));
        pop.add_instance(code, v("x2"));
        pop.add_fact(f, v("ann"), v("x1"));
        pop.add_fact(f, v("ann"), v("x2")); // ann twice in unique r1
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::Uniqueness { .. })));
    }

    #[test]
    fn frequency_violations_detected_both_directions() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.frequency([r], 2, Some(2)).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(a, v("a1"));
        for i in 0..3 {
            pop.add_instance(x, Value::int(i));
        }
        pop.add_fact(f, v("a1"), Value::int(0)); // a1 occurs once: too few
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::Frequency { count: 1, .. })));

        pop.add_fact(f, v("a1"), Value::int(1));
        pop.add_fact(f, v("a1"), Value::int(2)); // now three: too many
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::Frequency { count: 3, .. })));
    }

    #[test]
    fn frequency_within_bounds_passes() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.frequency([r], 2, Some(3)).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(a, v("a1"));
        pop.add_instance(x, Value::int(0));
        pop.add_instance(x, Value::int(1));
        pop.add_fact(f, v("a1"), Value::int(0));
        pop.add_fact(f, v("a1"), Value::int(1));
        assert!(satisfies(&s, &pop, CheckOptions::default()));
    }

    #[test]
    fn exclusion_constraint_checked() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.exclusion_roles([r1, r3]).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(a, v("a1"));
        pop.add_instance(x, v("x1"));
        pop.add_fact(f1, v("a1"), v("x1"));
        pop.add_fact(f2, v("a1"), v("x1")); // a1 plays both excluded roles
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::SetComparison { .. })));
    }

    #[test]
    fn subset_constraint_checked() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.subset(RoleSeq::single(r1), RoleSeq::single(r3)).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(a, v("a1"));
        pop.add_instance(x, v("x1"));
        pop.add_fact(f1, v("a1"), v("x1")); // plays r1 but not r3
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|x| matches!(x, Violation::SetComparison { .. })));
        // Add the superset tuple: satisfied.
        pop.add_fact(f2, v("a1"), v("x1"));
        assert!(satisfies(&s, &pop, CheckOptions::default()));
    }

    #[test]
    fn exclusive_types_checked() {
        let mut b = SchemaBuilder::new("s");
        let p = b.entity_type("P").unwrap();
        let a = b.entity_type("A").unwrap();
        let c = b.entity_type("C").unwrap();
        b.subtype(a, p).unwrap();
        b.subtype(c, p).unwrap();
        b.exclusive_types([a, c]).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(p, v("x"));
        pop.add_instance(p, v("pad1"));
        pop.add_instance(p, v("pad2"));
        pop.add_instance(a, v("x"));
        pop.add_instance(c, v("x"));
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|m| matches!(m, Violation::ExclusiveTypes { .. })));
    }

    #[test]
    fn totality_checked() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let p = b.entity_type("P").unwrap();
        let q = b.entity_type("Q").unwrap();
        b.subtype(p, a).unwrap();
        b.subtype(q, a).unwrap();
        b.total_subtypes(a, [p, q]).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(a, v("u"));
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|m| matches!(m, Violation::Totality { .. })));
    }

    #[test]
    fn implicit_exclusion_checked() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let c = b.entity_type("C").unwrap(); // unrelated top-level types
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(a, v("shared"));
        pop.add_instance(c, v("shared"));
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|m| matches!(m, Violation::ImplicitExclusion { .. })));
        assert!(satisfies(&s, &pop, CheckOptions::permissive()));
    }

    #[test]
    fn ring_constraints_checked() {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("W").unwrap();
        let f = b.fact_type("rel", w, w).unwrap();
        b.ring(f, [RingKind::Irreflexive, RingKind::Acyclic]).unwrap();
        let s = b.finish();

        let mut pop = Population::new();
        pop.add_instance(w, v("a"));
        pop.add_fact(f, v("a"), v("a")); // self loop: violates both kinds
        let violations = check(&s, &pop, CheckOptions::default());
        let ring_violations: Vec<_> =
            violations.iter().filter(|m| matches!(m, Violation::Ring { .. })).collect();
        assert_eq!(ring_violations.len(), 2);
    }

    #[test]
    fn ring_acyclic_detects_long_cycle() {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("W").unwrap();
        let f = b.fact_type("rel", w, w).unwrap();
        b.ring(f, [RingKind::Acyclic]).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        for x in ["a", "b", "c"] {
            pop.add_instance(w, v(x));
        }
        pop.add_fact(f, v("a"), v("b"));
        pop.add_fact(f, v("b"), v("c"));
        pop.add_fact(f, v("c"), v("a"));
        let violations = check(&s, &pop, CheckOptions::default());
        assert!(violations.iter().any(|m| matches!(m, Violation::Ring { .. })));
    }

    #[test]
    fn ring_symmetric_requires_reverse() {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("W").unwrap();
        let f = b.fact_type("rel", w, w).unwrap();
        b.ring(f, [RingKind::Symmetric]).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        pop.add_instance(w, v("a"));
        pop.add_instance(w, v("b"));
        pop.add_fact(f, v("a"), v("b"));
        assert!(!satisfies(&s, &pop, CheckOptions::default()));
        pop.add_fact(f, v("b"), v("a"));
        assert!(satisfies(&s, &pop, CheckOptions::default()));
    }

    #[test]
    fn ring_intransitive_checked() {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("W").unwrap();
        let f = b.fact_type("rel", w, w).unwrap();
        b.ring(f, [RingKind::Intransitive]).unwrap();
        let s = b.finish();
        let mut pop = Population::new();
        for x in ["a", "b", "c"] {
            pop.add_instance(w, v(x));
        }
        pop.add_fact(f, v("a"), v("b"));
        pop.add_fact(f, v("b"), v("c"));
        assert!(satisfies(&s, &pop, CheckOptions::default()));
        pop.add_fact(f, v("a"), v("c")); // transitive edge
        assert!(!satisfies(&s, &pop, CheckOptions::default()));
    }
}
