//! Cross-validation of the pattern checkers against the ground-truth
//! semantics — the central *soundness* evidence of this reproduction:
//!
//! * every role/type any pattern flags is genuinely unpopulatable (the
//!   complete bounded model finder refutes it);
//! * "clean" generated schemas trigger nothing and are genuinely strongly
//!   satisfiable;
//! * each fault injector triggers exactly its pattern;
//! * the ring-constraint Table 1 agrees with satisfiability of actual
//!   one-fact schemas, and the population checker's ring-kind evaluator
//!   agrees with the kinds' logical definitions.

use orm_core::ring::euler::Relation;
use orm_core::{validate, validate_all, CheckCode, Severity};
use orm_gen::faults::{inject, FaultKind};
use orm_gen::{generate, generate_clean, GenConfig};
use orm_model::{RingKind, RingKinds, SchemaBuilder};
use orm_population::ring_witness;
use orm_reasoner::{
    find_model, role_satisfiability, strong_satisfiability, type_satisfiability, Bounds, Outcome,
    Target,
};
use orm_tests::tiny_config;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: pattern-flagged roles and types are refuted by the
    /// complete finder (within bounds that suffice for every pattern's
    /// contradiction).
    #[test]
    fn flagged_elements_are_truly_unsatisfiable(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let report = validate(&schema);
        let bounds = Bounds::small();
        for finding in &report.findings {
            prop_assert_eq!(finding.severity, Severity::Unsatisfiable);
            for &role in &finding.unsat_roles {
                let outcome = role_satisfiability(&schema, role, bounds);
                prop_assert!(
                    !outcome.is_sat(),
                    "pattern {:?} flagged role {} but the finder found a model",
                    finding.code,
                    schema.role_label(role)
                );
            }
            for &ty in &finding.unsat_types {
                let outcome = type_satisfiability(&schema, ty, bounds);
                prop_assert!(
                    !outcome.is_sat(),
                    "pattern {:?} flagged type {} but the finder found a model",
                    finding.code,
                    schema.object_type(ty).name()
                );
            }
        }
    }

    /// Joint soundness: when Pattern 5 claims a set of roles can never all
    /// be populated together, a model populating *all* of them must not
    /// exist — even though each may be satisfiable on its own.
    #[test]
    fn joint_groups_are_truly_joint_unsatisfiable(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let report = validate(&schema);
        for group in report.joint_unsat_groups() {
            let targets: Vec<Target> =
                group.iter().map(|r| Target::Role(*r)).collect();
            let outcome = find_model(&schema, &targets, Bounds::small());
            prop_assert!(
                !outcome.is_sat(),
                "joint group {:?} was populated simultaneously",
                group.iter().map(|r| schema.role_label(*r)).collect::<Vec<_>>()
            );
        }
    }

    /// Clean schemas: no check fires (patterns, lints severity unsat, or
    /// extensions).
    #[test]
    fn clean_schemas_have_no_unsat_findings(seed in any::<u64>()) {
        let schema = generate_clean(&GenConfig::small(seed));
        let report = validate_all(&schema);
        prop_assert!(
            !report.has_unsat(),
            "clean schema flagged: {}",
            report.render(&schema)
        );
    }

    /// Clean tiny schemas are genuinely strongly satisfiable, not just
    /// pattern-silent.
    #[test]
    fn clean_tiny_schemas_are_strongly_satisfiable(seed in 0u64..64) {
        let schema = generate_clean(&GenConfig::sized(seed, 8));
        match strong_satisfiability(&schema, Bounds::default()) {
            Outcome::Satisfiable(pop) => {
                // The witness really satisfies the schema.
                let violations = orm_population::check(
                    &schema,
                    &pop,
                    orm_population::CheckOptions::default(),
                );
                prop_assert!(violations.is_empty(), "{violations:?}");
            }
            Outcome::BudgetExhausted => {} // inconclusive, not a failure
            Outcome::UnsatWithinBounds => {
                prop_assert!(false, "clean schema refuted: {}", orm_syntax::print(&schema));
            }
        }
    }

    /// E3 propagation only ever adds elements the finder also refutes.
    #[test]
    fn propagated_findings_are_sound(seed in 0u64..64) {
        let schema = generate(&tiny_config(seed));
        let validator = orm_core::Validator::with_settings(
            orm_core::ValidatorSettings::patterns_only().with_propagation(),
        );
        let report = validator.validate(&schema);
        for finding in report.by_code(CheckCode::E3) {
            for &role in &finding.unsat_roles {
                prop_assert!(
                    !role_satisfiability(&schema, role, Bounds::small()).is_sat(),
                    "E3 flagged satisfiable role {}",
                    schema.role_label(role)
                );
            }
            for &ty in &finding.unsat_types {
                prop_assert!(
                    !type_satisfiability(&schema, ty, Bounds::small()).is_sat(),
                    "E3 flagged satisfiable type {}",
                    schema.object_type(ty).name()
                );
            }
        }
    }
}

/// Every fault injector triggers exactly its target pattern on top of a
/// clean base schema.
#[test]
fn fault_injectors_trigger_their_patterns() {
    let base = generate_clean(&GenConfig::small(11));
    assert!(!validate(&base).has_unsat());
    for (i, kind) in FaultKind::ALL.iter().enumerate() {
        let faulty = inject(&base, *kind, i);
        let report = validate(&faulty);
        let expected = match kind {
            FaultKind::P1 => CheckCode::P1,
            FaultKind::P2 => CheckCode::P2,
            FaultKind::P3 => CheckCode::P3,
            FaultKind::P4 => CheckCode::P4,
            FaultKind::P5 => CheckCode::P5,
            FaultKind::P6 => CheckCode::P6,
            FaultKind::P7 => CheckCode::P7,
            FaultKind::P8 => CheckCode::P8,
            FaultKind::P9 => CheckCode::P9,
            // The beyond-DL kinds are not in ALL: their dooms live outside
            // the pattern checks and are pinned by the saturation suites.
            FaultKind::E5Trap | FaultKind::RingSplit | FaultKind::SpanFreq => {
                unreachable!("not a member of FaultKind::ALL")
            }
        };
        assert!(
            report.by_code(expected).count() >= 1,
            "{kind:?} did not trigger {expected:?}; report: {}",
            report.render(&faulty)
        );
    }
}

/// Table 1 ground truth: a ring-kind combination is compatible iff a
/// one-fact schema constrained by it is strongly satisfiable.
#[test]
fn ring_table_agrees_with_model_finding() {
    for kinds in RingKinds::all_subsets() {
        if kinds.is_empty() {
            continue;
        }
        let mut b = SchemaBuilder::new("ring_probe");
        let t = b.entity_type("T").expect("fresh");
        let f = b.fact_type("rel", t, t).expect("fresh");
        b.ring(f, kinds.iter()).expect("compatible players");
        let schema = b.finish();
        let expected = orm_core::ring::table::compatible(kinds);
        // Two-element domains decide ring compatibility exactly (see
        // orm-core::ring), so the small bounds are not just faster but
        // precisely sufficient.
        let outcome = strong_satisfiability(&schema, Bounds::small());
        assert_eq!(
            outcome.is_sat(),
            expected,
            "ring table disagrees with the model finder on {kinds}"
        );
    }
}

/// The shared ring-kind evaluator agrees with the logical definition of
/// every kind (`Relation::satisfies`, the reference behind Table 1) on
/// every relation over one to three elements.
#[test]
fn ring_witness_agrees_with_the_reference_semantics() {
    for n in 1..=3 {
        for relation in Relation::enumerate(n) {
            let tuples: Vec<(usize, usize)> = (0..n)
                .flat_map(|x| (0..n).map(move |y| (x, y)))
                .filter(|&(x, y)| relation.holds(x, y))
                .collect();
            for kind in RingKind::ALL {
                assert_eq!(
                    ring_witness(kind, &tuples, |x| x).is_none(),
                    relation.satisfies(kind),
                    "{kind} on {tuples:?}"
                );
            }
        }
    }
}

/// The paper's three satisfiability notions nest strictly: role ⟹ concept
/// ⟹ schema satisfiability (demonstrated on Fig. 1, which separates them).
#[test]
fn satisfiability_notions_nest() {
    let fixture = orm_core::fixtures::fig1();
    let schema = &fixture.schema;
    // Weak: the empty population works.
    assert!(orm_reasoner::weak_satisfiability(schema, Bounds::default()).is_sat());
    // Concept: PhdStudent can never be populated.
    let all_types: Vec<Target> = schema.object_types().map(|(t, _)| Target::Type(t)).collect();
    assert!(!find_model(schema, &all_types, Bounds::default()).is_sat());
}
