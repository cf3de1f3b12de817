//! End-to-end reproduction of every figure: the `.orm` textual form of each
//! paper example is parsed, validated, and checked against the paper's
//! claims. This is the headline table of EXPERIMENTS.md, as a test.

use orm_core::{fixtures, validate, validate_all, CheckCode, Severity};
use orm_syntax::{parse, print, verbalize};
use orm_tests::steps;
use std::collections::BTreeSet;

/// Each figure, validated from its **builder** fixture.
#[test]
fn all_fixtures_match_paper_claims() {
    for fixture in fixtures::all() {
        let report = validate(&fixture.schema);
        let fired: BTreeSet<CheckCode> = report.findings.iter().map(|f| f.code).collect();
        let expected: BTreeSet<CheckCode> = fixture.expect_codes.iter().copied().collect();
        assert_eq!(fired, expected, "{}: {}", fixture.id, fixture.paper_claim);
    }
}

/// Each figure survives a syntax round trip and still validates the same.
#[test]
fn figures_validate_identically_after_round_trip() {
    for fixture in fixtures::all() {
        let text = print(&fixture.schema);
        let reparsed =
            parse(&text).unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{text}", fixture.id));
        let before = validate(&fixture.schema);
        let after = validate(&reparsed);
        let codes =
            |r: &orm_core::Report| r.findings.iter().map(|f| f.code).collect::<BTreeSet<_>>();
        assert_eq!(codes(&before), codes(&after), "{}", fixture.id);
        // Unsat role *labels* survive the round trip too.
        let labels = |s: &orm_model::Schema, r: &orm_core::Report| {
            r.unsat_roles().iter().map(|x| s.role_label(*x).to_owned()).collect::<BTreeSet<_>>()
        };
        assert_eq!(labels(&fixture.schema, &before), labels(&reparsed, &after), "{}", fixture.id);
    }
}

/// The Fig. 1 narrative, written directly in the schema language.
#[test]
fn fig1_from_text() {
    let schema = parse(
        r#"
        schema fig1 {
          entity Person;
          entity Student subtype-of Person;
          entity Employee subtype-of Person;
          entity PhdStudent subtype-of Student, Employee;
          exclusive { Student, Employee };
        }
        "#,
    )
    .expect("valid text");
    let report = validate(&schema);
    assert!(report.has_unsat());
    let phd = schema.object_type_by_name("PhdStudent").expect("declared");
    assert!(report.unsat_types().contains(&phd));
    // The schema as a whole is still *weakly* satisfiable — the paper's
    // point about Fig. 1 — which the bounded finder certifies.
    let outcome = orm_reasoner::weak_satisfiability(&schema, orm_reasoner::Bounds::default());
    assert!(outcome.is_sat());
}

/// Fig. 15's toggles: disabling the only relevant pattern silences the
/// finding; enabling the formation-rule lints surfaces rule 6 on Fig. 14.
#[test]
fn validator_settings_reproduce_fig15_behaviour() {
    let fig3 = fixtures::fig3();
    let silenced = orm_core::Validator::with_settings(
        orm_core::ValidatorSettings::patterns_only().without(CheckCode::P2),
    );
    assert!(!silenced.validate(&fig3.schema).has_unsat());

    let fig14 = fixtures::fig14();
    let all = validate_all(&fig14.schema);
    assert!(all.by_code(CheckCode::Fr6).count() >= 1, "rule 6 lint must fire on Fig. 14");
    assert!(!all.has_unsat(), "Fig. 14 stays satisfiable");
    assert!(all.by_code(CheckCode::Fr6).all(|f| f.severity == Severity::Guideline));
}

/// Verbalization covers every fixture without panicking and mentions every
/// object type by name (the paper's pseudo-NL promise).
#[test]
fn figures_verbalize_completely() {
    for fixture in fixtures::all() {
        let text = verbalize(&fixture.schema);
        for (_, ot) in fixture.schema.object_types() {
            assert!(text.contains(ot.name()), "{}: verbalization omits {}", fixture.id, ot.name());
        }
    }
}

/// Two independent contradictions over one element, pinned byte for byte:
/// the generator's `multi_contradiction(2)` schema diagnoses to exactly a
/// two-core family, and the rendered `Diagnosis` — culprit statements, the
/// "and independently" section, and all nine ranked repair alternatives —
/// is deterministic down to the exact string. Any drift in enumeration
/// order, verbalization, or repair ranking shows up here first.
#[test]
fn two_contradiction_diagnosis_is_pinned() {
    let (schema, doomed) = orm_gen::multi_contradiction(2);
    let diagnoses = orm_reasoner::diagnose_cx(&schema, &steps(500_000));
    assert_eq!(diagnoses.len(), 1, "exactly the doomed type: {diagnoses:?}");
    let d = &diagnoses[0];
    assert_eq!(d.element, orm_reasoner::DiagnosedElement::Type(doomed));
    assert_eq!(d.family.len(), 2, "both contradictions enumerated");
    assert!(d.family.complete && !d.family.truncated);
    assert_eq!(d.repairs.len(), 9, "3 × 3 culprit choices");
    assert!(d.repairs.iter().all(|r| r.set.verified && r.set.len() == 2));
    let expected = "`Doomed` can never be populated because:\n  \
         - Each Doomed is a A0.\n  \
         - Each Doomed is a B0.\n  \
         - No instance is more than one of A0, B0.\n  \
         (minimal, 3 DL axiom(s) in the unsat core)\n  \
         and independently (contradiction 2 of 2):\n  \
         - Each Doomed is a A1.\n  \
         - Each Doomed is a B1.\n  \
         - No instance is more than one of A1, B1.\n  \
         To repair, drop one of: \
         (1) Each Doomed is a A0. together with No instance is more than one of A1, B1. \
         (2) Each Doomed is a B0. together with No instance is more than one of A1, B1. \
         (3) No instance is more than one of A0, B0. together with No instance is more than one of A1, B1. \
         (4) Each Doomed is a A1. together with No instance is more than one of A0, B0. \
         (5) Each Doomed is a B1. together with No instance is more than one of A0, B0. \
         (6) Each Doomed is a A0. together with Each Doomed is a B1. \
         (7) Each Doomed is a B0. together with Each Doomed is a B1. \
         (8) Each Doomed is a A0. together with Each Doomed is a A1. \
         (9) Each Doomed is a B0. together with Each Doomed is a A1.";
    assert_eq!(format!("{d}"), expected);
}

/// A non-DL refutation verbalized end to end, pinned byte for byte: the
/// saturation engine refutes the roles of an acyclic+symmetric `reports to`
/// fact — a verdict the tableau cannot reach, since its translation drops
/// ring constraints — and the diagnosis names the ring declaration in the
/// paper's pseudo-NL register. Any drift in the verbalizer, the ring-kind
/// enumeration order, or the beyond-DL attribution footer shows up here.
#[test]
fn saturation_ring_diagnosis_is_pinned() {
    let schema = parse(
        r#"
        schema org {
          entity Employee;
          fact reports_to (Employee as r1, Employee as r2) reading "reports to";
          ring reports_to { acyclic, symmetric };
        }
        "#,
    )
    .expect("valid text");
    let cx = orm_dl::ExecCx::unlimited();
    let diagnoses = orm_reasoner::diagnose_saturation(&schema, &cx);
    assert_eq!(diagnoses.len(), 2, "both roles of the doomed ring fact: {diagnoses:?}");
    let expected = "`r1` can never be populated because:\n  \
         - *reports to* is declared acyclic and symmetric.\n  \
         (outside the DL fragment — decided by the saturation engine)";
    assert_eq!(format!("{}", diagnoses[0]), expected);
    // The tableau, blind to the unmapped ring, cannot refute the same role.
    let translation = orm_dl::translate(&schema);
    assert!(!translation.unmapped.is_empty());
    for (role, _) in schema.roles() {
        assert_ne!(
            orm_dl::DlOutcome::from(translation.role_satisfiable_cx(role, &steps(500_000))),
            orm_dl::DlOutcome::Unsat,
            "the tableau refuted {} without the ring",
            schema.role_label(role)
        );
    }
}

/// The appendix algorithms attach explanations; every unsatisfiable finding
/// must name at least one culprit element (except pure propagation).
#[test]
fn unsat_findings_carry_culprits() {
    for fixture in fixtures::all() {
        let report = validate_all(&fixture.schema);
        for finding in &report.findings {
            if finding.severity == Severity::Unsatisfiable && finding.code != CheckCode::E3 {
                assert!(
                    !finding.culprits.is_empty(),
                    "{}: finding without culprits: {}",
                    fixture.id,
                    finding.message
                );
            }
        }
    }
}
