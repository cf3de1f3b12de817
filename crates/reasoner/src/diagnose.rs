//! ORM-level diagnosis: from a bare unsat verdict to the named schema
//! constraints that cause it, verbalized.
//!
//! This is the end of the explanation pipeline (documented start to
//! finish in `docs/EXPLANATIONS.md`):
//!
//! 1. the DL sweep finds the unsatisfiable types and roles
//!    (`Translation::{type,role}_sweep_cx`);
//! 2. each unsat element gets a **minimal unsat core** of DL axioms
//!    (`orm_dl::explain`, cached beside the verdicts);
//! 3. the core's axioms are mapped back to the ORM constructs that
//!    produced them through the provenance table `translate` records
//!    (`Translation::core_origins`);
//! 4. each origin is rendered as one pseudo-natural-language statement
//!    via `orm_syntax::verbalize`.
//!
//! The result is what the paper's interactive scenario actually needs to
//! show a modeler: *"PhdStudent can never be populated because: Each
//! PhdStudent is a Student. Each PhdStudent is a Employee. No instance is
//! more than one of Student, Employee."*
//!
//! Since the MUS-enumeration PR the pipeline goes further: step 2
//! enumerates the **whole family** of minimal cores per element
//! (`Translation::enumerate_unsat_cx`, capped at [`FAMILY_LIMIT`]), so a
//! schema with several independent contradictions behind one element
//! surfaces all of them at once; and the verified hitting-set repairs
//! over that family (`Translation::repairs_for_cx`) are verbalized as
//! ranked *"drop one of: …"* alternatives
//! ([`orm_syntax::verbalize_repair_alternatives`]) — most recently
//! edited culprit first, because in an interactive session the newest
//! constraint is usually the mistake.

use orm_dl::{
    AxiomOrigin, CheckCode, ExecCx, MusEnumeration, MusFamily, Origin, Refutation, RepairSet,
    SaturationEngine, SaturationOutcome, SearchOutcome, Translation, UnsatCore,
};
use orm_model::{Constraint, Element, FactTypeId, ObjectTypeId, RingKinds, RoleId, Schema};
use orm_syntax::{
    verbalize_constraint, verbalize_fact_typing, verbalize_implicit_exclusion,
    verbalize_repair_alternatives, verbalize_ring_declaration, verbalize_subtype,
};
use std::collections::BTreeMap;

/// Per-element cap on enumerated cores ([`Translation::enumerate_unsat_cx`]'s
/// `limit`): real doomed elements carry a handful of independent
/// contradictions (the bench battery averages well under three axioms per
/// core), so eight families is ample headroom while bounding the probe
/// tree on adversarial inputs. A truncated family is reported as such
/// (`Diagnosis::family`'s `truncated` flag).
pub const FAMILY_LIMIT: usize = 8;

/// The schema element a [`Diagnosis`] is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagnosedElement {
    /// An object type that can never be populated.
    Type(ObjectTypeId),
    /// A role that can never be populated.
    Role(RoleId),
}

/// One verified way out of a contradiction family: a ⊆-minimal axiom
/// set hitting every enumerated core, re-proved to restore
/// satisfiability, verbalized at the ORM level.
#[derive(Clone, Debug)]
pub struct Repair {
    /// The underlying verified repair ([`orm_dl::explain::ranked_repairs_cx`]
    /// guarantees: hits all cores, re-proved Sat, no proper subset
    /// suffices), carrying the DL axiom ids and the edit-recency rank key.
    pub set: RepairSet,
    /// The repair's distinct ORM-level origins, verbalized one statement
    /// each (in axiom order) — the constraints to drop *together*.
    pub statements: Vec<String>,
}

/// One unsatisfiable element with its explanation: the minimal DL core,
/// the distinct ORM origins behind it, and one verbalized statement per
/// origin — plus, since the MUS-enumeration PR, the whole core *family*
/// and the ranked verified [`Repair`]s over it.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// The doomed element.
    pub element: DiagnosedElement,
    /// Its display label (type name or role label).
    pub label: String,
    /// The primary (first-found) minimal unsat core ([`orm_dl::explain`]
    /// guarantees) — identical to `family.cores[0]`.
    pub core: UnsatCore,
    /// The primary core's distinct ORM-level origins, verbalized one
    /// statement each (in core order) — identical to `alternatives[0]`.
    /// Axioms added behind the translation's back have no origin and
    /// contribute no statement.
    pub statements: Vec<String>,
    /// Every enumerated minimal core of the element (up to
    /// [`FAMILY_LIMIT`]), each certified sound and pairwise
    /// ⊆-incomparable; `family.complete` says whether the enumeration
    /// provably found them all.
    pub family: MusFamily,
    /// One verbalized statement list per core, in `family.cores` order —
    /// each entry names one independent contradiction.
    pub alternatives: Vec<Vec<String>>,
    /// The verified repairs of the whole family, ranked most recently
    /// edited culprit first.
    pub repairs: Vec<Repair>,
}

impl std::fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "`{}` can never be populated because:", self.label)?;
        for s in &self.statements {
            writeln!(f, "  - {s}")?;
        }
        let qualifier = if self.core.minimal { "minimal, " } else { "" };
        write!(f, "  ({}{} DL axiom(s) in the unsat core)", qualifier, self.core.len())?;
        for (i, alt) in self.alternatives.iter().enumerate().skip(1) {
            write!(f, "\n  and independently (contradiction {} of {}):", i + 1, self.family.len())?;
            for s in alt {
                write!(f, "\n  - {s}")?;
            }
        }
        if self.family.truncated {
            write!(f, "\n  (further contradictions exist beyond the first {})", self.family.len())?;
        }
        let repair_stmts: Vec<Vec<String>> =
            self.repairs.iter().map(|r| r.statements.clone()).collect();
        write!(f, "\n  {}", verbalize_repair_alternatives(&repair_stmts))
    }
}

/// Render one ORM origin as a statement.
fn origin_statement(schema: &Schema, origin: &AxiomOrigin) -> String {
    match origin {
        AxiomOrigin::Subtype { sub, sup } => verbalize_subtype(schema, *sub, *sup),
        AxiomOrigin::ImplicitExclusion { a, b } => verbalize_implicit_exclusion(schema, *a, *b),
        AxiomOrigin::FactTyping { role, .. } => verbalize_fact_typing(schema, *role),
        AxiomOrigin::Constraint(cid) => match schema.constraint(*cid) {
            Some(c) => verbalize_constraint(schema, c),
            None => format!("A since-removed constraint ({cid:?})."),
        },
        AxiomOrigin::TypeExclusion { a, b } => format!(
            "No instance is both {} and {} (added this session).",
            schema.object_type(*a).name(),
            schema.object_type(*b).name()
        ),
        AxiomOrigin::Mandatory { player, roles } => {
            let role_list: Vec<&str> = roles.iter().map(|r| schema.role_label(*r)).collect();
            format!(
                "Each {} must play {} (added this session).",
                schema.object_type(*player).name(),
                role_list.join(" or ")
            )
        }
        AxiomOrigin::RoleSubset { sub, sup } => format!(
            "Whatever populates role {} also populates role {} (added this session).",
            schema.role_label(*sub),
            schema.role_label(*sup)
        ),
        AxiomOrigin::RoleExclusion { a, b } => format!(
            "No instance populates both role {} and role {} (added this session).",
            schema.role_label(*a),
            schema.role_label(*b)
        ),
    }
}

/// Diagnose every unsatisfiable type and role of `schema` through the DL
/// pipeline: translate, sweep, enumerate the minimal-unsat-core *family*
/// per doomed element (up to [`FAMILY_LIMIT`]), map every core to ORM
/// constraints, verbalize, and attach the verified ranked repairs as
/// "drop one of: …" alternatives. Elements whose verdicts are `Sat` or
/// undecided produce no diagnosis — this reports *certified*
/// contradictions only, in sweep order (types first).
///
/// Every sweep verdict, core enumeration, and repair verification
/// inherits `cx`'s budget, deadline, and cancellation token. On an
/// interrupt the pipeline stops cleanly — already-certified diagnoses are
/// returned (each core and repair is individually re-proved, so partial
/// output is still sound), nothing half-proved is cached, and re-running
/// under a richer context finishes the job against warm shards.
///
/// ```
/// use orm_dl::ExecCx;
/// use orm_model::SchemaBuilder;
/// use orm_reasoner::{diagnose_cx, DiagnosedElement};
///
/// // Fig. 1: PhdStudent ⊑ Student ⊓ Employee, with the two exclusive.
/// let mut b = SchemaBuilder::new("fig1");
/// let person = b.entity_type("Person").unwrap();
/// let student = b.entity_type("Student").unwrap();
/// let employee = b.entity_type("Employee").unwrap();
/// let phd = b.entity_type("PhdStudent").unwrap();
/// b.subtype(student, person).unwrap();
/// b.subtype(employee, person).unwrap();
/// b.subtype(phd, student).unwrap();
/// b.subtype(phd, employee).unwrap();
/// b.exclusive_types([student, employee]).unwrap();
/// let schema = b.finish();
///
/// let diagnoses = diagnose_cx(&schema, &ExecCx::with_steps(100_000));
/// assert_eq!(diagnoses.len(), 1);
/// let d = &diagnoses[0];
/// assert_eq!(d.element, DiagnosedElement::Type(phd));
/// assert!(d.core.minimal);
/// // Three statements: the two subtype links into the exclusive pair,
/// // and the exclusion itself.
/// assert_eq!(d.statements.len(), 3);
/// assert!(d.statements.iter().any(|s| s == "Each PhdStudent is a Student."));
/// assert!(d.statements.iter().any(|s| s.contains("more than one of Student, Employee")));
/// // One contradiction only, provably — and three single-constraint
/// // ways out, each re-proved to make PhdStudent satisfiable.
/// assert_eq!(d.family.len(), 1);
/// assert!(d.family.complete);
/// assert_eq!(d.repairs.len(), 3);
/// assert!(d.repairs.iter().all(|r| r.set.verified && r.set.len() == 1));
/// assert!(d.to_string().contains("To repair, drop one of:"));
/// ```
pub fn diagnose_cx(schema: &Schema, cx: &ExecCx) -> Vec<Diagnosis> {
    diagnose_with_cx(schema, &orm_dl::translate(schema), cx)
}

/// [`diagnose_cx`] against an existing translation — the warm-cache
/// variant for interactive sessions: cores are cached beside verdicts in
/// the translation's shards, so re-diagnosing after unrelated edits
/// replays retained entries instead of re-proving.
pub fn diagnose_with_cx(schema: &Schema, translation: &Translation, cx: &ExecCx) -> Vec<Diagnosis> {
    let mut out = Vec::new();
    let mut diagnose_element = |element: DiagnosedElement, label: String| {
        let (query, enumeration) = match element {
            DiagnosedElement::Type(ty) => {
                (translation.type_concept(ty), translation.enumerate_type_cx(ty, cx, FAMILY_LIMIT))
            }
            DiagnosedElement::Role(role) => (
                translation.role_concept(role),
                translation.enumerate_role_cx(role, cx, FAMILY_LIMIT),
            ),
        };
        if let MusEnumeration::Unsat(family) = enumeration {
            let verbalize_core = |core: &UnsatCore| -> Vec<String> {
                translation
                    .core_origins(core)
                    .into_iter()
                    .map(|origin| origin_statement(schema, origin))
                    .collect()
            };
            let alternatives: Vec<Vec<String>> = family.cores.iter().map(verbalize_core).collect();
            let repairs = translation
                .repairs_for_cx(&query, cx, &family)
                .into_iter()
                .map(|set| {
                    let statements = translation
                        .repair_origins(&set)
                        .into_iter()
                        .map(|origin| origin_statement(schema, origin))
                        .collect();
                    Repair { set, statements }
                })
                .collect();
            let core = family.cores[0].clone();
            let statements = alternatives[0].clone();
            out.push(Diagnosis { element, label, core, statements, family, alternatives, repairs });
        }
    };
    for (ty, _) in schema.object_types() {
        if translation.type_satisfiable_cx(ty, cx) == SearchOutcome::Unsat {
            diagnose_element(DiagnosedElement::Type(ty), schema.object_type(ty).name().to_owned());
        }
    }
    for (role, _) in schema.roles() {
        if translation.role_satisfiable_cx(role, cx) == SearchOutcome::Unsat {
            diagnose_element(DiagnosedElement::Role(role), schema.role_label(role).to_owned());
        }
    }
    out
}

/// One unsatisfiable element as decided by the **saturation engine**, with
/// the refuting constraints verbalized. This is the attribution path for
/// verdicts the DL pipeline cannot produce at all — ring incompatibilities,
/// value-starved frequencies, acyclic-plus-mandatory traps — where no DL
/// unsat core exists to map back ([`Refutation::beyond_dl`] marks them).
#[derive(Clone, Debug)]
pub struct SaturationDiagnosis {
    /// The doomed element.
    pub element: DiagnosedElement,
    /// Its display label (type name or role label).
    pub label: String,
    /// The saturation engine's refutation: the origins that killed every
    /// candidate, and whether the argument needed non-DL constructs.
    pub refutation: Refutation,
    /// One verbalized statement per distinct origin, in origin order (ring
    /// origins of one fact type are merged into a single declaration
    /// statement).
    pub statements: Vec<String>,
}

impl std::fmt::Display for SaturationDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "`{}` can never be populated because:", self.label)?;
        for s in &self.statements {
            writeln!(f, "  - {s}")?;
        }
        if self.refutation.beyond_dl {
            write!(f, "  (outside the DL fragment — decided by the saturation engine)")
        } else {
            write!(f, "  (decided by the saturation engine)")
        }
    }
}

/// Render a saturation refutation's origins as statements, one per
/// culprit: the ring constraints of one fact type merge into a single
/// declaration sentence (listed first), every other constraint, subtype
/// link or value-constrained type verbalizes on its own, followed by the
/// [`implicit_rule`] the origin's check relies on.
fn saturation_statements(schema: &Schema, refutation: &Refutation) -> Vec<String> {
    let mut ring_by_fact: BTreeMap<FactTypeId, RingKinds> = BTreeMap::new();
    for e in refutation.origins.iter().flat_map(|o| &o.culprits) {
        if let Element::Constraint(cid) = e {
            if let Some(Constraint::Ring(r)) = schema.constraint(*cid) {
                let entry = ring_by_fact.entry(r.fact_type).or_insert(RingKinds::EMPTY);
                *entry = entry.union(r.kinds);
            }
        }
    }
    let mut out: Vec<String> =
        ring_by_fact.iter().map(|(f, k)| verbalize_ring_declaration(schema, *f, *k)).collect();
    for origin in &refutation.origins {
        for e in &origin.culprits {
            match *e {
                Element::Constraint(cid) => match schema.constraint(cid) {
                    Some(Constraint::Ring(_)) => {}
                    Some(c) => out.push(verbalize_constraint(schema, c)),
                    None => out.push(format!("A since-removed constraint ({cid:?}).")),
                },
                Element::ObjectType(ty) => {
                    let ot = schema.object_type(ty);
                    out.push(match ot.value_constraint() {
                        Some(vc) => format!("The possible values of {} are {}.", ot.name(), vc),
                        None => format!("The effective value set of {} is too small.", ot.name()),
                    });
                }
                Element::Subtype(sub, sup) => out.push(verbalize_subtype(schema, sub, sup)),
                // No unsat-relevant check blames a bare role or fact type.
                Element::Role(_) | Element::FactType(_) => {}
            }
        }
        out.extend(implicit_rule(schema, origin));
    }
    let mut seen = std::collections::BTreeSet::new();
    out.retain(|s| seen.insert(s.clone()));
    out
}

/// The ORM rule behind a check that no schema element spells out: Pattern 1
/// blames subtype links into supertypes that share no ancestor (implicit
/// exclusion), Pattern 9 the links of a subtype loop (proper subtypes).
fn implicit_rule(schema: &Schema, origin: &Origin) -> Option<String> {
    match origin.code {
        CheckCode::P1 => {
            let supers: Vec<ObjectTypeId> = origin
                .culprits
                .iter()
                .filter_map(|e| match e {
                    Element::Subtype(_, sup) => Some(*sup),
                    _ => None,
                })
                .collect();
            Some(match supers[..] {
                [a, b] => verbalize_implicit_exclusion(schema, a, b),
                _ => {
                    let names: Vec<&str> =
                        supers.iter().map(|t| schema.object_type(*t).name()).collect();
                    format!(
                        "{} share no common supertype, so (implicitly) no instance is all of them.",
                        names.join(", ")
                    )
                }
            })
        }
        CheckCode::P9 => {
            Some("Subtypes are proper subsets, so no type on a subtype loop is populated.".into())
        }
        _ => None,
    }
}

/// Diagnose every element the **saturation engine** refutes, under `cx`:
/// one sweep over all object types and roles, each `Unsat` turned into a
/// verbalized [`SaturationDiagnosis`]. Interrupted or undecided queries
/// produce no diagnosis — like [`diagnose_cx`], this reports *certified*
/// refutations only, in sweep order (types first).
///
/// The DL pipeline's [`diagnose_cx`] and this function are complementary:
/// where both engines refute an element, the DL diagnosis carries the
/// minimal-core machinery (families, repairs); where only the saturation
/// engine can decide (`refutation.beyond_dl`), this is the sole source of
/// attribution.
pub fn diagnose_saturation(schema: &Schema, cx: &ExecCx) -> Vec<SaturationDiagnosis> {
    let engine = SaturationEngine::new(schema);
    let mut out = Vec::new();
    for (ty, ot) in schema.object_types() {
        if let SaturationOutcome::Unsat(refutation) = engine.check_type(ty, cx) {
            let statements = saturation_statements(schema, &refutation);
            out.push(SaturationDiagnosis {
                element: DiagnosedElement::Type(ty),
                label: ot.name().to_owned(),
                refutation,
                statements,
            });
        }
    }
    for (role, _) in schema.roles() {
        if let SaturationOutcome::Unsat(refutation) = engine.check_role(role, cx) {
            let statements = saturation_statements(schema, &refutation);
            out.push(SaturationDiagnosis {
                element: DiagnosedElement::Role(role),
                label: schema.role_label(role).to_owned(),
                refutation,
                statements,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::SchemaBuilder;

    const BUDGET: u64 = 200_000;

    #[test]
    fn saturation_diagnosis_names_ring_declaration() {
        let mut b = SchemaBuilder::new("s");
        let e = b.entity_type("Employee").unwrap();
        let f = b
            .fact_type_full("reports_to", (e, Some("r1")), (e, Some("r2")), Some("reports to"))
            .unwrap();
        b.ring(f, [orm_model::RingKind::Acyclic, orm_model::RingKind::Symmetric]).unwrap();
        let s = b.finish();
        let ds = diagnose_saturation(&s, &ExecCx::unlimited());
        // Both roles of the ring fact are doomed; the type itself is fine.
        assert_eq!(ds.len(), 2, "{ds:?}");
        for d in &ds {
            assert!(matches!(d.element, DiagnosedElement::Role(_)));
            assert!(d.refutation.beyond_dl);
            assert_eq!(
                d.statements,
                vec!["*reports to* is declared acyclic and symmetric.".to_owned()]
            );
            assert!(d.to_string().contains("outside the DL fragment"));
        }
    }

    #[test]
    fn saturation_diagnosis_empty_on_clean_schema() {
        let mut b = SchemaBuilder::new("clean");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        b.subtype(student, person).unwrap();
        let s = b.finish();
        assert!(diagnose_saturation(&s, &ExecCx::unlimited()).is_empty());
    }

    #[test]
    fn saturation_diagnosis_interrupt_yields_nothing() {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("W").unwrap();
        let f = b.fact_type("f", w, w).unwrap();
        b.ring(f, [orm_model::RingKind::Acyclic, orm_model::RingKind::Symmetric]).unwrap();
        let s = b.finish();
        let cx = ExecCx::unlimited();
        cx.cancel();
        assert!(diagnose_saturation(&s, &cx).is_empty());
    }

    #[test]
    fn exclusion_mandatory_diagnosed_at_role_level() {
        // Fig. 4a: mandatory r1 + exclusion {r1, r3} dooms r3. The
        // diagnosis must name both constraints (and the fact typing that
        // links them), not merely flag the role.
        let mut b = SchemaBuilder::new("fig4a");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let y = b.entity_type("Y").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, y).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.mandatory(r1).unwrap();
        b.exclusion_roles([r1, r3]).unwrap();
        let s = b.finish();
        let ds = diagnose_cx(&s, &ExecCx::with_steps(BUDGET));
        // Both ends of the doomed fact type f2 are reported (a tuple
        // would populate both), r1 is not.
        assert!(!ds.iter().any(|d| d.element == DiagnosedElement::Role(r1)), "{ds:?}");
        let d = ds
            .iter()
            .find(|d| d.element == DiagnosedElement::Role(r3))
            .expect("r3 must be diagnosed");
        assert!(d.core.minimal);
        assert!(!d.statements.is_empty());
        assert!(
            d.statements.iter().any(|s| s.contains("must")),
            "mandatory constraint missing from {:?}",
            d.statements
        );
        assert!(
            d.statements.iter().any(|s| s.contains("more than one")),
            "exclusion missing from {:?}",
            d.statements
        );
        // Display renders the element and every statement.
        let text = d.to_string();
        assert!(text.contains("can never be populated"));
        assert!(text.contains("minimal"));
    }

    #[test]
    fn uniqueness_frequency_conflict_names_both() {
        // Fig. 10 / Pattern 7: UC (≤1) against FC(2..5) on one role.
        let mut b = SchemaBuilder::new("fig10");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r1 = b.schema().fact_type(f).first();
        b.unique([r1]).unwrap();
        b.frequency([r1], 2, Some(5)).unwrap();
        let s = b.finish();
        let ds = diagnose_cx(&s, &ExecCx::with_steps(BUDGET));
        let d = ds
            .iter()
            .find(|d| d.element == DiagnosedElement::Role(r1))
            .expect("r1 must be diagnosed");
        assert!(
            d.statements.iter().any(|s| s.contains("at most once")),
            "uniqueness missing: {:?}",
            d.statements
        );
        assert!(
            d.statements.iter().any(|s| s.contains("between 2 and 5")),
            "frequency missing: {:?}",
            d.statements
        );
    }

    #[test]
    fn two_independent_contradictions_enumerated_with_repairs() {
        // Fig. 1 (exclusive supertypes) merged with a second independent
        // exclusion cycle on the same Phd type: the diagnosis must carry
        // BOTH contradictions in its family and every verified repair
        // must break both at once.
        let mut b = SchemaBuilder::new("two");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let x = b.entity_type("X").unwrap();
        let y = b.entity_type("Y").unwrap();
        let phd = b.entity_type("Phd").unwrap();
        // One shared root keeps ORM's implicit exclusions out of play, so
        // the two declared exclusions are the only contradiction sources.
        for ty in [student, employee, x, y] {
            b.subtype(ty, person).unwrap();
        }
        for sup in [student, employee, x, y] {
            b.subtype(phd, sup).unwrap();
        }
        b.exclusive_types([student, employee]).unwrap();
        b.exclusive_types([x, y]).unwrap();
        let s = b.finish();
        let ds = diagnose_cx(&s, &ExecCx::with_steps(BUDGET));
        let d = ds
            .iter()
            .find(|d| d.element == DiagnosedElement::Type(phd))
            .expect("Phd must be diagnosed");
        assert_eq!(d.family.len(), 2, "exactly both contradictions expected: {:?}", d.family);
        assert!(d.family.complete);
        assert!(!d.family.truncated);
        // 9 repairs: one subtype-or-exclusion pick per contradiction.
        assert_eq!(d.repairs.len(), 9);
        assert_eq!(d.alternatives.len(), d.family.len());
        assert_eq!(d.core, d.family.cores[0]);
        assert_eq!(d.statements, d.alternatives[0]);
        // Every repair is verified and hits every core in the family.
        assert!(!d.repairs.is_empty());
        for r in &d.repairs {
            assert!(r.set.verified);
            for core in &d.family.cores {
                assert!(
                    core.axioms.iter().any(|a| r.set.axioms.contains(a)),
                    "repair {r:?} misses core {core:?}"
                );
            }
            assert!(!r.statements.is_empty());
        }
        let text = d.to_string();
        assert!(text.contains("and independently (contradiction 2 of"));
        assert!(text.contains("To repair, drop one of:"));
    }

    #[test]
    fn satisfiable_schema_yields_no_diagnoses() {
        let mut b = SchemaBuilder::new("clean");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        b.subtype(student, person).unwrap();
        let s = b.finish();
        assert!(diagnose_cx(&s, &ExecCx::with_steps(BUDGET)).is_empty());
    }

    #[test]
    fn warm_session_diagnosis_matches_cold() {
        // diagnose_with_cx over an edited translation agrees with diagnose
        // over the equivalent rebuilt schema.
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("Phd").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        let schema = b.finish();
        let mut translation = orm_dl::translate(&schema);
        assert!(diagnose_with_cx(&schema, &translation, &ExecCx::with_steps(BUDGET)).is_empty());
        translation.edit().add_type_exclusion(student, employee);
        let warm = diagnose_with_cx(&schema, &translation, &ExecCx::with_steps(BUDGET));
        assert_eq!(warm.len(), 1);
        assert_eq!(warm[0].element, DiagnosedElement::Type(phd));
        assert!(
            warm[0].statements.iter().any(|s| s.contains("added this session")),
            "session-added exclusion should be named: {:?}",
            warm[0].statements
        );
    }
}
