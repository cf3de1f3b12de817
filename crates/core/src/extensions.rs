//! Extension checks from the paper's conclusion (§5).
//!
//! The paper closes by noting the nine patterns are not complete and
//! sketches the kind of additions it has in mind — "e.g., one could demand
//! that for irreflexive roles at least 2 different values need to be
//! present". This module implements:
//!
//! * **E1** — a value constraint admitting zero values makes its type (and
//!   every role the type plays) unpopulatable;
//! * **E2** — the paper's own example: a ring constraint implying
//!   irreflexivity needs at least two distinct player values;
//! * **E3** — *unsatisfiability propagation* ([`propagate`]): closing the
//!   set of doomed roles/types under the structural consequences of
//!   emptiness, so one root cause surfaces all its downstream victims. The
//!   closure itself is [`crate::doom::close`], which the saturation engine
//!   in `orm_dl` shares;
//! * **E4** — a subset or equality constraint whose argument roles are
//!   played by types that can never share instances (no common supertype —
//!   ORM's implicit type exclusion): the ⊆-smaller population is forced
//!   empty. This contradiction class slips through all nine patterns; this
//!   reproduction's cross-validation against the complete reasoners
//!   surfaced it (see EXPERIMENTS.md).

use crate::diagnostics::{CheckCode, Finding, Severity};
use crate::doom::close;
use crate::patterns::{effective_value_cardinality, Check, Trigger};
use crate::ring::ctl::Unbounded;
use crate::ring::euler::implied_closure;
use orm_model::{ConstraintKind, Element, ObjectTypeId, RingKind, RoleId, Schema, SchemaIndex};
use std::collections::BTreeSet;

/// E1: a type whose (effective) value constraint admits no values.
pub struct E1;

impl Check for E1 {
    fn code(&self) -> CheckCode {
        CheckCode::E1
    }

    fn triggers(&self) -> &'static [Trigger] {
        &[Trigger::Values, Trigger::Subtyping, Trigger::Structure]
    }

    fn run(&self, schema: &Schema, idx: &SchemaIndex, out: &mut Vec<Finding>) {
        for (ty, ot) in schema.object_types() {
            // The effective value set is the intersection of all value
            // constraints along the supertype chain; empty ⇒ unpopulatable.
            let Some((card, _)) = effective_value_cardinality(schema, idx, ty) else {
                continue;
            };
            if card > 0 {
                continue;
            }
            // Fire at the most general type where emptiness first appears;
            // subtypes below it are E3's (propagation's) business.
            let inherited = idx
                .direct_supers(ty)
                .iter()
                .any(|sup| matches!(effective_value_cardinality(schema, idx, *sup), Some((0, _))));
            if inherited {
                continue;
            }
            let culprits: Vec<Element> = idx
                .supers_refl(ty)
                .into_iter()
                .filter(|t| schema.object_type(*t).value_constraint().is_some())
                .map(Element::ObjectType)
                .collect();
            out.push(Finding {
                code: CheckCode::E1,
                severity: Severity::Unsatisfiable,
                unsat_roles: idx.roles_of_type[ty.index()].clone(),
                joint_unsat_roles: Vec::new(),
                unsat_types: vec![ty],
                culprits,
                message: format!(
                    "the value constraints applying to `{}` admit no common value, so \
                     the type can never be populated",
                    ot.name()
                ),
            });
        }
    }
}

/// E2: ring kinds implying irreflexivity need at least two distinct values
/// of the (common) player: a single-value player admits only the self-loop,
/// which irreflexivity forbids.
pub struct E2;

impl Check for E2 {
    fn code(&self) -> CheckCode {
        CheckCode::E2
    }

    fn triggers(&self) -> &'static [Trigger] {
        &[Trigger::Constraint(ConstraintKind::Ring), Trigger::Values, Trigger::Subtyping]
    }

    fn run(&self, schema: &Schema, idx: &SchemaIndex, out: &mut Vec<Finding>) {
        for (fact, kinds, cids) in idx.ring_kinds_by_fact(schema) {
            if !implied_closure(kinds).contains(RingKind::Irreflexive) {
                continue;
            }
            let ft = schema.fact_type(fact);
            // Both columns draw from every common supertype's population;
            // the tightest bound over either player's chain applies to the
            // pairs only via the *common* ancestors, so bound both players
            // and take what they share. For identical players this is just
            // the player's own effective bound.
            let p0 = schema.player(ft.first());
            let p1 = schema.player(ft.second());
            let common: BTreeSet<ObjectTypeId> =
                idx.supers_refl(p0).intersection(&idx.supers_refl(p1)).copied().collect();
            let mut bound: Option<(u64, ObjectTypeId)> = None;
            for t in common {
                if let Some((card, holder)) = effective_value_cardinality(schema, idx, t) {
                    bound = Some(match bound {
                        Some((b, _)) if b <= card => bound.unwrap(),
                        _ => (card, holder),
                    });
                }
            }
            let Some((card, holder)) = bound else { continue };
            if card >= 2 {
                continue;
            }
            let mut culprits: Vec<Element> = cids.iter().map(|c| Element::Constraint(*c)).collect();
            culprits.push(Element::ObjectType(holder));
            out.push(Finding {
                code: CheckCode::E2,
                severity: Severity::Unsatisfiable,
                unsat_roles: vec![ft.first(), ft.second()],
                joint_unsat_roles: Vec::new(),
                unsat_types: vec![],
                culprits,
                message: format!(
                    "the ring constraints {kinds} on `{}` imply irreflexivity, which \
                     needs at least 2 distinct values, but `{}` admits only {}",
                    ft.name(),
                    schema.object_type(holder).name(),
                    card
                ),
            });
        }
    }
}

/// E4: subset/equality constraints whose corresponding argument roles have
/// players that can never overlap (implicit type exclusion): the sub side
/// (both sides, for equality) can never be populated. An equality compares
/// every pair of its arguments, since overlap is not transitive.
pub struct E4;

impl Check for E4 {
    fn code(&self) -> CheckCode {
        CheckCode::E4
    }

    fn triggers(&self) -> &'static [Trigger] {
        &[Trigger::Constraint(ConstraintKind::SetComparison), Trigger::Subtyping]
    }

    fn run(&self, schema: &Schema, idx: &SchemaIndex, out: &mut Vec<Finding>) {
        use orm_model::SetComparisonKind;
        for (cid, c) in schema.constraints() {
            let orm_model::Constraint::SetComparison(sc) = c else { continue };
            let (pairs, both_sides_die): (Vec<(usize, usize)>, bool) = match sc.kind {
                SetComparisonKind::Subset => (vec![(0, 1)], false),
                // Equal populations pairwise: any two arguments may clash.
                SetComparisonKind::Equality => (
                    (0..sc.args.len())
                        .flat_map(|i| (i + 1..sc.args.len()).map(move |j| (i, j)))
                        .collect(),
                    true,
                ),
                SetComparisonKind::Exclusion => continue,
            };
            for (i, j) in pairs {
                let a = &sc.args[i];
                let b = &sc.args[j];
                let incompatible_at = a
                    .roles()
                    .iter()
                    .copied()
                    .zip(b.roles().iter().copied())
                    .find(|(ra, rb)| !idx.may_overlap(schema.player(*ra), schema.player(*rb)));
                let Some((ra, rb)) = incompatible_at else { continue };
                let mut dead: BTreeSet<RoleId> = BTreeSet::new();
                for r in a.roles() {
                    let ft = schema.fact_type(schema.role(*r).fact_type());
                    dead.insert(ft.first());
                    dead.insert(ft.second());
                }
                if both_sides_die {
                    for r in b.roles() {
                        let ft = schema.fact_type(schema.role(*r).fact_type());
                        dead.insert(ft.first());
                        dead.insert(ft.second());
                    }
                }
                let names: Vec<&str> = dead.iter().map(|r| schema.role_label(*r)).collect();
                out.push(Finding {
                    code: CheckCode::E4,
                    severity: Severity::Unsatisfiable,
                    unsat_roles: dead.into_iter().collect(),
                    joint_unsat_roles: Vec::new(),
                    unsat_types: vec![],
                    culprits: vec![Element::Constraint(cid)],
                    message: format!(
                        "the {} constraint relates role `{}` (played by `{}`) to role \
                         `{}` (played by `{}`), but those players can never share \
                         instances; the role(s) {} cannot be populated",
                        sc.kind,
                        schema.role_label(ra),
                        schema.object_type(schema.player(ra)).name(),
                        schema.role_label(rb),
                        schema.object_type(schema.player(rb)).name(),
                        names.join(", ")
                    ),
                });
            }
        }
    }
}

/// E5: a simple mandatory constraint on a role of an **acyclic** ring fact
/// type, where the co-role's player is the same type as (or a subtype of)
/// the mandatory player.
///
/// ORM populations are finite. The mandatory constraint gives every
/// instance of the player an edge in the ring relation; because the edge's
/// other endpoint belongs to the same population, it too needs an edge, and
/// a finite set in which every element has an outgoing edge contains a
/// cycle — which acyclicity forbids. The player (and the fact's roles) can
/// never be populated. This is an *infinity axiom* collapsing under finite
/// semantics; cross-validation against the bounded model finder surfaced
/// it (see EXPERIMENTS.md).
pub struct E5;

impl Check for E5 {
    fn code(&self) -> CheckCode {
        CheckCode::E5
    }

    fn triggers(&self) -> &'static [Trigger] {
        &[
            Trigger::Constraint(ConstraintKind::Ring),
            Trigger::Constraint(ConstraintKind::Mandatory),
            Trigger::Subtyping,
        ]
    }

    fn run(&self, schema: &Schema, idx: &SchemaIndex, out: &mut Vec<Finding>) {
        for (fact, kinds, cids) in idx.ring_kinds_by_fact(schema) {
            if !kinds.contains(RingKind::Acyclic) {
                continue;
            }
            let ft = schema.fact_type(fact);
            for role in ft.roles() {
                let Some(mand) = idx.mandatory_on(role) else { continue };
                let player = schema.player(role);
                let co_player = schema.player(schema.co_role(role));
                // The chain only stays trapped inside the mandatory
                // population when the partners come from it too.
                if !idx.is_subtype_of_or_eq(co_player, player) {
                    continue;
                }
                let mut culprits: Vec<Element> =
                    cids.iter().map(|c| Element::Constraint(*c)).collect();
                culprits.push(Element::Constraint(mand));
                out.push(Finding {
                    code: CheckCode::E5,
                    severity: Severity::Unsatisfiable,
                    unsat_roles: vec![ft.first(), ft.second()],
                    joint_unsat_roles: Vec::new(),
                    unsat_types: vec![player],
                    culprits,
                    message: format!(
                        "every `{}` must play `{}` of the acyclic fact type `{}`, but \
                         in a finite population that forces a cycle; the type can \
                         never be populated",
                        schema.object_type(player).name(),
                        schema.role_label(role),
                        ft.name()
                    ),
                });
            }
        }
    }
}

/// E3: the roles and types the doom closure ([`crate::doom::close`]) adds
/// to the unsatisfiable roles/types of `seed` — the structural consequences
/// of emptiness listed there (subtypes, played roles and co-roles of empty
/// elements, all-empty mandatory alternatives and totality coverings,
/// subset/equality paths into empty roles).
///
/// Run by the validator after all other enabled checks; the returned
/// finding carries code [`CheckCode::E3`]. The saturation engine in
/// `orm_dl` refutes with the same closure.
pub fn propagate(schema: &Schema, idx: &SchemaIndex, seed: &[Finding]) -> Vec<Finding> {
    let doom =
        close(schema, idx, seed, &mut Unbounded).expect("Unbounded control never interrupts");
    let mut seeded: BTreeSet<Element> = BTreeSet::new();
    for f in seed.iter().filter(|f| f.severity == Severity::Unsatisfiable) {
        seeded.extend(f.unsat_roles.iter().map(|r| Element::Role(*r)));
        seeded.extend(f.unsat_types.iter().map(|t| Element::ObjectType(*t)));
    }
    let new_roles: Vec<RoleId> =
        doom.roles().filter(|r| !seeded.contains(&Element::Role(*r))).collect();
    let new_types: Vec<ObjectTypeId> =
        doom.types().filter(|t| !seeded.contains(&Element::ObjectType(*t))).collect();
    if new_roles.is_empty() && new_types.is_empty() {
        return Vec::new();
    }
    let role_names: Vec<&str> = new_roles.iter().map(|r| schema.role_label(*r)).collect();
    let type_names: Vec<&str> = new_types.iter().map(|t| schema.object_type(*t).name()).collect();
    let mut parts = Vec::new();
    if !role_names.is_empty() {
        parts.push(format!("role(s) {}", role_names.join(", ")));
    }
    if !type_names.is_empty() {
        parts.push(format!("type(s) {}", type_names.join(", ")));
    }
    vec![Finding {
        code: CheckCode::E3,
        severity: Severity::Unsatisfiable,
        unsat_roles: new_roles,
        joint_unsat_roles: Vec::new(),
        unsat_types: new_types,
        culprits: vec![],
        message: format!(
            "{} are unpopulatable as a consequence of the unsatisfiabilities above",
            parts.join(" and ")
        ),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::{RoleSeq, SchemaBuilder, ValueConstraint};

    fn run_check(check: &dyn Check, schema: &Schema) -> Vec<Finding> {
        let mut out = Vec::new();
        check.run(schema, &schema.index(), &mut out);
        out
    }

    #[test]
    fn e1_flags_empty_enumeration() {
        let mut b = SchemaBuilder::new("s");
        let t = b.value_type("Empty", Some(ValueConstraint::Enumeration(vec![]))).unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", t, x).unwrap();
        let s = b.finish();
        let findings = run_check(&E1, &s);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].unsat_types, vec![t]);
        assert_eq!(findings[0].unsat_roles, vec![s.fact_type(f).first()]);
    }

    #[test]
    fn e1_flags_inverted_range() {
        let mut b = SchemaBuilder::new("s");
        b.value_type("Bad", Some(ValueConstraint::IntRange { min: 5, max: 1 })).unwrap();
        let s = b.finish();
        assert_eq!(run_check(&E1, &s).len(), 1);
    }

    #[test]
    fn e1_silent_on_nonempty() {
        let mut b = SchemaBuilder::new("s");
        b.value_type("Ok", Some(ValueConstraint::enumeration(["v"]))).unwrap();
        b.entity_type("Unbounded").unwrap();
        let s = b.finish();
        assert!(run_check(&E1, &s).is_empty());
    }

    #[test]
    fn e2_fires_on_single_value_irreflexive_ring() {
        // The paper's §5 example: an irreflexive role over a one-value type.
        let mut b = SchemaBuilder::new("s");
        let w = b.value_type("W", Some(ValueConstraint::enumeration(["only"]))).unwrap();
        let f = b.fact_type("sister_of", w, w).unwrap();
        b.ring(f, [RingKind::Irreflexive]).unwrap();
        let s = b.finish();
        let findings = run_check(&E2, &s);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].unsat_roles.len(), 2);
    }

    #[test]
    fn e2_fires_on_implied_irreflexivity() {
        // acyclic implies irreflexive through the closure.
        let mut b = SchemaBuilder::new("s");
        let w = b.value_type("W", Some(ValueConstraint::enumeration(["only"]))).unwrap();
        let f = b.fact_type("parent_of", w, w).unwrap();
        b.ring(f, [RingKind::Acyclic]).unwrap();
        let s = b.finish();
        assert_eq!(run_check(&E2, &s).len(), 1);
    }

    #[test]
    fn e2_silent_with_two_values() {
        let mut b = SchemaBuilder::new("s");
        let w = b.value_type("W", Some(ValueConstraint::enumeration(["a", "b"]))).unwrap();
        let f = b.fact_type("sister_of", w, w).unwrap();
        b.ring(f, [RingKind::Irreflexive]).unwrap();
        let s = b.finish();
        assert!(run_check(&E2, &s).is_empty());
    }

    #[test]
    fn e2_silent_on_symmetric_only() {
        // symmetric does not imply irreflexivity; a single self-loop is fine.
        let mut b = SchemaBuilder::new("s");
        let w = b.value_type("W", Some(ValueConstraint::enumeration(["only"]))).unwrap();
        let f = b.fact_type("knows", w, w).unwrap();
        b.ring(f, [RingKind::Symmetric]).unwrap();
        let s = b.finish();
        assert!(run_check(&E2, &s).is_empty());
    }

    fn seed(types: Vec<ObjectTypeId>, roles: Vec<RoleId>) -> Vec<Finding> {
        vec![Finding {
            code: CheckCode::P2,
            severity: Severity::Unsatisfiable,
            unsat_roles: roles,
            joint_unsat_roles: Vec::new(),
            unsat_types: types,
            culprits: vec![],
            message: "seed".into(),
        }]
    }

    #[test]
    fn propagation_to_subtypes_and_roles() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let sub = b.entity_type("Sub").unwrap();
        b.subtype(sub, a).unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", sub, x).unwrap();
        let s = b.finish();
        let idx = s.index();
        let findings = propagate(&s, &idx, &seed(vec![a], vec![]));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].unsat_types.contains(&sub));
        // Sub's role and, transitively, its co-role die.
        assert!(findings[0].unsat_roles.contains(&s.fact_type(f).first()));
        assert!(findings[0].unsat_roles.contains(&s.fact_type(f).second()));
    }

    #[test]
    fn propagation_through_mandatory() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.mandatory(r).unwrap();
        let s = b.finish();
        let idx = s.index();
        // Seed: the role A must play is dead → A is dead.
        let findings = propagate(&s, &idx, &seed(vec![], vec![r]));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].unsat_types.contains(&a));
    }

    #[test]
    fn propagation_through_subset_path() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.subset(RoleSeq::single(r1), RoleSeq::single(r3)).unwrap();
        let s = b.finish();
        let idx = s.index();
        // r3 dead → r1 (⊆ r3) dead.
        let findings = propagate(&s, &idx, &seed(vec![], vec![r3]));
        assert!(findings[0].unsat_roles.contains(&r1));
    }

    #[test]
    fn propagation_through_totality() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let p = b.entity_type("P").unwrap();
        let q = b.entity_type("Q").unwrap();
        b.subtype(p, a).unwrap();
        b.subtype(q, a).unwrap();
        b.total_subtypes(a, [p, q]).unwrap();
        let s = b.finish();
        let idx = s.index();
        let findings = propagate(&s, &idx, &seed(vec![p, q], vec![]));
        assert!(findings[0].unsat_types.contains(&a));
    }

    #[test]
    fn e4_flags_subset_between_unrelated_players() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let c = b.entity_type("C").unwrap(); // unrelated to A
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", c, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.subset(RoleSeq::single(r1), RoleSeq::single(r3)).unwrap();
        let s = b.finish();
        let findings = run_check(&E4, &s);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Unsatisfiable);
        // The sub side (f1) dies; f2 stays alive.
        assert!(findings[0].unsat_roles.contains(&r1));
        assert!(!findings[0].unsat_roles.contains(&r3));
    }

    #[test]
    fn e4_equality_kills_both_sides() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let c = b.entity_type("C").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", c, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.equality([RoleSeq::single(r1), RoleSeq::single(r3)]).unwrap();
        let s = b.finish();
        let findings = run_check(&E4, &s);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].unsat_roles.contains(&r1));
        assert!(findings[0].unsat_roles.contains(&r3));
    }

    #[test]
    fn e4_silent_on_compatible_players() {
        let mut b = SchemaBuilder::new("s");
        let p = b.entity_type("P").unwrap();
        let a = b.entity_type("A").unwrap();
        let c = b.entity_type("C").unwrap();
        b.subtype(a, p).unwrap();
        b.subtype(c, p).unwrap(); // common supertype: may overlap
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", c, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.subset(RoleSeq::single(r1), RoleSeq::single(r3)).unwrap();
        let s = b.finish();
        assert!(run_check(&E4, &s).is_empty());
    }

    #[test]
    fn e4_checks_predicate_positions() {
        // Predicate-level subset where only the SECOND position mismatches.
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let y = b.entity_type("Y").unwrap(); // unrelated to X
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, y).unwrap();
        let [r1, r2] = b.schema().fact_type(f1).roles();
        let [r3, r4] = b.schema().fact_type(f2).roles();
        b.subset(RoleSeq::pair(r1, r2), RoleSeq::pair(r3, r4)).unwrap();
        let s = b.finish();
        let findings = run_check(&E4, &s);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].unsat_roles.contains(&r1));
        assert!(findings[0].unsat_roles.contains(&r2));
        let _ = (r3, r4);
    }

    #[test]
    fn e5_flags_mandatory_acyclic_ring() {
        let mut b = SchemaBuilder::new("s");
        let t = b.entity_type("T").unwrap();
        let f = b.fact_type("precedes", t, t).unwrap();
        let r = b.schema().fact_type(f).first();
        b.mandatory(r).unwrap();
        b.ring(f, [RingKind::Acyclic]).unwrap();
        let s = b.finish();
        let findings = run_check(&E5, &s);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].unsat_types, vec![t]);
        assert_eq!(findings[0].unsat_roles.len(), 2);
    }

    #[test]
    fn e5_fires_for_mandatory_second_role_too() {
        // Mandatory on the target side: every instance needs an incoming
        // edge — the dual infinite-ascent argument.
        let mut b = SchemaBuilder::new("s");
        let t = b.entity_type("T").unwrap();
        let f = b.fact_type("precedes", t, t).unwrap();
        let r2 = b.schema().fact_type(f).second();
        b.mandatory(r2).unwrap();
        b.ring(f, [RingKind::Acyclic]).unwrap();
        let s = b.finish();
        assert_eq!(run_check(&E5, &s).len(), 1);
    }

    #[test]
    fn e5_silent_without_acyclicity() {
        // Asymmetric allows 3-cycles, so mandatory is fine.
        let mut b = SchemaBuilder::new("s");
        let t = b.entity_type("T").unwrap();
        let f = b.fact_type("rel", t, t).unwrap();
        let r = b.schema().fact_type(f).first();
        b.mandatory(r).unwrap();
        b.ring(f, [RingKind::Asymmetric]).unwrap();
        let s = b.finish();
        assert!(run_check(&E5, &s).is_empty());
    }

    #[test]
    fn e5_silent_when_partners_escape_the_population() {
        // The co-player is a proper SUPERtype: chains can terminate at
        // instances outside the mandatory population.
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let child = b.entity_type("Child").unwrap();
        b.subtype(child, person).unwrap();
        let f = b.fact_type("has_parent", child, person).unwrap();
        let r = b.schema().fact_type(f).first();
        b.mandatory(r).unwrap();
        b.ring(f, [RingKind::Acyclic]).unwrap();
        let s = b.finish();
        assert!(run_check(&E5, &s).is_empty());
    }

    #[test]
    fn e5_fires_when_co_player_is_subtype() {
        // Co-player a SUBtype of the mandatory player: targets are still
        // inside the mandatory population.
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let child = b.entity_type("Child").unwrap();
        b.subtype(child, person).unwrap();
        let f = b.fact_type("admires", person, child).unwrap();
        let r = b.schema().fact_type(f).first();
        b.mandatory(r).unwrap();
        b.ring(f, [RingKind::Acyclic]).unwrap();
        let s = b.finish();
        let findings = run_check(&E5, &s);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].unsat_types, vec![person]);
    }

    #[test]
    fn no_seed_no_propagation() {
        let mut b = SchemaBuilder::new("s");
        b.entity_type("A").unwrap();
        let s = b.finish();
        let idx = s.index();
        assert!(propagate(&s, &idx, &[]).is_empty());
    }

    #[test]
    fn guideline_findings_do_not_seed() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let sub = b.entity_type("Sub").unwrap();
        b.subtype(sub, a).unwrap();
        let s = b.finish();
        let idx = s.index();
        let guideline = vec![Finding {
            code: CheckCode::Fr1,
            severity: Severity::Guideline,
            unsat_roles: vec![],
            joint_unsat_roles: Vec::new(),
            unsat_types: vec![a],
            culprits: vec![],
            message: "not unsat".into(),
        }];
        assert!(propagate(&s, &idx, &guideline).is_empty());
    }
}
