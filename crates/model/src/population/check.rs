//! The population checker: every constraint kind's semantics over a
//! concrete [`Population`], reported as [`Violation`]s.

use super::{ring_witness, Population, Violation};
use crate::{Constraint, ConstraintId, ObjectTypeId, RoleId, RoleSeq, Schema, SchemaIndex, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Semantic switches for [`check`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckOptions {
    /// Enforce strict (proper) subset semantics for subtypes: a non-empty
    /// subtype population must differ from its supertype's (\[H01\]).
    pub proper_subtypes: bool,
    /// Enforce ORM's implicit mutual exclusion of object types that share
    /// no common supertype.
    pub implicit_type_exclusion: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { proper_subtypes: true, implicit_type_exclusion: true }
    }
}

impl CheckOptions {
    /// Plain subset semantics, no implicit exclusion — the permissive
    /// reading some ORM dialects use.
    pub fn permissive() -> Self {
        CheckOptions { proper_subtypes: false, implicit_type_exclusion: false }
    }
}

/// Check `pop` against every constraint of `schema`; returns all
/// violations (empty = the population is a model of the schema).
pub fn check(schema: &Schema, pop: &Population, options: CheckOptions) -> Vec<Violation> {
    check_indexed(schema, &schema.index(), pop, options)
}

/// [`check`] for a caller that already holds `schema`'s index, so repeated
/// checks against one schema do not rebuild it.
pub fn check_indexed(
    schema: &Schema,
    idx: &SchemaIndex,
    pop: &Population,
    options: CheckOptions,
) -> Vec<Violation> {
    let mut out = Vec::new();
    check_conformity(schema, pop, &mut out);
    check_value_constraints(schema, pop, &mut out);
    check_subtyping(schema, pop, options, &mut out);
    if options.implicit_type_exclusion {
        check_implicit_exclusion(schema, idx, pop, &mut out);
    }
    for (cid, c) in schema.constraints() {
        match c {
            Constraint::Mandatory(m) => check_mandatory(schema, pop, cid, &m.roles, &mut out),
            Constraint::Uniqueness(u) => {
                check_counting(schema, pop, cid, &u.roles, 1, Some(1), true, &mut out)
            }
            Constraint::Frequency(f) => {
                check_counting(schema, pop, cid, &f.roles, f.min, f.max, false, &mut out)
            }
            Constraint::SetComparison(sc) => check_set_comparison(schema, pop, cid, sc, &mut out),
            Constraint::ExclusiveTypes(e) => check_exclusive_types(pop, cid, &e.types, &mut out),
            Constraint::TotalSubtypes(t) => {
                check_totality(pop, cid, t.supertype, &t.subtypes, &mut out)
            }
            Constraint::Ring(r) => {
                // A fact table iterates as a set, in order: exactly the
                // sorted, duplicate-free relation `ring_witness` takes.
                let tuples: Vec<(&Value, &Value)> =
                    pop.tuples(r.fact_type).map(|(a, b)| (a, b)).collect();
                for kind in r.kinds.iter() {
                    if let Some(witness) = ring_witness(kind, &tuples, |v| v) {
                        out.push(Violation::Ring { constraint: cid, kind, witness });
                    }
                }
            }
        }
    }
    out
}

/// Whether `pop` is a model of `schema` under `options`.
pub fn satisfies(schema: &Schema, pop: &Population, options: CheckOptions) -> bool {
    check(schema, pop, options).is_empty()
}

fn check_conformity(schema: &Schema, pop: &Population, out: &mut Vec<Violation>) {
    for (fid, ft) in schema.fact_types() {
        let players = [schema.player(ft.first()), schema.player(ft.second())];
        for (a, b) in pop.tuples(fid) {
            for (value, (role, player)) in [a, b].iter().zip(ft.roles().into_iter().zip(players)) {
                if !pop.extent(player).contains(value) {
                    out.push(Violation::Conformity { role, value: (*value).clone(), player });
                }
            }
        }
    }
}

fn check_value_constraints(schema: &Schema, pop: &Population, out: &mut Vec<Violation>) {
    for (ty, ot) in schema.object_types() {
        let Some(vc) = ot.value_constraint() else { continue };
        for v in pop.extent(ty) {
            if !vc.admits(v) {
                out.push(Violation::ValueConstraint { ty, value: v.clone() });
            }
        }
    }
}

fn check_subtyping(
    schema: &Schema,
    pop: &Population,
    options: CheckOptions,
    out: &mut Vec<Violation>,
) {
    for link in schema.subtype_links() {
        let sub = pop.extent(link.sub);
        let sup = pop.extent(link.sup);
        for v in sub {
            if !sup.contains(v) {
                out.push(Violation::SubtypeNotSubset {
                    sub: link.sub,
                    sup: link.sup,
                    value: v.clone(),
                });
            }
        }
        if options.proper_subtypes && !sub.is_empty() && sub == sup {
            out.push(Violation::SubtypeNotProper { sub: link.sub, sup: link.sup });
        }
    }
}

fn check_implicit_exclusion(
    schema: &Schema,
    idx: &SchemaIndex,
    pop: &Population,
    out: &mut Vec<Violation>,
) {
    // Only populated types can share a value; skipping the rest spares
    // the subtype-closure test on every pair of empty types.
    let types: Vec<ObjectTypeId> =
        schema.object_types().map(|(id, _)| id).filter(|t| pop.type_populated(*t)).collect();
    for (i, &a) in types.iter().enumerate() {
        for &b in types.iter().skip(i + 1) {
            if idx.may_overlap(a, b) {
                continue;
            }
            for v in pop.extent(a).intersection(pop.extent(b)) {
                out.push(Violation::ImplicitExclusion { a, b, value: v.clone() });
            }
        }
    }
}

fn check_mandatory(
    schema: &Schema,
    pop: &Population,
    constraint: ConstraintId,
    roles: &[RoleId],
    out: &mut Vec<Violation>,
) {
    let player = schema.player(roles[0]);
    for v in pop.extent(player) {
        // `role_values` scans the fact column in place — no per-(value,
        // role) `BTreeSet` is materialized just to ask `contains`.
        let plays_one = roles.iter().any(|r| pop.role_values(schema, *r).any(|w| w == v));
        if !plays_one {
            out.push(Violation::Mandatory { constraint, value: v.clone() });
        }
    }
}

/// Shared counting semantics for uniqueness (`min=max=1`) and frequency
/// constraints: group the fact table by the projection onto the covered
/// roles, then bound each group's size.
#[allow(clippy::too_many_arguments)]
fn check_counting(
    schema: &Schema,
    pop: &Population,
    constraint: ConstraintId,
    roles: &[RoleId],
    min: u32,
    max: Option<u32>,
    is_uniqueness: bool,
    out: &mut Vec<Violation>,
) {
    let fact = schema.role(roles[0]).fact_type();
    let positions: Vec<u8> = roles.iter().map(|r| schema.role(*r).position()).collect();
    let mut groups: BTreeMap<Vec<Value>, u32> = BTreeMap::new();
    for (a, b) in pop.tuples(fact) {
        let key: Vec<Value> =
            positions.iter().map(|p| if *p == 0 { a.clone() } else { b.clone() }).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    for (combo, count) in groups {
        let too_few = count < min;
        let too_many = max.is_some_and(|m| count > m);
        if too_few || too_many {
            if is_uniqueness {
                out.push(Violation::Uniqueness { constraint, combo, count });
            } else {
                out.push(Violation::Frequency { constraint, combo, count, min, max });
            }
        }
    }
}

fn seq_population(schema: &Schema, pop: &Population, seq: &RoleSeq) -> BTreeSet<Vec<Value>> {
    match seq.roles() {
        [r] => pop.role_values(schema, *r).map(|v| vec![v.clone()]).collect(),
        [a, b] => {
            let fact = schema.role(*a).fact_type();
            let (pa, pb) = (schema.role(*a).position(), schema.role(*b).position());
            pop.tuples(fact)
                .map(|(x, y)| {
                    let pick = |p: u8| if p == 0 { x.clone() } else { y.clone() };
                    vec![pick(pa), pick(pb)]
                })
                .collect()
        }
        _ => unreachable!("role sequences have length 1 or 2"),
    }
}

fn check_set_comparison(
    schema: &Schema,
    pop: &Population,
    constraint: ConstraintId,
    sc: &crate::SetComparison,
    out: &mut Vec<Violation>,
) {
    use crate::SetComparisonKind::*;
    let pops: Vec<BTreeSet<Vec<Value>>> =
        sc.args.iter().map(|seq| seq_population(schema, pop, seq)).collect();
    match sc.kind {
        Subset => {
            for item in pops[0].difference(&pops[1]) {
                out.push(Violation::SetComparison {
                    constraint,
                    detail: format!("{item:?} is in the sub-population but not the super"),
                });
            }
        }
        Equality => {
            for (i, p) in pops.iter().enumerate().skip(1) {
                if p != &pops[0] {
                    out.push(Violation::SetComparison {
                        constraint,
                        detail: format!("argument {i} differs from argument 0"),
                    });
                }
            }
        }
        Exclusion => {
            for i in 0..pops.len() {
                for j in (i + 1)..pops.len() {
                    for item in pops[i].intersection(&pops[j]) {
                        out.push(Violation::SetComparison {
                            constraint,
                            detail: format!("{item:?} occurs in arguments {i} and {j}"),
                        });
                    }
                }
            }
        }
    }
}

fn check_exclusive_types(
    pop: &Population,
    constraint: ConstraintId,
    types: &[ObjectTypeId],
    out: &mut Vec<Violation>,
) {
    for (i, &a) in types.iter().enumerate() {
        for &b in types.iter().skip(i + 1) {
            for v in pop.extent(a).intersection(pop.extent(b)) {
                out.push(Violation::ExclusiveTypes { constraint, value: v.clone() });
            }
        }
    }
}

fn check_totality(
    pop: &Population,
    constraint: ConstraintId,
    supertype: ObjectTypeId,
    subtypes: &[ObjectTypeId],
    out: &mut Vec<Violation>,
) {
    for v in pop.extent(supertype) {
        if !subtypes.iter().any(|s| pop.extent(*s).contains(v)) {
            out.push(Violation::Totality { constraint, value: v.clone() });
        }
    }
}
