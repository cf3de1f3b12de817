//! The doom rule set: which roles and object types are empty in every
//! population, and which findings say so.
//!
//! The *seeds* are the findings of the unsat-relevant checks
//! ([`CheckCode::is_unsat_relevant`]) other than E3: the nine patterns, the
//! RIDL rule S4 and the extensions E1, E2, E4 and E5. [`close`] closes their
//! unsatisfiable roles and types under the structural consequences of
//! emptiness (the paper's §3/§5 propagation). Two consumers share that one
//! closure:
//!
//! * the validator's E3 ([`crate::extensions::propagate`]) reports what the
//!   closure adds to the seeds;
//! * `orm_dl`'s saturation engine refutes exactly the closed set
//!   ([`analyze`]), naming for each element the seed findings ([`Origin`]s)
//!   it follows from.
//!
//! Both run under a [`RingCtl`], so a caller's budget, deadline and
//! cancellation bound the analysis as they bound the ring-table search.

use crate::diagnostics::{CheckCode, Finding, Severity};
use crate::patterns::p8_ring;
use crate::ring::ctl::{RingCtl, RingInterrupt};
use crate::validator::checks;
use orm_model::{
    Constraint, ConstraintId, Element, ObjectTypeId, RoleId, Schema, SchemaIndex, SetComparisonKind,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A seed finding's identity: the check that fired and the elements it
/// blames.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Origin {
    /// The check that fired.
    pub code: CheckCode,
    /// The schema elements whose interaction the check blames.
    pub culprits: Vec<Element>,
}

impl Origin {
    /// The constraints among the culprits.
    pub fn constraints(&self) -> impl Iterator<Item = ConstraintId> + '_ {
        self.culprits.iter().filter_map(|e| match e {
            Element::Constraint(c) => Some(*c),
            _ => None,
        })
    }
}

/// The closed set of doomed roles and object types, each with the seeds it
/// follows from.
#[derive(Clone, Debug, Default)]
pub struct Doom {
    origins: Vec<Origin>,
    doomed: BTreeMap<Element, Vec<usize>>,
}

impl Doom {
    /// The doomed object types, in id order.
    pub fn types(&self) -> impl Iterator<Item = ObjectTypeId> + '_ {
        self.doomed.keys().filter_map(|e| match e {
            Element::ObjectType(t) => Some(*t),
            _ => None,
        })
    }

    /// The doomed roles, in id order.
    pub fn roles(&self) -> impl Iterator<Item = RoleId> + '_ {
        self.doomed.keys().filter_map(|e| match e {
            Element::Role(r) => Some(*r),
            _ => None,
        })
    }

    /// The origins a doomed role or object type follows from, in seed
    /// order; `None` when `element` is not doomed.
    pub fn origins(&self, element: Element) -> Option<impl Iterator<Item = &Origin> + '_> {
        let seeds = self.doomed.get(&element)?;
        Some(seeds.iter().map(|&i| &self.origins[i]))
    }

    fn doom(&mut self, element: Element, seeds: Vec<usize>, queue: &mut VecDeque<Element>) {
        if let Entry::Vacant(slot) = self.doomed.entry(element) {
            slot.insert(seeds);
            queue.push_back(element);
        }
    }

    /// The union of the seeds behind `elements`, sorted.
    fn seeds_of(&self, elements: &[Element]) -> Vec<usize> {
        let mut seeds: Vec<usize> =
            elements.iter().flat_map(|e| self.doomed[e].iter().copied()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        seeds
    }
}

/// Run the seed checks under `ctl`, then [`close`] their findings.
///
/// Pattern 8's ring-table search is metered step by step
/// ([`p8_ring::scan_ctl`]); every other check is charged one step, plus one
/// step per element its findings doom.
pub fn analyze(
    schema: &Schema,
    idx: &SchemaIndex,
    ctl: &mut dyn RingCtl,
) -> Result<Doom, RingInterrupt> {
    let mut seeds = Vec::new();
    for check in checks().iter().filter(|c| c.code().is_unsat_relevant()) {
        ctl.on_step(1)?;
        let start = seeds.len();
        if check.code() == CheckCode::P8 {
            seeds.extend(p8_ring::scan_ctl(schema, idx, ctl)?);
        } else {
            check.run(schema, idx, &mut seeds);
        }
        let doomed: usize =
            seeds[start..].iter().map(|f| f.unsat_roles.len() + f.unsat_types.len()).sum();
        ctl.on_step(doomed as u64)?;
    }
    close(schema, idx, &seeds, ctl)
}

/// Close the unsatisfiable roles and types of `seeds` under the structural
/// consequences of emptiness:
///
/// * a subtype of an empty type is empty;
/// * a role played by an empty type is empty;
/// * the co-role of an empty role is empty (a binary fact table with one
///   empty column is empty);
/// * a type whose simple-mandatory role is empty is empty; likewise when
///   *all* roles of a disjunctive mandatory constraint are empty;
/// * a role with a subset/equality path **into** an empty role is empty;
/// * a supertype totally covered by empty subtypes is empty.
///
/// A seeded element follows from the first finding that dooms it, a
/// derived one from the seeds of the premises that first derive it (every
/// alternative, for mandatory and totality constraints). Charges `ctl` one
/// step per doomed element.
pub fn close(
    schema: &Schema,
    idx: &SchemaIndex,
    seeds: &[Finding],
    ctl: &mut dyn RingCtl,
) -> Result<Doom, RingInterrupt> {
    let mut doom = Doom::default();
    let mut queue = VecDeque::new();
    for f in seeds.iter().filter(|f| f.severity == Severity::Unsatisfiable) {
        if f.unsat_roles.is_empty() && f.unsat_types.is_empty() {
            continue;
        }
        let seed = doom.origins.len();
        doom.origins.push(Origin { code: f.code, culprits: f.culprits.clone() });
        let types = f.unsat_types.iter().map(|t| Element::ObjectType(*t));
        for e in types.chain(f.unsat_roles.iter().map(|r| Element::Role(*r))) {
            doom.doom(e, vec![seed], &mut queue);
        }
    }
    if queue.is_empty() {
        return Ok(doom);
    }

    // The rules as Horn clauses "all premises empty ⇒ conclusion empty",
    // each watched by its premises.
    let ty = |t: &ObjectTypeId| Element::ObjectType(*t);
    let role = |r: &RoleId| Element::Role(*r);
    let mut clauses: Vec<(Vec<Element>, Element)> = Vec::new();
    for link in schema.subtype_links() {
        clauses.push((vec![ty(&link.sup)], ty(&link.sub)));
    }
    for (t, _) in schema.object_types() {
        clauses.extend(idx.roles_of_type[t.index()].iter().map(|r| (vec![ty(&t)], role(r))));
    }
    for (r, _) in schema.roles() {
        clauses.push((vec![role(&r)], role(&schema.co_role(r))));
    }
    for (_, c) in schema.constraints() {
        match c {
            Constraint::SetComparison(sc) => {
                let n = sc.args.len();
                let pairs: Vec<(usize, usize)> = match sc.kind {
                    SetComparisonKind::Subset => vec![(0, 1)],
                    SetComparisonKind::Equality => (0..n)
                        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
                        .collect(),
                    SetComparisonKind::Exclusion => Vec::new(),
                };
                // An empty superset empties the subset, position by position.
                for (sub, sup) in pairs {
                    for (r, s) in sc.args[sub].roles().iter().zip(sc.args[sup].roles()) {
                        clauses.push((vec![role(s)], role(r)));
                    }
                }
            }
            Constraint::Mandatory(m) => {
                let player = ty(&schema.player(m.roles[0]));
                clauses.push((m.roles.iter().map(role).collect(), player));
            }
            Constraint::TotalSubtypes(t) => {
                clauses.push((t.subtypes.iter().map(ty).collect(), ty(&t.supertype)));
            }
            _ => {}
        }
    }
    let mut watchers: HashMap<Element, Vec<usize>> = HashMap::new();
    for (i, (premises, _)) in clauses.iter().enumerate() {
        for p in premises {
            watchers.entry(*p).or_default().push(i);
        }
    }

    while let Some(element) = queue.pop_front() {
        ctl.on_step(1)?;
        for &i in watchers.get(&element).into_iter().flatten() {
            let (premises, conclusion) = &clauses[i];
            if premises.iter().all(|p| doom.doomed.contains_key(p)) {
                let why = doom.seeds_of(premises);
                doom.doom(*conclusion, why, &mut queue);
            }
        }
    }
    Ok(doom)
}
