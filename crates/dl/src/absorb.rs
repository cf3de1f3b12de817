//! GCI absorption: the TBox compiled into the trail engine's rules.
//!
//! Internalizing every GCI `C ⊑ D` as a conjunct `¬C ⊔ D` of every node
//! label makes each node open one disjunction per axiom, which is what
//! kept the tableau from deciding clean ORM schemas. The ORM→DL mapping
//! emits only a handful of GCI shapes, and each of them is *absorbable*
//! (Horrocks & Tobies, "Reasoning with axioms: theory and practice",
//! KR 2000; role absorption as in Tsarkov, Horrocks & Patel-Schneider,
//! JAR 2007) into a deterministic rule that fires only where it can
//! matter:
//!
//! | GCI shape | rule |
//! |---|---|
//! | `A ⊑ D` | lazy unfolding: add `D` when `A` enters a label |
//! | `A ⊓ B ⊑ ⊥` | told disjointness: clash when `A` and `B` share a label |
//! | `∃R.⊤ ⊑ D`, `⊤ ⊑ ≤n R`, `⊤ ⊑ ∀R.D` | domain/range: add `D` (resp. `≤n R`) to a node when it gains an `R`-neighbour (resp. an `R⁻`-neighbour) |
//! | `∃R.⊤ ⊓ ∃S.⊤ ⊑ ⊥` | domain rule `∃R.⊤ ⊑ ≤0 S` |
//! | anything else | residue: internalized into every label as before |
//!
//! Each rule keeps its GCI's axiom bit, so the axiom-usage sets the
//! tableau reports to [`crate::explain`] name the same axioms they did
//! under full internalization. [`crate::classic`] stays fully
//! internalized: it is the differential baseline the absorbed engine is
//! checked against.
//!
//! The compiled form is memoized per TBox revision
//! ([`crate::tbox::TBox::absorbed`]) and built lazily by the first proof,
//! never by a mutation.

use crate::arena::{role_expr_id, Arena, ConceptId, RoleExprId};
use crate::concept::{AtomId, Concept, RoleExpr};
use crate::tableau::{ax_bit, ax_mask, AxSet};
use crate::tbox::{RoleClosure, TBox};

/// How many GCIs went into each kind of rule — what a TBox looks like to
/// the trail engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbsorptionShapes {
    /// `A ⊑ D`, unfolded lazily.
    pub unfolded: usize,
    /// `A ⊓ B ⊑ ⊥`, checked as told disjointness.
    pub disjoint: usize,
    /// Domain and range rules (`∃R.⊤ ⊑ D`, `⊤ ⊑ ≤n R`, `⊤ ⊑ ∀R.D` and
    /// role exclusions), fired on edge creation.
    pub domain: usize,
    /// Tautologies (`C ⊑ ⊤`, `⊥ ⊑ D`), dropped.
    pub trivial: usize,
    /// GCIs that stay internalized.
    pub residue: usize,
}

/// Rules grouped by a dense `u32` key (an atom's concept id or a role
/// expression id), stored flat: the rules of key `k` are
/// `rules[starts[k]..starts[k + 1]]`, sorted by concept id, with one
/// entry per concept (GCIs that compile to the same rule share it and
/// carry both axiom bits).
#[derive(Clone, Debug, Default)]
struct RuleTable {
    starts: Vec<u32>,
    rules: Vec<(ConceptId, AxSet)>,
}

impl RuleTable {
    fn build(mut entries: Vec<(u32, ConceptId, AxSet)>) -> RuleTable {
        entries.sort_unstable_by_key(|&(key, cid, _)| (key, cid));
        let n_keys = entries.last().map_or(0, |&(key, _, _)| key as usize + 1);
        let mut starts = vec![0u32; n_keys + 1];
        let mut rules: Vec<(ConceptId, AxSet)> = Vec::with_capacity(entries.len());
        let mut prev = None;
        for (key, cid, axs) in entries {
            if prev == Some((key, cid)) {
                rules.last_mut().expect("a previous entry exists").1 |= axs;
                continue;
            }
            prev = Some((key, cid));
            rules.push((cid, axs));
            starts[key as usize + 1] = rules.len() as u32;
        }
        // Keys without rules inherit the previous key's end.
        for k in 1..starts.len() {
            starts[k] = starts[k].max(starts[k - 1]);
        }
        RuleTable { starts, rules }
    }

    fn get(&self, key: u32) -> &[(ConceptId, AxSet)] {
        let k = key as usize;
        if k + 1 >= self.starts.len() {
            return &[];
        }
        &self.rules[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// A TBox compiled for the trail engine: the rule tables, the residual
/// internalized conjuncts, the role closure, and an arena in which every
/// rule concept is already interned (each proof starts from a clone of
/// it, so rule ids are valid in the proof's own arena).
#[derive(Clone, Debug)]
pub struct Absorbed {
    pub(crate) arena: Arena,
    pub(crate) roles: RoleClosure,
    /// Residual conjuncts seeded into every node, with their axiom bits.
    pub(crate) residue: Vec<(ConceptId, AxSet)>,
    /// Lazy unfolding, keyed by the atom's concept id.
    unfold: RuleTable,
    /// Told-disjointness partners, keyed by the atom's concept id.
    disjoint: RuleTable,
    /// Concepts a node gains with a neighbour over an edge labelled `r`,
    /// keyed by `r` and already closed under the role hierarchy (the
    /// rules of every super-role of `r` are listed under `r`).
    edge: RuleTable,
    /// Usage bits of every role inclusion (edge facts may rest on any).
    pub(crate) role_ax_mask: AxSet,
    /// Usage bits of every role disjointness declaration.
    pub(crate) disjoint_ax_mask: AxSet,
    shapes: AbsorptionShapes,
}

/// Where one GCI goes.
enum Shape<'a> {
    Unfold(AtomId, &'a Concept),
    Disjoint(AtomId, AtomId),
    Domain(RoleExpr, Concept),
    Trivial,
    Residue,
}

/// `∃R.⊤` (or its spelling `≥1 R`): the role it tests for.
fn plays(c: &Concept) -> Option<RoleExpr> {
    match c {
        Concept::Exists(r, body) if **body == Concept::Top => Some(*r),
        Concept::AtLeast(1, r) => Some(*r),
        _ => None,
    }
}

fn shape<'a>(c: &'a Concept, d: &'a Concept) -> Shape<'a> {
    match (c, d) {
        (_, Concept::Top) | (Concept::Bottom, _) => Shape::Trivial,
        (Concept::Atomic(a), _) => Shape::Unfold(*a, d),
        (Concept::And(cs), Concept::Bottom) if cs.len() == 2 => match (&cs[0], &cs[1]) {
            (Concept::Atomic(a), Concept::Atomic(b)) => Shape::Disjoint(*a, *b),
            (x, y) => match (plays(x), plays(y)) {
                (Some(r), Some(s)) => Shape::Domain(r, Concept::AtMost(0, s)),
                _ => Shape::Residue,
            },
        },
        (Concept::Top, Concept::AtMost(n, r)) => Shape::Domain(*r, Concept::AtMost(*n, *r)),
        (Concept::Top, Concept::ForAll(r, body)) => Shape::Domain(r.inverse(), (**body).clone()),
        _ => match plays(c) {
            Some(r) => Shape::Domain(r, d.clone()),
            None => Shape::Residue,
        },
    }
}

impl Absorbed {
    /// Compile `tbox`.
    pub(crate) fn compile(tbox: &TBox) -> Absorbed {
        let mut arena = Arena::new();
        let roles = tbox.role_closure();
        let mut shapes = AbsorptionShapes::default();
        let mut unfold = Vec::new();
        let mut disjoint = Vec::new();
        let mut domain: Vec<(RoleExprId, ConceptId, AxSet)> = Vec::new();
        let mut residue: Vec<(ConceptId, AxSet)> = Vec::new();
        for (flat, (c, d)) in tbox.gcis().iter().enumerate() {
            let axs = ax_bit(flat);
            match shape(c, d) {
                Shape::Unfold(a, d) => {
                    shapes.unfolded += 1;
                    let atom = arena.intern(&Concept::Atomic(a));
                    unfold.push((atom.0, arena.intern(d), axs));
                }
                Shape::Disjoint(a, b) => {
                    let (ca, cb) =
                        (arena.intern(&Concept::Atomic(a)), arena.intern(&Concept::Atomic(b)));
                    if a == b {
                        // `A ⊓ A ⊑ ⊥` is `A ⊑ ⊥`.
                        shapes.unfolded += 1;
                        unfold.push((ca.0, arena.intern(&Concept::Bottom), axs));
                    } else {
                        shapes.disjoint += 1;
                        disjoint.push((ca.0, cb, axs));
                        disjoint.push((cb.0, ca, axs));
                    }
                }
                Shape::Domain(r, d) => {
                    shapes.domain += 1;
                    domain.push((role_expr_id(r), arena.intern(&d), axs));
                }
                Shape::Trivial => shapes.trivial += 1,
                Shape::Residue => {
                    shapes.residue += 1;
                    let id = arena.intern(&Concept::implies(c.clone(), d.clone()));
                    // Two GCIs may canonicalize to one conjunct: merge bits.
                    match residue.iter_mut().find(|(x, _)| *x == id) {
                        Some((_, bits)) => *bits |= axs,
                        None => residue.push((id, axs)),
                    }
                }
            }
        }
        // Close domain rules under the role hierarchy: an `r`-edge is an
        // `s`-edge for every `s ⊒ r`.
        let mut keyed: Vec<RoleExprId> = domain.iter().map(|&(s, _, _)| s).collect();
        keyed.sort_unstable();
        keyed.dedup();
        let by_role = RuleTable::build(domain);
        let mut edge = Vec::new();
        for r in 0..roles.n_exprs() as RoleExprId {
            for &s in keyed.iter().filter(|&&s| roles.is_subrole(r, s)) {
                edge.extend(by_role.get(s).iter().map(|&(cid, axs)| (r, cid, axs)));
            }
        }
        let g = tbox.gcis().len();
        let ri = tbox.role_inclusion_axioms().len();
        let dj = tbox.disjoint_role_axioms().len();
        Absorbed {
            arena,
            roles,
            residue,
            unfold: RuleTable::build(unfold),
            disjoint: RuleTable::build(disjoint),
            edge: RuleTable::build(edge),
            role_ax_mask: ax_mask(g, ri),
            disjoint_ax_mask: ax_mask(g + ri, dj),
            shapes,
        }
    }

    /// How the TBox's GCIs were compiled.
    pub fn shapes(&self) -> AbsorptionShapes {
        self.shapes
    }

    /// Concepts to add when the atom interned as `atom` enters a label.
    pub(crate) fn unfold(&self, atom: ConceptId) -> &[(ConceptId, AxSet)] {
        self.unfold.get(atom.0)
    }

    /// Atoms told disjoint from `atom`, sorted by concept id.
    pub(crate) fn disjoint(&self, atom: ConceptId) -> &[(ConceptId, AxSet)] {
        self.disjoint.get(atom.0)
    }

    /// Concepts a node gains with a neighbour over an edge labelled `r`.
    pub(crate) fn edge(&self, r: RoleExprId) -> &[(ConceptId, AxSet)] {
        self.edge.get(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(build: impl FnOnce(&mut TBox)) -> Absorbed {
        let mut t = TBox::new();
        build(&mut t);
        Absorbed::compile(&t)
    }

    #[test]
    fn every_orm_shape_is_absorbed() {
        let abs = compiled(|t| {
            let a = Concept::Atomic(t.atom("A"));
            let b = Concept::Atomic(t.atom("B"));
            let r = RoleExpr::direct(t.role("R"));
            let s = RoleExpr::direct(t.role("S"));
            t.gci(a.clone(), b.clone());
            t.gci(Concept::and([a.clone(), b.clone()]), Concept::Bottom);
            t.gci(Concept::some(r), a.clone());
            t.gci(Concept::some(r.inverse()), b.clone());
            t.gci(Concept::Top, Concept::AtMost(1, r));
            t.gci(Concept::and([Concept::some(r), Concept::some(s)]), Concept::Bottom);
            t.gci(b.clone(), Concept::Top);
            t.gci(Concept::Top, Concept::some(s));
        });
        assert_eq!(
            abs.shapes(),
            AbsorptionShapes { unfolded: 1, disjoint: 1, domain: 4, trivial: 1, residue: 1 }
        );
        assert_eq!(abs.residue.len(), 1);
    }

    #[test]
    fn tables_group_and_merge_by_key() {
        let abs = compiled(|t| {
            let a = Concept::Atomic(t.atom("A"));
            let b = Concept::Atomic(t.atom("B"));
            let c = Concept::Atomic(t.atom("C"));
            t.gci(a.clone(), b.clone());
            t.gci(a.clone(), b.clone());
            t.gci(c.clone(), b.clone());
        });
        let mut arena = abs.arena.clone();
        let (a, b, c) = (
            arena.intern(&Concept::Atomic(0)),
            arena.intern(&Concept::Atomic(1)),
            arena.intern(&Concept::Atomic(2)),
        );
        // The duplicate GCI shares A's rule and contributes its bit.
        assert_eq!(abs.unfold(a), &[(b, ax_bit(0) | ax_bit(1))]);
        assert_eq!(abs.unfold(c), &[(b, ax_bit(2))]);
        assert!(abs.unfold(b).is_empty());
        assert!(abs.unfold(ConceptId(10_000)).is_empty());
    }

    #[test]
    fn domain_rules_close_under_the_role_hierarchy() {
        let abs = compiled(|t| {
            let a = Concept::Atomic(t.atom("A"));
            let r = RoleExpr::direct(t.role("R"));
            let s = RoleExpr::direct(t.role("S"));
            t.role_inclusion(r, s);
            t.gci(Concept::some(s), a);
        });
        let r = role_expr_id(RoleExpr::direct(0));
        let s = role_expr_id(RoleExpr::direct(1));
        assert_eq!(abs.edge(r).len(), 1, "an R-edge is an S-edge");
        assert_eq!(abs.edge(s).len(), 1);
        assert!(abs.edge(r ^ 1).is_empty() && abs.edge(s ^ 1).is_empty());
    }
}
