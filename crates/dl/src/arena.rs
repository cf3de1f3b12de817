//! Hash-consed concept storage for the tableau engine.
//!
//! The engine never manipulates [`Concept`] trees directly: every concept
//! reachable in a satisfiability check is *interned* once into an
//! [`Arena`], and node labels become sorted `Vec<ConceptId>` — set
//! membership is a binary search over `u32`s, label equality (the hot
//! comparison of pairwise blocking) is a `memcmp`, and structural equality
//! of concepts is id equality. Interning canonicalizes `⊓`/`⊔` argument
//! lists (sorted, deduplicated) so syntactically distinct but equal-as-set
//! conjunctions collapse to one id.
//!
//! Each id also carries a precomputed SplitMix64 *mixing hash*
//! ([`Arena::mix`]): XOR-ing the mixes of a label's members yields an
//! order-independent label fingerprint that is updated incrementally on
//! insert and — because XOR is its own inverse — on trail rollback. The
//! tableau's blocking test compares fingerprints before falling back to
//! the exact comparison.
//!
//! Atoms additionally get an eagerly interned complement
//! ([`Arena::atom_complement`]) so the `A ⊓ ¬A` clash test on label
//! insertion is a single set lookup, with no re-interning on the hot path.

use crate::concept::{Concept, RoleExpr};
use std::collections::HashMap;
use std::fmt;

/// Id of an interned concept in an [`Arena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConceptId(pub u32);

/// Id of a role expression: `2·name` for a direct role, `2·name + 1` for
/// its inverse. The closure tables in [`crate::tbox::RoleClosure`] are
/// indexed by this encoding.
pub type RoleExprId = u32;

/// Encode a [`RoleExpr`] as a [`RoleExprId`].
pub fn role_expr_id(r: RoleExpr) -> RoleExprId {
    r.name * 2 + u32::from(r.inverse)
}

/// Decode a [`RoleExprId`] back into a [`RoleExpr`].
pub fn role_expr_of(id: RoleExprId) -> RoleExpr {
    RoleExpr { name: id / 2, inverse: id % 2 == 1 }
}

/// Flip the direction of an encoded role expression.
pub fn invert_role_expr(id: RoleExprId) -> RoleExprId {
    id ^ 1
}

/// The structure of an interned concept, children by id.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CKind {
    /// ⊤
    Top,
    /// ⊥
    Bottom,
    /// Atomic concept.
    Atomic(u32),
    /// Negated atomic concept.
    NotAtomic(u32),
    /// Conjunction over sorted, deduplicated children.
    And(Box<[ConceptId]>),
    /// Disjunction over sorted, deduplicated children.
    Or(Box<[ConceptId]>),
    /// `∃R.C`
    Exists(RoleExprId, ConceptId),
    /// `∀R.C`
    ForAll(RoleExprId, ConceptId),
    /// `≥n R`
    AtLeast(u32, RoleExprId),
    /// `≤n R`
    AtMost(u32, RoleExprId),
}

/// Hash-consing arena: each structurally distinct concept is stored once.
#[derive(Clone, Debug, Default)]
pub struct Arena {
    kinds: Vec<CKind>,
    ids: HashMap<CKind, ConceptId>,
    mixes: Vec<u64>,
    /// `complement[i]` is the id of `¬kinds[i]` for atoms/⊤/⊥, `None`
    /// elsewhere (complex complements are never needed at runtime).
    complements: Vec<Option<ConceptId>>,
}

pub(crate) fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Arena {
    /// Empty arena.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Number of interned concepts.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The structure of `id`.
    pub fn kind(&self, id: ConceptId) -> &CKind {
        &self.kinds[id.0 as usize]
    }

    /// The order-independent mixing hash of `id` (XOR these per label).
    pub fn mix(&self, id: ConceptId) -> u64 {
        self.mixes[id.0 as usize]
    }

    /// The complement id of an atom, `⊤` or `⊥` (eagerly interned); `None`
    /// for complex concepts.
    pub fn atom_complement(&self, id: ConceptId) -> Option<ConceptId> {
        self.complements[id.0 as usize]
    }

    fn insert(&mut self, kind: CKind) -> ConceptId {
        if let Some(&id) = self.ids.get(&kind) {
            return id;
        }
        let id = ConceptId(self.kinds.len() as u32);
        self.ids.insert(kind.clone(), id);
        self.kinds.push(kind);
        // Mix in a constant so ConceptId(0) does not hash to splitmix(0)'s
        // fixed point of the empty label (hash 0 is the empty label).
        self.mixes.push(splitmix(0xA076_1D64_78BD_642F ^ id.0 as u64));
        self.complements.push(None);
        id
    }

    fn intern_with_complement(&mut self, kind: CKind, complement: CKind) -> ConceptId {
        let id = self.insert(kind);
        if self.complements[id.0 as usize].is_none() {
            let neg = self.insert(complement);
            self.complements[id.0 as usize] = Some(neg);
            self.complements[neg.0 as usize] = Some(id);
        }
        id
    }

    /// Intern a concept (assumed to be in NNF, as all [`Concept`]
    /// constructors guarantee), canonicalizing `⊓`/`⊔` argument lists.
    pub fn intern(&mut self, c: &Concept) -> ConceptId {
        match c {
            Concept::Top => self.intern_with_complement(CKind::Top, CKind::Bottom),
            Concept::Bottom => self.intern_with_complement(CKind::Bottom, CKind::Top),
            Concept::Atomic(a) => {
                self.intern_with_complement(CKind::Atomic(*a), CKind::NotAtomic(*a))
            }
            Concept::NotAtomic(a) => {
                self.intern_with_complement(CKind::NotAtomic(*a), CKind::Atomic(*a))
            }
            Concept::And(cs) => {
                let ids = self.intern_children(cs);
                self.insert(CKind::And(ids))
            }
            Concept::Or(cs) => {
                let ids = self.intern_children(cs);
                self.insert(CKind::Or(ids))
            }
            Concept::Exists(r, body) => {
                let body = self.intern(body);
                self.insert(CKind::Exists(role_expr_id(*r), body))
            }
            Concept::ForAll(r, body) => {
                let body = self.intern(body);
                self.insert(CKind::ForAll(role_expr_id(*r), body))
            }
            Concept::AtLeast(n, r) => self.insert(CKind::AtLeast(*n, role_expr_id(*r))),
            Concept::AtMost(n, r) => self.insert(CKind::AtMost(*n, role_expr_id(*r))),
        }
    }

    /// Intern the NNF negation `¬c` **without materializing the negated
    /// tree**: the dual of every constructor case of [`Concept::not`],
    /// applied during the interning walk itself. `intern_negated(c)` is
    /// id-equal to `intern(&Concept::not(c.clone()))` for every `c`, but
    /// allocates no intermediate [`Concept`] — this is what lets
    /// [`crate::cache::SatCache::subsumes_cx`] key `sub ⊓ ¬sup` queries
    /// without cloning either concept tree.
    pub fn intern_negated(&mut self, c: &Concept) -> ConceptId {
        match c {
            Concept::Top => self.intern_with_complement(CKind::Bottom, CKind::Top),
            Concept::Bottom => self.intern_with_complement(CKind::Top, CKind::Bottom),
            Concept::Atomic(a) => {
                self.intern_with_complement(CKind::NotAtomic(*a), CKind::Atomic(*a))
            }
            Concept::NotAtomic(a) => {
                self.intern_with_complement(CKind::Atomic(*a), CKind::NotAtomic(*a))
            }
            // De Morgan: the negation flips the connective, the children
            // are negated recursively.
            Concept::And(cs) => {
                let ids = self.intern_children_negated(cs);
                self.insert(CKind::Or(ids))
            }
            Concept::Or(cs) => {
                let ids = self.intern_children_negated(cs);
                self.insert(CKind::And(ids))
            }
            Concept::Exists(r, body) => {
                let body = self.intern_negated(body);
                self.insert(CKind::ForAll(role_expr_id(*r), body))
            }
            Concept::ForAll(r, body) => {
                let body = self.intern_negated(body);
                self.insert(CKind::Exists(role_expr_id(*r), body))
            }
            // ¬(≥n R) = ≤(n-1) R, except ¬(≥0 R) = ¬⊤ = ⊥.
            Concept::AtLeast(0, _) => self.intern_with_complement(CKind::Bottom, CKind::Top),
            Concept::AtLeast(n, r) => self.insert(CKind::AtMost(n - 1, role_expr_id(*r))),
            // ¬(≤n R) = ≥(n+1) R.
            Concept::AtMost(n, r) => self.insert(CKind::AtLeast(n + 1, role_expr_id(*r))),
        }
    }

    fn intern_children(&mut self, cs: &[Concept]) -> Box<[ConceptId]> {
        let mut ids: Vec<ConceptId> = cs.iter().map(|c| self.intern(c)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_boxed_slice()
    }

    fn intern_children_negated(&mut self, cs: &[Concept]) -> Box<[ConceptId]> {
        let mut ids: Vec<ConceptId> = cs.iter().map(|c| self.intern_negated(c)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_boxed_slice()
    }

    /// Rebuild the [`Concept`] tree of `id` (inverse of [`Arena::intern`]
    /// up to `⊓`/`⊔` argument order).
    pub fn resolve(&self, id: ConceptId) -> Concept {
        match self.kind(id) {
            CKind::Top => Concept::Top,
            CKind::Bottom => Concept::Bottom,
            CKind::Atomic(a) => Concept::Atomic(*a),
            CKind::NotAtomic(a) => Concept::NotAtomic(*a),
            CKind::And(ids) => Concept::And(ids.iter().map(|i| self.resolve(*i)).collect()),
            CKind::Or(ids) => Concept::Or(ids.iter().map(|i| self.resolve(*i)).collect()),
            CKind::Exists(r, body) => {
                Concept::Exists(role_expr_of(*r), Box::new(self.resolve(*body)))
            }
            CKind::ForAll(r, body) => {
                Concept::ForAll(role_expr_of(*r), Box::new(self.resolve(*body)))
            }
            CKind::AtLeast(n, r) => Concept::AtLeast(*n, role_expr_of(*r)),
            CKind::AtMost(n, r) => Concept::AtMost(*n, role_expr_of(*r)),
        }
    }
}

impl fmt::Display for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_expr_id_round_trip() {
        for r in
            [RoleExpr::direct(0), RoleExpr::inv_of(0), RoleExpr::direct(7), RoleExpr::inv_of(7)]
        {
            assert_eq!(role_expr_of(role_expr_id(r)), r);
            assert_eq!(role_expr_of(invert_role_expr(role_expr_id(r))), r.inverse());
        }
    }

    #[test]
    fn interning_deduplicates_structurally() {
        let mut a = Arena::new();
        let c1 = Concept::Exists(RoleExpr::direct(0), Box::new(Concept::Atomic(3)));
        let c2 = Concept::Exists(RoleExpr::direct(0), Box::new(Concept::Atomic(3)));
        assert_eq!(a.intern(&c1), a.intern(&c2));
        let distinct = Concept::Exists(RoleExpr::inv_of(0), Box::new(Concept::Atomic(3)));
        assert_ne!(a.intern(&c1), a.intern(&distinct));
    }

    #[test]
    fn and_or_canonicalized_as_sets() {
        let mut a = Arena::new();
        let ab = Concept::And(vec![Concept::Atomic(0), Concept::Atomic(1)]);
        let ba = Concept::And(vec![Concept::Atomic(1), Concept::Atomic(0), Concept::Atomic(1)]);
        assert_eq!(a.intern(&ab), a.intern(&ba));
        let or1 = Concept::Or(vec![Concept::Atomic(0), Concept::Atomic(1)]);
        assert_ne!(a.intern(&ab), a.intern(&or1));
    }

    #[test]
    fn resolve_round_trips() {
        let mut a = Arena::new();
        let samples = [
            Concept::Top,
            Concept::Bottom,
            Concept::Atomic(4),
            Concept::NotAtomic(4),
            Concept::and([Concept::Atomic(0), Concept::some(RoleExpr::direct(1))]),
            Concept::or([
                Concept::AtMost(2, RoleExpr::inv_of(0)),
                Concept::AtLeast(1, RoleExpr::direct(2)),
            ]),
            Concept::ForAll(RoleExpr::inv_of(3), Box::new(Concept::NotAtomic(2))),
        ];
        for c in samples {
            let id = a.intern(&c);
            let back = a.resolve(id);
            // Round trip is exact up to And/Or ordering; re-interning the
            // resolved tree must reach the same id.
            assert_eq!(a.intern(&back), id, "{c} did not round-trip");
        }
    }

    #[test]
    fn nnf_invariants_survive_hash_consing() {
        // not(not(C)) interns to the same id as C, and the NNF dualities
        // hold at the id level.
        let mut a = Arena::new();
        let samples = [
            Concept::Atomic(0),
            Concept::and([Concept::Atomic(0), Concept::NotAtomic(1)]),
            Concept::Exists(RoleExpr::direct(0), Box::new(Concept::Atomic(1))),
            Concept::AtMost(2, RoleExpr::direct(1)),
        ];
        for c in samples {
            let id = a.intern(&c);
            let double_neg = a.intern(&Concept::not(Concept::not(c.clone())));
            assert_eq!(id, double_neg, "¬¬{c} changed id");
        }
        // Negation at the leaves only: interning ¬(A ⊓ B) yields an Or of
        // negated atoms, never a negated And.
        let neg = a.intern(&Concept::not(Concept::and([Concept::Atomic(0), Concept::Atomic(1)])));
        match a.kind(neg) {
            CKind::Or(ids) => {
                for i in ids.iter() {
                    assert!(matches!(a.kind(*i), CKind::NotAtomic(_)));
                }
            }
            other => panic!("expected Or of negated atoms, got {other:?}"),
        }
    }

    #[test]
    fn intern_negated_matches_interned_negation() {
        let mut a = Arena::new();
        let samples = [
            Concept::Top,
            Concept::Bottom,
            Concept::Atomic(2),
            Concept::NotAtomic(2),
            Concept::and([Concept::Atomic(0), Concept::NotAtomic(1)]),
            Concept::or([Concept::Atomic(0), Concept::some(RoleExpr::direct(1))]),
            Concept::Exists(RoleExpr::inv_of(0), Box::new(Concept::Atomic(3))),
            Concept::ForAll(RoleExpr::direct(2), Box::new(Concept::NotAtomic(3))),
            Concept::AtLeast(0, RoleExpr::direct(0)),
            Concept::AtLeast(3, RoleExpr::direct(0)),
            Concept::AtMost(2, RoleExpr::inv_of(1)),
            Concept::and([
                Concept::Atomic(0),
                Concept::or([Concept::NotAtomic(1), Concept::AtMost(1, RoleExpr::direct(0))]),
            ]),
        ];
        for c in samples {
            let via_tree = a.intern(&Concept::not(c.clone()));
            let direct = a.intern_negated(&c);
            assert_eq!(direct, via_tree, "intern_negated diverged on ¬({c})");
            // Double negation through the id-level path agrees with the
            // tree path too (they coincide with `c` except for `≥0 R`,
            // where NNF collapses ¬¬(≥0 R) to ⊤ on both paths).
            let resolved = a.resolve(direct);
            let back = a.intern_negated(&resolved);
            let via_trees = a.intern(&Concept::not(Concept::not(c.clone())));
            assert_eq!(back, via_trees, "¬¬({c}) diverged between paths");
        }
    }

    #[test]
    fn atom_complements_are_mutual() {
        let mut a = Arena::new();
        let p = a.intern(&Concept::Atomic(5));
        let np = a.intern(&Concept::NotAtomic(5));
        assert_eq!(a.atom_complement(p), Some(np));
        assert_eq!(a.atom_complement(np), Some(p));
        let top = a.intern(&Concept::Top);
        let bot = a.intern(&Concept::Bottom);
        assert_eq!(a.atom_complement(top), Some(bot));
        // Complex concepts carry no complement.
        let ex = a.intern(&Concept::some(RoleExpr::direct(0)));
        assert_eq!(a.atom_complement(ex), None);
    }

    #[test]
    fn mixes_are_distinct_and_stable() {
        let mut a = Arena::new();
        let x = a.intern(&Concept::Atomic(0));
        let y = a.intern(&Concept::Atomic(1));
        assert_ne!(a.mix(x), a.mix(y));
        let x_again = a.intern(&Concept::Atomic(0));
        assert_eq!(a.mix(x), a.mix(x_again));
        // XOR self-inverse: inserting then removing restores the label hash.
        let mut h = 0u64;
        h ^= a.mix(x);
        h ^= a.mix(y);
        h ^= a.mix(x);
        h ^= a.mix(y);
        assert_eq!(h, 0);
    }
}
