//! TBoxes: concept axioms, role hierarchy and role disjointness.
//!
//! Besides the axiom store, this module hosts [`RoleClosure`]: the
//! reflexive-transitive super-role relation (closed under inversion)
//! precomputed once per satisfiability check as per-role-expression
//! bitsets. The tableau's neighbour tests and edge-disjointness checks
//! index these bitsets instead of re-walking the inclusion list on every
//! call, which [`TBox::super_roles`] / [`TBox::is_subrole`] do.

use crate::absorb::Absorbed;
use crate::arena::{role_expr_id, RoleExprId};
use crate::concept::{AtomId, Concept, RoleExpr, RoleNameId};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Which axiom store a provenance id points into. Paired with a per-store
/// index in [`AxiomId`]; the per-store indices are append-stable, so an id
/// handed out at insertion keeps naming the same axiom across any sequence
/// of pure additions (destructive edits such as [`TBox::retract_gci`] may
/// shift them — exactly the edits that already invalidate every cache).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AxiomKind {
    /// A general concept inclusion ([`TBox::gci`]).
    Gci,
    /// A role inclusion ([`TBox::role_inclusion`]).
    RoleInclusion,
    /// A role disjointness pair ([`TBox::disjoint`]).
    Disjointness,
}

/// Provenance id of one TBox axiom, assigned at insertion (the mutating
/// methods return it). Unsat cores ([`crate::explain`]) are sets of these,
/// and `orm_to_dl` keys its ORM-constraint provenance table on them.
///
/// ```
/// use orm_dl::concept::Concept;
/// use orm_dl::tbox::{AxiomId, AxiomKind, AxiomRef, TBox};
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// let id: AxiomId = tbox.gci(a.clone(), Concept::Bottom);
/// assert_eq!(id, AxiomId { kind: AxiomKind::Gci, index: 0 });
/// match tbox.axiom(id) {
///     AxiomRef::Gci(c, d) => assert_eq!((c, d), (&a, &Concept::Bottom)),
///     other => panic!("expected a GCI, got {other:?}"),
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AxiomId {
    /// The store the axiom lives in.
    pub kind: AxiomKind,
    /// Position within that store (insertion order).
    pub index: u32,
}

impl std::fmt::Display for AxiomId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.kind {
            AxiomKind::Gci => "gci",
            AxiomKind::RoleInclusion => "ri",
            AxiomKind::Disjointness => "dj",
        };
        write!(f, "{tag}#{}", self.index)
    }
}

/// A borrowed view of one axiom, resolved from an [`AxiomId`] by
/// [`TBox::axiom`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxiomRef<'a> {
    /// `C ⊑ D`.
    Gci(&'a Concept, &'a Concept),
    /// `sub ⊑ sup` over role expressions.
    RoleInclusion(RoleExpr, RoleExpr),
    /// `a` and `b` are disjoint.
    Disjointness(RoleExpr, RoleExpr),
}

/// The kind of one recorded TBox mutation, appended to the delta log by
/// every revision bump.
///
/// The first three kinds are *pure additions*: they shrink the TBox's
/// model class monotonically (every model of the new TBox is a model of
/// the old one), which is what lets [`crate::cache::SatCache`] keep
/// `Unsat` verdicts outright and revalidate `Sat` witnesses instead of
/// clearing wholesale. `Destructive` covers everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// A general concept inclusion was appended ([`TBox::gci`]).
    Gci,
    /// A role inclusion was appended ([`TBox::role_inclusion`]).
    RoleInclusion,
    /// A role disjointness pair was appended ([`TBox::disjoint`]).
    Disjointness,
    /// A non-monotone edit (e.g. [`TBox::retract_gci`]); caches must
    /// discard everything proved before it.
    Destructive,
}

/// What happened to a TBox between an observed revision and now — the
/// question [`TBox::delta_since`] answers for revision-stamped caches.
#[derive(Clone, Copy, Debug)]
pub enum Delta<'a> {
    /// No mutation at all: every cached fact still stands.
    Unchanged,
    /// Only pure additions: the borrowed tails list exactly the axioms
    /// that arrived since the observed revision.
    Additions(AdditionDelta<'a>),
    /// At least one destructive edit (or an unrecognizable revision):
    /// nothing proved before can be trusted.
    Destructive,
}

/// The axioms added between two revisions of a purely-grown TBox
/// (borrowed tails of the axiom stores, in insertion order).
#[derive(Clone, Copy, Debug)]
pub struct AdditionDelta<'a> {
    /// GCIs `C ⊑ D` appended since the observed revision.
    pub gcis: &'a [(Concept, Concept)],
    /// Role inclusions appended since the observed revision.
    pub role_inclusions: &'a [(RoleExpr, RoleExpr)],
    /// Disjoint role pairs appended since the observed revision.
    pub disjoint_roles: &'a [(RoleExpr, RoleExpr)],
}

impl AdditionDelta<'_> {
    /// Whether the delta contains no axioms at all (revision churn from
    /// edits that cannot affect verdicts).
    pub fn is_empty(&self) -> bool {
        self.gcis.is_empty() && self.role_inclusions.is_empty() && self.disjoint_roles.is_empty()
    }
}

/// A terminology: named atoms/roles, general concept inclusions, role
/// inclusions and role disjointness pairs.
///
/// Every TBox carries a *cache stamp* ([`TBox::cache_stamp`]): a
/// process-unique identity assigned at construction plus a revision
/// counter bumped by every axiom mutation. Since PR 4 the revision is the
/// length of a **delta log** ([`TBox::delta_since`]) recording each
/// mutation's [`EditKind`], so a cache holding entries proved at revision
/// `r` can ask *what* happened since `r` — pure additions admit
/// entry-level retention ([`crate::cache::SatCache`]) where the flat
/// counter could only clear wholesale. Clones receive a fresh identity,
/// so two TBoxes that diverge after a clone can never alias each other's
/// cache lines. Interning a *fresh* atom or role name is deliberately
/// **not** a mutation: a name mentioned by no axiom cannot change any
/// verdict.
#[derive(Debug)]
pub struct TBox {
    atom_names: Vec<String>,
    /// Name → id index (interning used to be an `O(n)` scan per call).
    atom_index: HashMap<String, AtomId>,
    role_names: Vec<String>,
    role_index: HashMap<String, RoleNameId>,
    gcis: Vec<(Concept, Concept)>,
    /// Role inclusions `sub ⊑ sup` (over role expressions; closed under
    /// inversion on query).
    role_inclusions: Vec<(RoleExpr, RoleExpr)>,
    /// Pairs of disjoint role expressions.
    disjoint_roles: Vec<(RoleExpr, RoleExpr)>,
    /// Process-unique identity (fresh per construction and per clone).
    uid: u64,
    /// One entry per mutation; the revision is the log length.
    log: Vec<EditKind>,
    /// The absorbed rule set, memoized per revision (rebuilt lazily when
    /// the log has grown; built by the first proof, never by a mutation).
    absorbed_memo: Mutex<Option<(u64, Arc<Absorbed>)>>,
}

fn next_tbox_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for TBox {
    fn default() -> TBox {
        TBox {
            atom_names: Vec::new(),
            atom_index: HashMap::new(),
            role_names: Vec::new(),
            role_index: HashMap::new(),
            gcis: Vec::new(),
            role_inclusions: Vec::new(),
            disjoint_roles: Vec::new(),
            uid: next_tbox_uid(),
            log: Vec::new(),
            absorbed_memo: Mutex::new(None),
        }
    }
}

impl Clone for TBox {
    /// Clones carry the same axioms but a *fresh* cache identity: a clone
    /// is free to diverge from the original, so verdicts proved against
    /// one must never be replayed against the other.
    fn clone(&self) -> TBox {
        TBox {
            atom_names: self.atom_names.clone(),
            atom_index: self.atom_index.clone(),
            role_names: self.role_names.clone(),
            role_index: self.role_index.clone(),
            gcis: self.gcis.clone(),
            role_inclusions: self.role_inclusions.clone(),
            disjoint_roles: self.disjoint_roles.clone(),
            uid: next_tbox_uid(),
            log: self.log.clone(),
            absorbed_memo: Mutex::new(self.absorbed_memo.lock().clone()),
        }
    }
}

impl TBox {
    /// Empty TBox.
    pub fn new() -> TBox {
        TBox::default()
    }

    /// The `(identity, revision)` pair caches key their entries on: the
    /// identity is process-unique per TBox value (clones get their own)
    /// and the revision increments on every axiom mutation (the delta-log
    /// length — see [`TBox::delta_since`]).
    pub fn cache_stamp(&self) -> (u64, u64) {
        (self.uid, self.revision())
    }

    /// Current revision: the number of axiom mutations recorded in the
    /// delta log. Interning fresh names does not count.
    pub fn revision(&self) -> u64 {
        self.log.len() as u64
    }

    /// What happened between `revision` (a value previously read off
    /// [`TBox::cache_stamp`] for *this* TBox) and now.
    ///
    /// Returns [`Delta::Additions`] with the exact axiom tails when every
    /// intervening mutation was a pure addition, so a cache can retain
    /// monotone-safe entries and revalidate the rest against just the new
    /// axioms; any destructive entry in the window (or a revision this
    /// TBox never reached) degrades to [`Delta::Destructive`].
    pub fn delta_since(&self, revision: u64) -> Delta<'_> {
        let now = self.revision();
        if revision == now {
            return Delta::Unchanged;
        }
        if revision > now {
            return Delta::Destructive;
        }
        let tail = &self.log[revision as usize..];
        if tail.contains(&EditKind::Destructive) {
            return Delta::Destructive;
        }
        let count = |kind: EditKind| tail.iter().filter(|k| **k == kind).count();
        let (g, ri, dj) =
            (count(EditKind::Gci), count(EditKind::RoleInclusion), count(EditKind::Disjointness));
        Delta::Additions(AdditionDelta {
            gcis: &self.gcis[self.gcis.len() - g..],
            role_inclusions: &self.role_inclusions[self.role_inclusions.len() - ri..],
            disjoint_roles: &self.disjoint_roles[self.disjoint_roles.len() - dj..],
        })
    }

    /// Intern an atomic concept name.
    ///
    /// Interning a *fresh* name is not a mutation: an atom mentioned by
    /// no axiom cannot change any verdict, so the revision (and with it
    /// every cached verdict) is left alone.
    pub fn atom(&mut self, name: impl Into<String>) -> AtomId {
        let name = name.into();
        if let Some(&id) = self.atom_index.get(&name) {
            return id;
        }
        let id = self.atom_names.len() as AtomId;
        self.atom_index.insert(name.clone(), id);
        self.atom_names.push(name);
        id
    }

    /// Intern a role name (fresh names are not mutations, as with
    /// [`TBox::atom`]).
    pub fn role(&mut self, name: impl Into<String>) -> RoleNameId {
        let name = name.into();
        if let Some(&id) = self.role_index.get(&name) {
            return id;
        }
        let id = self.role_names.len() as RoleNameId;
        self.role_index.insert(name.clone(), id);
        self.role_names.push(name);
        id
    }

    /// Resolve an atom's name.
    pub fn atom_name(&self, id: AtomId) -> &str {
        &self.atom_names[id as usize]
    }

    /// Resolve a role's name.
    pub fn role_name(&self, id: RoleNameId) -> &str {
        &self.role_names[id as usize]
    }

    /// Add a general concept inclusion `c ⊑ d`, returning its provenance
    /// id.
    pub fn gci(&mut self, c: Concept, d: Concept) -> AxiomId {
        self.log.push(EditKind::Gci);
        self.gcis.push((c, d));
        AxiomId { kind: AxiomKind::Gci, index: (self.gcis.len() - 1) as u32 }
    }

    /// Add a role inclusion `sub ⊑ sup` (its inverse form `sub⁻ ⊑ sup⁻` is
    /// implied automatically), returning its provenance id.
    pub fn role_inclusion(&mut self, sub: RoleExpr, sup: RoleExpr) -> AxiomId {
        self.log.push(EditKind::RoleInclusion);
        self.role_inclusions.push((sub, sup));
        AxiomId { kind: AxiomKind::RoleInclusion, index: (self.role_inclusions.len() - 1) as u32 }
    }

    /// Declare two role expressions disjoint, returning the declaration's
    /// provenance id.
    pub fn disjoint(&mut self, a: RoleExpr, b: RoleExpr) -> AxiomId {
        self.log.push(EditKind::Disjointness);
        self.disjoint_roles.push((a, b));
        AxiomId { kind: AxiomKind::Disjointness, index: (self.disjoint_roles.len() - 1) as u32 }
    }

    /// Total number of axioms across all three stores.
    pub fn axiom_count(&self) -> usize {
        self.gcis.len() + self.role_inclusions.len() + self.disjoint_roles.len()
    }

    /// Every current axiom's provenance id, in the canonical *flat order*
    /// (all GCIs, then all role inclusions, then all disjointness pairs —
    /// the order [`TBox::axiom_id_at_flat`] indexes).
    pub fn axiom_ids(&self) -> impl Iterator<Item = AxiomId> + '_ {
        let gci = (0..self.gcis.len() as u32).map(|index| AxiomId { kind: AxiomKind::Gci, index });
        let ri = (0..self.role_inclusions.len() as u32)
            .map(|index| AxiomId { kind: AxiomKind::RoleInclusion, index });
        let dj = (0..self.disjoint_roles.len() as u32)
            .map(|index| AxiomId { kind: AxiomKind::Disjointness, index });
        gci.chain(ri).chain(dj)
    }

    /// Resolve a provenance id to its axiom.
    ///
    /// # Panics
    /// Panics when `id.index` is out of bounds for its store (an id minted
    /// by a different TBox, or orphaned by a destructive edit).
    pub fn axiom(&self, id: AxiomId) -> AxiomRef<'_> {
        match id.kind {
            AxiomKind::Gci => {
                let (c, d) = &self.gcis[id.index as usize];
                AxiomRef::Gci(c, d)
            }
            AxiomKind::RoleInclusion => {
                let (sub, sup) = self.role_inclusions[id.index as usize];
                AxiomRef::RoleInclusion(sub, sup)
            }
            AxiomKind::Disjointness => {
                let (a, b) = self.disjoint_roles[id.index as usize];
                AxiomRef::Disjointness(a, b)
            }
        }
    }

    /// The provenance id at position `flat` of the canonical flat order
    /// (see [`TBox::axiom_ids`]); `None` past the end. The tableau's
    /// axiom-usage bitmasks are indexed in this order.
    pub fn axiom_id_at_flat(&self, flat: usize) -> Option<AxiomId> {
        let (g, ri) = (self.gcis.len(), self.role_inclusions.len());
        if flat < g {
            Some(AxiomId { kind: AxiomKind::Gci, index: flat as u32 })
        } else if flat < g + ri {
            Some(AxiomId { kind: AxiomKind::RoleInclusion, index: (flat - g) as u32 })
        } else if flat < self.axiom_count() {
            Some(AxiomId { kind: AxiomKind::Disjointness, index: (flat - g - ri) as u32 })
        } else {
            None
        }
    }

    /// The delta-log position at which `id`'s axiom was recorded — the
    /// **edit recency** repair ranking sorts by (a larger position means a
    /// later edit). Reconstructed from the log: per-kind indices are
    /// insertion-ordered, so axiom `{kind, index}` was logged at the
    /// position of the `(index + 1)`-th entry of its matching
    /// [`EditKind`]. Exact on addition-only histories; after a
    /// destructive edit the surviving indices shift and the mapping is
    /// best-effort (it may attribute an axiom to an earlier, retracted
    /// sibling's log slot). `None` when the log holds too few entries of
    /// the kind (an id from a different TBox).
    pub fn axiom_recency(&self, id: AxiomId) -> Option<u64> {
        let wanted = match id.kind {
            AxiomKind::Gci => EditKind::Gci,
            AxiomKind::RoleInclusion => EditKind::RoleInclusion,
            AxiomKind::Disjointness => EditKind::Disjointness,
        };
        let mut seen = 0u32;
        for (pos, kind) in self.log.iter().enumerate() {
            if *kind == wanted {
                if seen == id.index {
                    return Some(pos as u64);
                }
                seen += 1;
            }
        }
        None
    }

    /// A new TBox with the same interned names (atom and role ids stay
    /// valid) but only the axioms named in `keep` — the sub-terminology a
    /// candidate unsat core induces ([`crate::explain`] proves cores
    /// against these). Duplicate ids contribute one axiom each time they
    /// appear; the new TBox has a fresh cache identity.
    pub fn restrict_to(&self, keep: &[AxiomId]) -> TBox {
        let mut out = TBox::new();
        for name in &self.atom_names {
            out.atom(name.clone());
        }
        for name in &self.role_names {
            out.role(name.clone());
        }
        for &id in keep {
            match self.axiom(id) {
                AxiomRef::Gci(c, d) => {
                    out.gci(c.clone(), d.clone());
                }
                AxiomRef::RoleInclusion(sub, sup) => {
                    out.role_inclusion(sub, sup);
                }
                AxiomRef::Disjointness(a, b) => {
                    out.disjoint(a, b);
                }
            }
        }
        out
    }

    /// Remove the GCI at `index` (an editor deleting a constraint) and
    /// return it. A **destructive** edit: unlike additions, removals grow
    /// the model class, so every cached verdict proved before it is
    /// discarded wholesale on the next query.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds (before the log records
    /// anything, so a caught panic leaves no phantom destructive entry).
    pub fn retract_gci(&mut self, index: usize) -> (Concept, Concept) {
        let removed = self.gcis.remove(index);
        self.log.push(EditKind::Destructive);
        removed
    }

    /// The concept inclusions.
    pub fn gcis(&self) -> &[(Concept, Concept)] {
        &self.gcis
    }

    /// The role inclusions `sub ⊑ sup`, in insertion order.
    pub fn role_inclusion_axioms(&self) -> &[(RoleExpr, RoleExpr)] {
        &self.role_inclusions
    }

    /// The disjoint role pairs, in insertion order.
    pub fn disjoint_role_axioms(&self) -> &[(RoleExpr, RoleExpr)] {
        &self.disjoint_roles
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.atom_names.len()
    }

    /// Number of interned role names.
    pub fn role_count(&self) -> usize {
        self.role_names.len()
    }

    /// Precompute the sub-role closure and disjointness tables used by the
    /// tableau engine (one pass per satisfiability check, replacing the
    /// per-call [`TBox::is_subrole`] walks on the hot path).
    pub fn role_closure(&self) -> RoleClosure {
        RoleClosure::build(self)
    }

    /// The TBox compiled into the trail engine's absorbed rules (see
    /// [`crate::absorb`]): lazy unfolding, told disjointness and
    /// domain/range rules, plus the internalized residue.
    ///
    /// Memoized per revision and built by the first proof that asks —
    /// mutators never build it, so an edit pays nothing for it.
    pub fn absorbed(&self) -> Arc<Absorbed> {
        let revision = self.revision();
        let mut memo = self.absorbed_memo.lock();
        if let Some((rev, absorbed)) = memo.as_ref() {
            if *rev == revision {
                return Arc::clone(absorbed);
            }
        }
        let built = Arc::new(Absorbed::compile(self));
        *memo = Some((revision, Arc::clone(&built)));
        built
    }

    /// All super-role expressions of `role`, reflexively and transitively,
    /// closing inclusions under inversion (worklist fixed point — the
    /// previous version re-cloned the whole result set per inner pass).
    pub fn super_roles(&self, role: RoleExpr) -> BTreeSet<RoleExpr> {
        let mut out = BTreeSet::from([role]);
        let mut work = vec![role];
        while let Some(r) = work.pop() {
            for (sub, sup) in &self.role_inclusions {
                if r == *sub && out.insert(*sup) {
                    work.push(*sup);
                }
                if r == sub.inverse() && out.insert(sup.inverse()) {
                    work.push(sup.inverse());
                }
            }
        }
        out
    }

    /// Whether `sub ⊑* sup` holds in the role hierarchy.
    pub fn is_subrole(&self, sub: RoleExpr, sup: RoleExpr) -> bool {
        self.super_roles(sub).contains(&sup)
    }

    /// Whether a set of role expressions held by one edge violates a role
    /// disjointness declaration (considering the hierarchy upward closure).
    pub fn edge_violates_disjointness(&self, labels: &BTreeSet<RoleExpr>) -> bool {
        let mut closure: BTreeSet<RoleExpr> = BTreeSet::new();
        for l in labels {
            closure.extend(self.super_roles(*l));
        }
        for (a, b) in &self.disjoint_roles {
            let has = |r: RoleExpr| closure.contains(&r);
            // Disjointness is direction-sensitive but closed under joint
            // inversion: R ⊓ S = ∅ ⟺ R⁻ ⊓ S⁻ = ∅.
            if (has(*a) && has(*b)) || (has(a.inverse()) && has(b.inverse())) {
                return true;
            }
        }
        false
    }
}

/// Precomputed role-hierarchy tables, indexed by [`RoleExprId`].
///
/// `closure` stores, for every role expression `r`, the bitset of all
/// `s ⊒ r` (reflexively, transitively, closed under inversion: `r ⊑ s`
/// implies `r⁻ ⊑ s⁻`). An edge labelled `{r₁, …}` is an `S`-edge iff the
/// union of the labels' closure rows contains `S` — one bitset test where
/// the naive engine re-derived [`TBox::super_roles`] per neighbour probe.
#[derive(Clone, Debug)]
pub struct RoleClosure {
    /// Number of role expressions (`2 ·` role names).
    n_exprs: usize,
    /// `u64` words per bitset row.
    words: usize,
    /// `n_exprs` rows of `words` words each.
    closure: Vec<u64>,
    /// Disjoint pairs as `(a, b, a⁻, b⁻)` expression ids.
    disjoint: Vec<(RoleExprId, RoleExprId, RoleExprId, RoleExprId)>,
}

impl RoleClosure {
    fn build(tbox: &TBox) -> RoleClosure {
        let n_exprs = tbox.role_count() * 2;
        let words = n_exprs.div_ceil(64).max(1);
        let mut closure = vec![0u64; n_exprs * words];
        // Direct-inclusion adjacency, closed under inversion.
        let mut direct: Vec<Vec<RoleExprId>> = vec![Vec::new(); n_exprs];
        for (sub, sup) in &tbox.role_inclusions {
            direct[role_expr_id(*sub) as usize].push(role_expr_id(*sup));
            direct[role_expr_id(sub.inverse()) as usize].push(role_expr_id(sup.inverse()));
        }
        // Reflexive-transitive closure by DFS from each expression.
        let mut stack = Vec::new();
        for start in 0..n_exprs {
            let row = start * words;
            closure[row + start / 64] |= 1 << (start % 64);
            stack.push(start as RoleExprId);
            while let Some(r) = stack.pop() {
                for &sup in &direct[r as usize] {
                    let (w, b) = (row + sup as usize / 64, 1u64 << (sup % 64));
                    if closure[w] & b == 0 {
                        closure[w] |= b;
                        stack.push(sup);
                    }
                }
            }
        }
        let disjoint = tbox
            .disjoint_roles
            .iter()
            .map(|(a, b)| {
                (
                    role_expr_id(*a),
                    role_expr_id(*b),
                    role_expr_id(a.inverse()),
                    role_expr_id(b.inverse()),
                )
            })
            .collect();
        RoleClosure { n_exprs, words, closure, disjoint }
    }

    /// Words per bitset row (size edge-closure accumulators to this).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of role expressions covered.
    pub fn n_exprs(&self) -> usize {
        self.n_exprs
    }

    /// The closure row of `r`: the bitset of all super-expressions of `r`.
    pub fn row(&self, r: RoleExprId) -> &[u64] {
        let start = r as usize * self.words;
        &self.closure[start..start + self.words]
    }

    /// Whether `sub ⊑* sup`.
    pub fn is_subrole(&self, sub: RoleExprId, sup: RoleExprId) -> bool {
        Self::contains(self.row(sub), sup)
    }

    /// Union `r`'s closure row into an accumulator bitset.
    pub fn union_row_into(&self, acc: &mut [u64], r: RoleExprId) {
        for (a, w) in acc.iter_mut().zip(self.row(r)) {
            *a |= w;
        }
    }

    /// Whether an accumulator bitset contains `r`.
    pub fn contains(acc: &[u64], r: RoleExprId) -> bool {
        acc[r as usize / 64] & (1 << (r % 64)) != 0
    }

    /// Whether an upward-closed edge bitset violates a role disjointness
    /// declaration (`R ⊓ S = ∅` is checked in both joint orientations,
    /// matching [`TBox::edge_violates_disjointness`]).
    pub fn edge_violates_disjointness(&self, acc: &[u64]) -> bool {
        self.disjoint.iter().any(|&(a, b, ai, bi)| {
            (Self::contains(acc, a) && Self::contains(acc, b))
                || (Self::contains(acc, ai) && Self::contains(acc, bi))
        })
    }

    /// Whether any disjointness declarations exist at all (lets the engine
    /// skip edge checks entirely on the common no-disjointness case).
    pub fn has_disjointness(&self) -> bool {
        !self.disjoint.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut t = TBox::new();
        let a1 = t.atom("A");
        let a2 = t.atom("A");
        assert_eq!(a1, a2);
        assert_eq!(t.atom_name(a1), "A");
        let r1 = t.role("R");
        let r2 = t.role("R");
        assert_eq!(r1, r2);
        assert_eq!(t.role_name(r1), "R");
        assert_eq!(t.atom_count(), 1);
    }

    #[test]
    fn fresh_names_do_not_bump_revision() {
        let mut t = TBox::new();
        let r0 = t.revision();
        t.atom("A");
        t.role("R");
        assert_eq!(t.revision(), r0, "fresh names must not invalidate caches");
        // Re-interning is also free.
        t.atom("A");
        assert_eq!(t.revision(), r0);
        t.gci(Concept::Atomic(0), Concept::Top);
        assert_eq!(t.revision(), r0 + 1);
    }

    #[test]
    fn delta_since_reports_addition_tails() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let r = t.role("R");
        t.gci(a.clone(), b.clone());
        let observed = t.revision();
        assert!(matches!(t.delta_since(observed), Delta::Unchanged));

        t.gci(b.clone(), a.clone());
        t.role_inclusion(RoleExpr::direct(r), RoleExpr::inv_of(r));
        t.disjoint(RoleExpr::direct(r), RoleExpr::inv_of(r));
        match t.delta_since(observed) {
            Delta::Additions(delta) => {
                assert_eq!(delta.gcis, &[(b.clone(), a.clone())]);
                assert_eq!(delta.role_inclusions.len(), 1);
                assert_eq!(delta.disjoint_roles.len(), 1);
                assert!(!delta.is_empty());
            }
            other => panic!("expected additions, got {other:?}"),
        }
        // From revision 0 the tails cover everything.
        match t.delta_since(0) {
            Delta::Additions(delta) => assert_eq!(delta.gcis.len(), 2),
            other => panic!("expected additions, got {other:?}"),
        }
    }

    #[test]
    fn delta_since_degrades_on_destruction() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Bottom);
        let observed = t.revision();
        let retracted = t.retract_gci(0);
        assert_eq!(retracted.0, a);
        assert!(t.gcis().is_empty());
        assert!(matches!(t.delta_since(observed), Delta::Destructive));
        // Additions after the destruction do not launder the window …
        t.gci(a.clone(), Concept::Top);
        assert!(matches!(t.delta_since(observed), Delta::Destructive));
        // … but a window opened after it is clean again.
        assert!(matches!(t.delta_since(t.revision()), Delta::Unchanged));
        // A revision from "the future" (e.g. a different TBox's stamp) is
        // never trusted.
        assert!(matches!(t.delta_since(t.revision() + 7), Delta::Destructive));
    }

    #[test]
    fn axiom_ids_resolve_and_flat_order_is_stable() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let r = RoleExpr::direct(t.role("R"));
        let s = RoleExpr::direct(t.role("S"));
        let g0 = t.gci(a.clone(), b.clone());
        let ri0 = t.role_inclusion(r, s);
        let dj0 = t.disjoint(r, s);
        let g1 = t.gci(b.clone(), a.clone());
        assert_eq!(t.axiom_count(), 4);
        assert_eq!(t.axiom(g0), AxiomRef::Gci(&a, &b));
        assert_eq!(t.axiom(g1), AxiomRef::Gci(&b, &a));
        assert_eq!(t.axiom(ri0), AxiomRef::RoleInclusion(r, s));
        assert_eq!(t.axiom(dj0), AxiomRef::Disjointness(r, s));
        // Flat order: GCIs, role inclusions, disjointness — and the
        // iterator agrees with the positional lookup.
        let flat: Vec<AxiomId> = t.axiom_ids().collect();
        assert_eq!(flat, vec![g0, g1, ri0, dj0]);
        for (i, id) in flat.iter().enumerate() {
            assert_eq!(t.axiom_id_at_flat(i), Some(*id));
        }
        assert_eq!(t.axiom_id_at_flat(4), None);
        // Ids are append-stable: g0 still names A ⊑ B after more growth.
        t.gci(a.clone(), Concept::Top);
        assert_eq!(t.axiom(g0), AxiomRef::Gci(&a, &b));
        assert_eq!(format!("{g0} {ri0} {dj0}"), "gci#0 ri#0 dj#0");
    }

    #[test]
    fn restrict_to_preserves_interning() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let r = RoleExpr::direct(t.role("R"));
        let g0 = t.gci(a.clone(), b.clone());
        let g1 = t.gci(b.clone(), Concept::Bottom);
        let dj = t.disjoint(r, r);
        let sub = t.restrict_to(&[g1, dj]);
        // Names (and with them every AtomId/RoleNameId baked into the kept
        // concepts) carry over unchanged.
        assert_eq!(sub.atom_count(), t.atom_count());
        assert_eq!(sub.atom_name(0), "A");
        assert_eq!(sub.role_name(0), "R");
        assert_eq!(sub.gcis(), &[(b.clone(), Concept::Bottom)]);
        assert_eq!(sub.axiom_count(), 2);
        // The restriction is a fresh TBox value: fresh cache identity.
        assert_ne!(sub.cache_stamp().0, t.cache_stamp().0);
        let _ = g0;
    }

    #[test]
    fn role_hierarchy_closure() {
        let mut t = TBox::new();
        let r = t.role("R");
        let s = t.role("S");
        let q = t.role("Q");
        t.role_inclusion(RoleExpr::direct(r), RoleExpr::direct(s));
        t.role_inclusion(RoleExpr::direct(s), RoleExpr::direct(q));
        assert!(t.is_subrole(RoleExpr::direct(r), RoleExpr::direct(q)));
        assert!(t.is_subrole(RoleExpr::direct(r), RoleExpr::direct(r)));
        assert!(!t.is_subrole(RoleExpr::direct(q), RoleExpr::direct(r)));
        // Closed under inversion.
        assert!(t.is_subrole(RoleExpr::inv_of(r), RoleExpr::inv_of(q)));
    }

    #[test]
    fn inverse_oriented_inclusion() {
        // Rf ⊑ Rg⁻ (a cross-oriented predicate subset).
        let mut t = TBox::new();
        let f = t.role("F");
        let g = t.role("G");
        t.role_inclusion(RoleExpr::direct(f), RoleExpr::inv_of(g));
        assert!(t.is_subrole(RoleExpr::direct(f), RoleExpr::inv_of(g)));
        assert!(t.is_subrole(RoleExpr::inv_of(f), RoleExpr::direct(g)));
    }

    #[test]
    fn disjointness_detection() {
        let mut t = TBox::new();
        let f = t.role("F");
        let g = t.role("G");
        t.disjoint(RoleExpr::direct(f), RoleExpr::direct(g));
        let both: BTreeSet<RoleExpr> =
            [RoleExpr::direct(f), RoleExpr::direct(g)].into_iter().collect();
        assert!(t.edge_violates_disjointness(&both));
        let inv_both: BTreeSet<RoleExpr> =
            [RoleExpr::inv_of(f), RoleExpr::inv_of(g)].into_iter().collect();
        assert!(t.edge_violates_disjointness(&inv_both));
        let single: BTreeSet<RoleExpr> = [RoleExpr::direct(f)].into_iter().collect();
        assert!(!t.edge_violates_disjointness(&single));
    }

    #[test]
    fn closure_table_agrees_with_is_subrole() {
        let mut t = TBox::new();
        let r = t.role("R");
        let s = t.role("S");
        let q = t.role("Q");
        let f = t.role("F");
        let g = t.role("G");
        t.role_inclusion(RoleExpr::direct(r), RoleExpr::direct(s));
        t.role_inclusion(RoleExpr::direct(s), RoleExpr::direct(q));
        t.role_inclusion(RoleExpr::direct(f), RoleExpr::inv_of(g));
        let table = t.role_closure();
        let exprs: Vec<RoleExpr> = (0..t.role_count() as u32)
            .flat_map(|n| [RoleExpr::direct(n), RoleExpr::inv_of(n)])
            .collect();
        for &sub in &exprs {
            for &sup in &exprs {
                assert_eq!(
                    table.is_subrole(role_expr_id(sub), role_expr_id(sup)),
                    t.is_subrole(sub, sup),
                    "closure table disagrees on {sub} ⊑ {sup}"
                );
            }
        }
    }

    #[test]
    fn closure_table_disjointness_matches() {
        let mut t = TBox::new();
        let f = t.role("F");
        let g = t.role("G");
        let h = t.role("H");
        t.role_inclusion(RoleExpr::direct(h), RoleExpr::direct(f));
        t.disjoint(RoleExpr::direct(f), RoleExpr::direct(g));
        let table = t.role_closure();
        assert!(table.has_disjointness());
        // Edge {H, G}: upward closure holds F and G → violation.
        let mut acc = vec![0u64; table.words()];
        table.union_row_into(&mut acc, role_expr_id(RoleExpr::direct(h)));
        table.union_row_into(&mut acc, role_expr_id(RoleExpr::direct(g)));
        assert!(table.edge_violates_disjointness(&acc));
        // Edge {H} alone is fine.
        let mut acc = vec![0u64; table.words()];
        table.union_row_into(&mut acc, role_expr_id(RoleExpr::direct(h)));
        assert!(!table.edge_violates_disjointness(&acc));
        // Jointly inverted orientation also violates.
        let mut acc = vec![0u64; table.words()];
        table.union_row_into(&mut acc, role_expr_id(RoleExpr::inv_of(h)));
        table.union_row_into(&mut acc, role_expr_id(RoleExpr::inv_of(g)));
        assert!(table.edge_violates_disjointness(&acc));
    }

    #[test]
    fn disjointness_through_hierarchy() {
        // H ⊑ F, F disjoint G ⇒ an edge with {H, G} clashes.
        let mut t = TBox::new();
        let f = t.role("F");
        let g = t.role("G");
        let h = t.role("H");
        t.role_inclusion(RoleExpr::direct(h), RoleExpr::direct(f));
        t.disjoint(RoleExpr::direct(f), RoleExpr::direct(g));
        let labels: BTreeSet<RoleExpr> =
            [RoleExpr::direct(h), RoleExpr::direct(g)].into_iter().collect();
        assert!(t.edge_violates_disjointness(&labels));
    }
}
