//! Tableau-based concept satisfiability with respect to a TBox.
//!
//! The procedure is the standard completion-forest tableau for ALC with
//! inverse roles, a role hierarchy and unqualified number restrictions
//! (pairwise blocking for termination, `≤`-merging) — but engineered
//! around structural decisions that replace the original clone-per-branch
//! design with a fully internalized TBox (kept in [`crate::classic`] as
//! the differential baseline):
//!
//! * **Absorbed axioms** — the GCIs are compiled once per TBox revision
//!   into rules ([`crate::absorb`]): `A ⊑ D` unfolds lazily when `A`
//!   enters a label, `A ⊓ B ⊑ ⊥` is a told-disjointness check on atom
//!   insertion, and `∃R.⊤ ⊑ D` (with `⊤ ⊑ ≤n R`, `⊤ ⊑ ∀R.D` and role
//!   exclusions) fires on the node that gains an `R`-neighbour — or an
//!   `∃R`/`≥n R` obligation, which promises one. Only the residue is
//!   internalized into every label, so a node opens no disjunction for
//!   an axiom that cannot concern it.
//! * **Hash-consed labels** — every concept is interned once into an
//!   [`crate::arena::Arena`]; node labels are sorted `Vec<ConceptId>`, so
//!   membership is a `u32` binary search, the `A ⊓ ¬A` clash test is one
//!   lookup via the precomputed atom complement, and the label equalities
//!   of pairwise blocking compare ids (after an incrementally maintained
//!   XOR fingerprint rules out almost all candidates).
//! * **Trail-based backtracking** — non-deterministic choices (`⊔`
//!   disjuncts, `≤`-merge pairs) no longer clone the forest. Every
//!   mutation (label/edge/distinctness insert, node creation, kill,
//!   reparent) pushes an undo record on a trail; a branch point is a trail
//!   mark, and abandoning a branch pops records back to the mark.
//! * **An explicit choice stack** — open choice points live on a heap
//!   stack with their marks, cursors and conflict accumulators, not in
//!   call frames: the search is one loop, and its depth in decision
//!   levels is bounded by memory, never by the thread's stack.
//! * **Incremental scheduling** — a dirty-node worklist drives the
//!   deterministic rules (`∀`-propagation, clash detection) instead of a
//!   full-forest rescan per iteration; `⊔`/`∃`/`≥` candidates live on
//!   agendas written at label-insert time, consumed through
//!   rollback-aware cursors; and role-hierarchy queries go through the
//!   [`crate::tbox::RoleClosure`] bitsets (per-edge upward closures
//!   maintained on the nodes) rather than per-call `is_subrole` walks.
//! * **Anywhere blocking** — a node is blocked by *any* earlier unblocked
//!   node whose pair (node, parent, edge) it mirrors, not only by an
//!   ancestor, so each kind of node pair is expanded once per forest.
//! * **Dependency-directed backjumping** — every derived fact (label
//!   member, edge role, distinctness pair, node creation) carries a
//!   *dependency set*: the set of open choice points (`⊔` disjunct and
//!   `≤`-merge decisions) it transitively rests on, encoded as a `u64`
//!   bitmask over decision levels. A clash reports the union of its
//!   culprits' dependency sets; when a choice point's alternatives are
//!   refuted by a conflict that does not mention the choice's own level,
//!   the remaining alternatives are skipped and the conflict propagates
//!   to the deepest relevant choice point directly — the DPLL→CDCL
//!   non-chronological jump, threaded through the trail. Levels beyond 63
//!   share the saturation bit 63 and never skip (strictly conservative,
//!   so verdicts are unaffected).
//! * **Axiom-usage tracking** — alongside each fact's decision-level
//!   dependency set rides an *axiom set*: a bitmask over the TBox's
//!   axioms (in [`TBox::axiom_id_at_flat`] order, saturating at bit 63
//!   like the decision bits) naming which axioms the fact transitively
//!   rests on. Every absorbed rule and residual conjunct carries its own
//!   GCI's bit; edge facts carry the role-inclusion axioms
//!   (conservatively, all of them — the role closure may have used any);
//!   disjointness clashes add the disjointness declarations. A clash's
//!   conflict therefore reports not just *which choices* but *which
//!   axioms* it used — the seed [`crate::explain`] shrinks into a minimal
//!   unsat core. The sets are over-approximations by construction; only
//!   [`satisfiable_with_conflict_cx`] reads them.
//!
//! # Budget semantics
//!
//! Every entry point runs under an [`ExecCx`]. Its per-proof step budget
//! ([`ExecCx::with_steps`]) counts **rule applications**, exactly as in
//! the original engine: one unit per scheduler step — processing one
//! dirty node (`∀`-propagation plus that node's clash checks), opening
//! one non-deterministic choice point (`⊔` or `≤`), applying one
//! generating rule (`∃`/`≥`), or certifying completeness at quiescence.
//! Label insertions (with their conjuncts and absorbed rules) are part of
//! the step that makes them, and a clash found while seeding the root
//! costs nothing. The count is global across all branches of the search,
//! not per branch. When the budget reaches zero before the search
//! concludes, the verdict is [`SearchOutcome::BudgetExhausted`] — never a
//! wrong answer. Only granted steps reach the context's meter, so one
//! proof meters at most its budget. The budget is the knob callers (e.g.
//! `Translation::type_satisfiable_cx`) use to bound the exponential worst
//! case the paper attributes to complete DL reasoning (§4).

use crate::absorb::Absorbed;
use crate::arena::{invert_role_expr, Arena, CKind, ConceptId, RoleExprId};
use crate::concept::Concept;
use crate::exec::{ExecCx, Interrupt, CHECK_INTERVAL};
use crate::tbox::{AxiomId, RoleClosure, TBox};
use std::collections::HashMap;
use std::sync::Arc;

/// Verdict of a satisfiability check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DlOutcome {
    /// A clash-free, fully expanded completion forest exists.
    Sat,
    /// Every branch clashes.
    Unsat,
    /// The rule budget was exhausted before an answer was certain.
    ResourceLimit,
}

/// Verdict of a context-driven search ([`satisfiable_cx`] and friends):
/// the two certain answers plus the three *distinct* ways a run can stop
/// without one. The three-way [`DlOutcome`] collapses all three resource
/// variants into `ResourceLimit`; context-aware callers need to tell
/// them apart — a `BudgetExhausted` is a per-proof policy outcome worth
/// caching (stamped with the budget it starved at), while `Cancelled`
/// and `DeadlineExceeded` are external interruptions that say nothing
/// about the proof and must never produce a cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A clash-free, fully expanded completion forest exists.
    Sat,
    /// Every branch clashes.
    Unsat,
    /// The context's per-proof step budget ran out mid-search.
    BudgetExhausted,
    /// The context's wall-clock deadline passed mid-search.
    DeadlineExceeded,
    /// The context's cancellation token was tripped mid-search.
    Cancelled,
}

impl SearchOutcome {
    /// The external interruption behind this outcome, if any.
    #[must_use]
    pub fn interrupt(self) -> Option<Interrupt> {
        match self {
            SearchOutcome::Cancelled => Some(Interrupt::Cancelled),
            SearchOutcome::DeadlineExceeded => Some(Interrupt::DeadlineExceeded),
            _ => None,
        }
    }

    /// Whether the search reached a certain verdict (`Sat` or `Unsat`).
    #[must_use]
    pub fn is_verdict(self) -> bool {
        matches!(self, SearchOutcome::Sat | SearchOutcome::Unsat)
    }
}

impl From<Interrupt> for SearchOutcome {
    fn from(interrupt: Interrupt) -> Self {
        match interrupt {
            Interrupt::Cancelled => SearchOutcome::Cancelled,
            Interrupt::DeadlineExceeded => SearchOutcome::DeadlineExceeded,
        }
    }
}

impl From<SearchOutcome> for DlOutcome {
    /// Collapse to the three-way verdict: every way of stopping
    /// without an answer is a `ResourceLimit` — never a wrong verdict.
    fn from(outcome: SearchOutcome) -> Self {
        match outcome {
            SearchOutcome::Sat => DlOutcome::Sat,
            SearchOutcome::Unsat => DlOutcome::Unsat,
            SearchOutcome::BudgetExhausted
            | SearchOutcome::DeadlineExceeded
            | SearchOutcome::Cancelled => DlOutcome::ResourceLimit,
        }
    }
}

/// Check satisfiability of `query` with respect to `tbox` under an
/// execution context: the per-proof step budget comes from
/// [`ExecCx::steps`] (see the module docs for what one step buys), the
/// deadline and cancellation token are checked cooperatively at every
/// worklist pop and choice point, and the run's step count is flushed into
/// the context's [`crate::exec::Meter`]. An interrupted run reports the
/// *distinct* [`SearchOutcome`] variant — never a wrong verdict; callers
/// wanting the three-way verdict convert with `.into()` to [`DlOutcome`].
///
/// Each call proves its verdict from scratch; batch workloads that re-ask
/// overlapping queries should route through
/// [`crate::cache::SatCache::satisfiable_cx`].
///
/// ```
/// use orm_dl::concept::Concept;
/// use orm_dl::exec::ExecCx;
/// use orm_dl::tableau::{satisfiable_cx, SearchOutcome};
/// use orm_dl::tbox::TBox;
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// tbox.gci(a.clone(), Concept::Bottom);
/// let cx = ExecCx::with_steps(100_000);
/// assert_eq!(satisfiable_cx(&tbox, &a, &cx), SearchOutcome::Unsat);
/// // A pre-cancelled context stops before proving anything.
/// let cancelled = ExecCx::unlimited();
/// cancelled.cancel();
/// assert_eq!(satisfiable_cx(&tbox, &a, &cancelled), SearchOutcome::Cancelled);
/// ```
pub fn satisfiable_cx(tbox: &TBox, query: &Concept, cx: &ExecCx) -> SearchOutcome {
    match prove(tbox, query, cx) {
        Ok((engine, result)) => engine.outcome(result),
        Err(interrupt) => interrupt.into(),
    }
}

/// [`satisfiable_cx`], additionally extracting a compact [`Witness`] model
/// from the final completion forest on a certain `Sat` verdict (`None`
/// otherwise). The witness is what lets [`crate::cache::SatCache`]
/// revalidate `Sat` entries against later TBox additions without
/// re-running the tableau.
///
/// ```
/// use orm_dl::concept::Concept;
/// use orm_dl::exec::ExecCx;
/// use orm_dl::tableau::{satisfiable_with_witness_cx, DlOutcome, SearchOutcome};
/// use orm_dl::tbox::TBox;
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// let b = Concept::Atomic(tbox.atom("B"));
/// tbox.gci(a.clone(), b.clone());
/// tbox.gci(Concept::and([a.clone(), b.clone()]), Concept::Bottom);
/// let cx = ExecCx::with_steps(100_000);
/// // A ⊑ B together with A ⊓ B ⊑ ⊥ dooms A.
/// let (verdict, witness) = satisfiable_with_witness_cx(&tbox, &a, &cx);
/// assert_eq!(verdict, SearchOutcome::Unsat);
/// assert!(witness.is_none());
/// let (verdict, witness) = satisfiable_with_witness_cx(&tbox, &b, &cx);
/// assert_eq!(DlOutcome::from(verdict), DlOutcome::Sat);
/// assert!(witness.expect("sat carries a witness").node_count() >= 1);
/// ```
pub fn satisfiable_with_witness_cx(
    tbox: &TBox,
    query: &Concept,
    cx: &ExecCx,
) -> (SearchOutcome, Option<Witness>) {
    match prove(tbox, query, cx) {
        Ok((engine, SResult::Sat)) => (SearchOutcome::Sat, Some(engine.into_witness())),
        Ok((engine, result)) => (engine.outcome(result), None),
        Err(interrupt) => (interrupt.into(), None),
    }
}

/// [`satisfiable_cx`] with axiom-usage tracking switched on: on an `Unsat`
/// verdict, additionally report the set of TBox axioms the refutation
/// rested on, resolved to provenance ids ([`AxiomId`]).
///
/// The reported set is a **conservative over-approximation** of a
/// conflict set — it is the seed [`crate::explain::explain_unsat_cx`]
/// then verifies and shrinks into a minimal unsat core; callers wanting
/// guarantees should go through that API. Every other verdict carries
/// `None`.
///
/// ```
/// use orm_dl::concept::Concept;
/// use orm_dl::exec::ExecCx;
/// use orm_dl::tableau::{satisfiable_with_conflict_cx, SearchOutcome};
/// use orm_dl::tbox::TBox;
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// let b = Concept::Atomic(tbox.atom("B"));
/// let doom = tbox.gci(a.clone(), Concept::Bottom);
/// tbox.gci(b.clone(), Concept::Top); // irrelevant to A's doom
/// let cx = ExecCx::with_steps(100_000);
/// let (verdict, conflict) = satisfiable_with_conflict_cx(&tbox, &a, &cx);
/// assert_eq!(verdict, SearchOutcome::Unsat);
/// assert!(conflict.expect("unsat carries a conflict").contains(&doom));
/// ```
pub fn satisfiable_with_conflict_cx(
    tbox: &TBox,
    query: &Concept,
    cx: &ExecCx,
) -> (SearchOutcome, Option<Vec<AxiomId>>) {
    match prove(tbox, query, cx) {
        Ok((_, SResult::Unsat(conflict))) => {
            (SearchOutcome::Unsat, Some(resolve_axioms(tbox, conflict.axs)))
        }
        Ok((engine, result)) => (engine.outcome(result), None),
        Err(interrupt) => (interrupt.into(), None),
    }
}

/// Whether `sub ⊑ sup` follows from the TBox: the standard reduction to
/// unsatisfiability of `sub ⊓ ¬sup`. `Ok(Some(..))` on a certain answer,
/// `Ok(None)` when the step budget ran out, `Err` when the context was
/// cancelled or its deadline passed.
///
/// ```
/// use orm_dl::concept::Concept;
/// use orm_dl::exec::ExecCx;
/// use orm_dl::tableau::subsumes_cx;
/// use orm_dl::tbox::TBox;
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// let b = Concept::Atomic(tbox.atom("B"));
/// tbox.gci(a.clone(), b.clone());
/// let cx = ExecCx::with_steps(100_000);
/// assert_eq!(subsumes_cx(&tbox, &b, &a, &cx), Ok(Some(true))); // A ⊑ B
/// assert_eq!(subsumes_cx(&tbox, &a, &b, &cx), Ok(Some(false))); // B ⋢ A
/// assert_eq!(subsumes_cx(&tbox, &a, &b, &ExecCx::with_steps(0)), Ok(None)); // out of budget
/// ```
///
/// Repeated subsumption queries against one TBox (classification sweeps)
/// should go through [`crate::cache::SatCache::subsumes_cx`] instead,
/// which memoizes verdicts per root label set.
pub fn subsumes_cx(
    tbox: &TBox,
    sup: &Concept,
    sub: &Concept,
    cx: &ExecCx,
) -> Result<Option<bool>, Interrupt> {
    let query = Concept::and([sub.clone(), Concept::not(sup.clone())]);
    subsumption(satisfiable_cx(tbox, &query, cx))
}

/// Read the verdict on `sub ⊓ ¬sup` as a subsumption answer.
pub(crate) fn subsumption(outcome: SearchOutcome) -> Result<Option<bool>, Interrupt> {
    match outcome {
        SearchOutcome::Unsat => Ok(Some(true)),
        SearchOutcome::Sat => Ok(Some(false)),
        SearchOutcome::BudgetExhausted => Ok(None),
        SearchOutcome::Cancelled => Err(Interrupt::Cancelled),
        SearchOutcome::DeadlineExceeded => Err(Interrupt::DeadlineExceeded),
    }
}

/// The one proof driver behind every public entry point: the upfront
/// interrupt check, then one metered search. `Err` means the context was
/// already interrupted and nothing ran.
fn prove(tbox: &TBox, query: &Concept, cx: &ExecCx) -> Result<(Engine, SResult), Interrupt> {
    // Already-interrupted contexts fail deterministically before any
    // search — a short proof must not slip past an expired deadline.
    cx.check()?;
    cx.note_proof();
    let mut engine = Engine::new(tbox, query, cx);
    let result = engine.search();
    engine.finish_metering();
    Ok((engine, result))
}

/// A compact model witnessing a `Sat` verdict: the label sets of the
/// alive nodes of the clash-free, complete forest (ids into the
/// witness's own arena, moved out of the engine — no re-interning) plus
/// the role-label set of every surviving parent edge.
///
/// The point of keeping it is **revalidation without a tableau rerun**:
/// when the TBox later grows by pure additions, [`Witness::confirms_gci`]
/// and [`Witness::respects_disjointness`] check the new axioms against
/// the stored model in one linear scan. Both checks are *sound
/// confirmations*: a `true` answer proves the induced model still
/// satisfies the grown TBox (so the old `Sat` verdict stands); a `false`
/// answer merely means "could not confirm" — the caller must re-prove,
/// never flip the verdict.
///
/// Memory trade-off: the witness keeps the proving engine's whole arena
/// (a copy of the absorbed rules' arena, plus the query), so a cache
/// full of `Sat` entries holds one arena per entry — O(TBox) each.
/// That is the price of id-comparable labels with zero re-interning at
/// revalidation time; sharing one interner across witnesses would shrink
/// it at the cost of coupling every entry's lifetime.
#[derive(Clone, Debug)]
pub struct Witness {
    arena: Arena,
    /// Sorted label set per alive node (the query root is node 0).
    labels: Vec<Vec<ConceptId>>,
    /// Role labels of each surviving parent edge.
    edges: Vec<Vec<RoleExprId>>,
    /// Per node, parallel to `labels`: the sorted role expressions
    /// (closed under the role hierarchy) over which it has a neighbour,
    /// so a `∀R.C` holds vacuously where `R` is absent.
    neighbours: Vec<Vec<RoleExprId>>,
}

/// The arena-independent columns of a [`Witness`] that a snapshot stores:
/// per-node labels as concept trees, the parent-edge role labels, and
/// per-node neighbour roles.
pub(crate) type WitnessParts = (Vec<Vec<Concept>>, Vec<Vec<RoleExprId>>, Vec<Vec<RoleExprId>>);

impl Witness {
    /// Number of (alive) nodes in the witness forest.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether the witness asserts any role edges at all. An edge-free
    /// witness is trivially immune to role-hierarchy growth.
    pub fn has_role_edges(&self) -> bool {
        !self.edges.is_empty()
    }

    /// Whether every node of the witness provably satisfies the new GCI
    /// `c ⊑ d` — i.e. its internalized form `¬c ⊔ d` holds everywhere.
    ///
    /// Soundness rests on two properties of the model a complete
    /// clash-free forest induces: every concept *in* a node's label holds
    /// at that node (the tableau soundness lemma), and atom extensions
    /// are *exactly* the labels, so `¬A` holds wherever `A` is absent.
    /// The check recurses through `⊓`/`⊔`, takes a `∀R.C` as true at a
    /// node with no `R`-neighbour (every element of the induced model has
    /// its node's incident edges — a blocked node's edge leads to its
    /// blocker, whose pair it mirrors), and otherwise falls back to label
    /// membership for role-quantified concepts — conservative, so `false`
    /// never proves a violation.
    ///
    /// The axiom is interned into the witness's own arena (its ids must
    /// be comparable with the stored labels): re-checking an axiom is
    /// free, and each *novel* axiom grows the arena by at most its own
    /// subconcept count — the deliberate price of the zero-copy label
    /// scan over a very long editing session.
    pub fn confirms_gci(&mut self, c: &Concept, d: &Concept) -> bool {
        let not_c = self.arena.intern_negated(c);
        let d = self.arena.intern(d);
        (0..self.labels.len()).all(|n| self.holds(n, not_c) || self.holds(n, d))
    }

    /// Whether `cid` provably holds at `node` in the induced model.
    fn holds(&self, node: usize, cid: ConceptId) -> bool {
        match self.arena.kind(cid) {
            CKind::Top => true,
            CKind::And(ids) => ids.iter().all(|c| self.holds(node, *c)),
            CKind::Or(ids) => ids.iter().any(|c| self.holds(node, *c)),
            CKind::NotAtomic(_) => {
                // Sound both ways: ¬A in the label, or A absent from it
                // (atom extensions are exactly the labels).
                let complement = self.arena.atom_complement(cid).expect("atoms carry complements");
                self.labels[node].binary_search(&complement).is_err()
            }
            CKind::Bottom => false,
            CKind::ForAll(role, _) if self.lacks_neighbour(node, *role) => true,
            // Atoms and role-quantified concepts: membership only.
            _ => self.labels[node].binary_search(&cid).is_ok(),
        }
    }

    /// Whether `node` has no `role`-neighbour in the induced model.
    fn lacks_neighbour(&self, node: usize, role: RoleExprId) -> bool {
        self.neighbours[node].binary_search(&role).is_err()
    }

    /// Whether no edge of the witness violates the disjointness
    /// declarations of `closure` (built from the *grown* TBox). The
    /// witness's role ids stay valid because role names are never
    /// removed, and the model's edges are exactly the forest edges — so
    /// a clean scan proves the grown disjointness set holds.
    pub fn respects_disjointness(&self, closure: &RoleClosure) -> bool {
        if !closure.has_disjointness() {
            return true;
        }
        let mut acc = vec![0u64; closure.words()];
        self.edges.iter().all(|roles| {
            acc.iter_mut().for_each(|w| *w = 0);
            for &r in roles {
                closure.union_row_into(&mut acc, r);
            }
            !closure.edge_violates_disjointness(&acc)
        })
    }

    /// Arena-independent serialization parts: per-node label sets
    /// resolved to concept trees, plus the edge role labels and the
    /// per-node neighbour roles (already global — [`RoleExprId`] encodes
    /// `2·name + inverse` with no arena involved). The snapshot machinery
    /// stores these; the arena itself (process-local interning state)
    /// never leaves the process.
    pub(crate) fn snapshot_parts(&self) -> WitnessParts {
        let labels = self
            .labels
            .iter()
            .map(|ids| ids.iter().map(|&id| self.arena.resolve(id)).collect())
            .collect();
        (labels, self.edges.clone(), self.neighbours.clone())
    }

    /// Rebuild a witness from [`Witness::snapshot_parts`] output: each
    /// label is re-interned into a fresh arena and the per-node id sets
    /// re-sorted (interning is content-addressed, so `holds`'s binary
    /// searches and `confirms_gci`'s id comparisons behave exactly as in
    /// the original witness).
    pub(crate) fn from_snapshot_parts((labels, edges, neighbours): WitnessParts) -> Witness {
        let mut arena = Arena::new();
        let labels = labels
            .into_iter()
            .map(|concepts| {
                let mut ids: Vec<ConceptId> = concepts.iter().map(|c| arena.intern(c)).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        Witness { arena, labels, edges, neighbours }
    }
}

/// Internal search verdict: `Unsat` carries the conflict's justification
/// (decision levels for backjumping, axiom usage for core extraction) so
/// enclosing choice points can backjump past irrelevant siblings and the
/// final refutation can report the axioms it rested on.
#[derive(Clone, Copy, Debug)]
enum SResult {
    Sat,
    Unsat(Just),
    Limit,
}

const NO_PARENT: u32 = u32::MAX;

/// A dependency set: bit `ℓ-1` is set when the fact rests on the choice
/// made at decision level `ℓ`. Levels above 63 share the saturation bit
/// 63; the engine never skips alternatives at saturated levels, so the
/// approximation only costs backjump opportunities, never correctness.
type DepSet = u64;

/// The conflict-set bit of decision level `level` (1-based).
///
/// Total over all inputs: the engine only opens levels starting at 1
/// (asserted in debug builds), but a stray `choice_bit(0)` maps to bit 0
/// instead of underflowing `level - 1` (which panicked in debug and
/// wrapped to the saturation bit 63 in release — silently poisoning the
/// dependency set of every precise level-63 decision).
fn choice_bit(level: u32) -> DepSet {
    debug_assert!(level >= 1, "decision levels are 1-based");
    1u64 << level.saturating_sub(1).min(63)
}

/// Whether `level` owns its bit exclusively (bits 0–62). Only precise
/// levels may strip their bit from a conflict or skip siblings on a
/// conflict that omits it.
fn precise_level(level: u32) -> bool {
    level <= 63
}

/// An axiom-usage set: bit `i` is set when a fact rests on the axiom at
/// flat position `i` of the TBox ([`TBox::axiom_id_at_flat`]). Positions
/// 63 and beyond share the saturation bit 63, which resolves to *every*
/// axiom at flat position ≥ 63 — strictly conservative, like the
/// decision-level saturation.
pub(crate) type AxSet = u64;

/// The usage bit of the axiom at flat position `flat`.
pub(crate) fn ax_bit(flat: usize) -> AxSet {
    1u64 << flat.min(63)
}

/// The union of all usage bits for flat positions `start..start + len`.
pub(crate) fn ax_mask(start: usize, len: usize) -> AxSet {
    (start..start + len).fold(0, |m, i| m | ax_bit(i))
}

/// Resolve an [`AxSet`] against the TBox it was produced from: precise
/// bits name single axioms; the saturation bit expands to every axiom at
/// flat position ≥ 63.
fn resolve_axioms(tbox: &TBox, axs: AxSet) -> Vec<AxiomId> {
    let n = tbox.axiom_count();
    let mut out = Vec::new();
    for flat in 0..n.min(63) {
        if axs & (1u64 << flat) != 0 {
            out.extend(tbox.axiom_id_at_flat(flat));
        }
    }
    if axs & (1u64 << 63) != 0 {
        for flat in 63..n {
            out.extend(tbox.axiom_id_at_flat(flat));
        }
    }
    out
}

/// A fact's full justification: the decision levels it rests on (driving
/// backjumping) and the TBox axioms it rests on (driving unsat-core
/// extraction). The two bitmasks travel together through every rule so
/// that a clash reports both at once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Just {
    /// Decision-level dependency set (see [`DepSet`]).
    deps: DepSet,
    /// Axiom-usage set (see [`AxSet`]).
    axs: AxSet,
}

impl Just {
    /// A justification carrying only axiom bits (TBox-derived facts).
    fn axioms(axs: AxSet) -> Just {
        Just { deps: 0, axs }
    }

    /// This justification plus the decision bit of a fresh choice.
    fn with_bit(self, bit: DepSet) -> Just {
        Just { deps: self.deps | bit, axs: self.axs }
    }
}

impl std::ops::BitOr for Just {
    type Output = Just;
    fn bitor(self, rhs: Just) -> Just {
        Just { deps: self.deps | rhs.deps, axs: self.axs | rhs.axs }
    }
}

impl std::ops::BitOrAssign for Just {
    fn bitor_assign(&mut self, rhs: Just) {
        self.deps |= rhs.deps;
        self.axs |= rhs.axs;
    }
}

/// A completion-forest node. Labels and edge labels are kept sorted so
/// that set queries are binary searches and set equality is slice
/// equality; the `*_hash` fields are XOR fingerprints maintained
/// incrementally (insert and trail-undo both XOR the same mix).
#[derive(Clone, Debug)]
struct ENode {
    alive: bool,
    parent: u32,
    /// Justification of this node's existence (and, transitively, of its
    /// current attachment point: reparenting merges OR the merge-choice
    /// deps in here).
    deps: Just,
    /// Sorted interned label set.
    label: Vec<ConceptId>,
    /// Justification per label member, parallel to `label`.
    label_deps: Vec<Just>,
    label_hash: u64,
    /// Sorted role labels of the edge from `parent` to this node.
    edge: Vec<RoleExprId>,
    /// Justification per edge role, parallel to `edge`.
    edge_deps: Vec<Just>,
    edge_hash: u64,
    /// Upward closure of `edge` (bitset): this node is an `R`-successor of
    /// its parent iff the bitset contains `R`.
    down_closure: Vec<u64>,
    /// Upward closure of the *inverted* edge: the parent is an
    /// `R`-neighbour of this node iff the bitset contains `R`.
    up_closure: Vec<u64>,
    children: Vec<u32>,
    /// Sorted ids of nodes asserted pairwise-distinct from this one.
    distinct: Vec<u32>,
    /// Justification per distinctness assertion, parallel to `distinct`.
    distinct_deps: Vec<Just>,
}

impl ENode {
    /// Union of all edge-role justifications: what this node's current
    /// neighbour links rest on.
    fn edge_deps_all(&self) -> Just {
        self.edge_deps.iter().fold(Just::default(), |a, &d| a | d)
    }
}

/// One reversible mutation. `rollback` pops these in reverse order, so
/// each undo sees exactly the state its op produced.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `cid` was inserted into `node`'s label.
    Label { node: u32, cid: ConceptId },
    /// `role` was inserted into `node`'s edge label set.
    EdgeRole { node: u32, role: RoleExprId },
    /// `a` and `b` were marked mutually distinct.
    Distinct { a: u32, b: u32 },
    /// A node was appended to the forest (and linked to its parent).
    NodeAdded,
    /// `node.alive` went from true to false.
    Killed { node: u32 },
    /// `child.parent` changed from `old_parent` to `new_parent` (child was
    /// appended to `new_parent.children`); `old_deps` is the node's
    /// justification before the merge-choice deps were OR-ed in.
    Reparented { child: u32, old_parent: u32, new_parent: u32, old_deps: Just },
    /// `child` was removed from `parent.children` at `index`.
    ChildUnlinked { parent: u32, child: u32, index: u32 },
    /// Generator agenda entry `idx` was marked permanently satisfied.
    GenDone { idx: u32 },
}

/// A branch point: trail length plus agenda cursors/lengths. The dirty
/// queue is empty at every mark (choices only open at quiescence), so
/// restoring it means clearing it.
#[derive(Clone, Copy, Debug)]
struct Mark {
    trail: usize,
    or_cursor: usize,
    or_len: usize,
    atmost_len: usize,
    gen_len: usize,
}

struct Engine {
    arena: Arena,
    /// The TBox's absorbed rules (shared per revision across proofs).
    rules: Arc<Absorbed>,
    nodes: Vec<ENode>,
    trail: Vec<Op>,
    /// Dirty-node worklist + membership flags (no duplicate entries).
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
    /// `⊔` agenda: written at label-insert, consumed via `or_cursor`.
    /// Entries before the cursor are resolved or dead for the rest of the
    /// branch (both monotone until rollback, which restores the cursor).
    or_agenda: Vec<(u32, ConceptId)>,
    or_cursor: usize,
    /// `≤` agenda: one `(node, AtMost-concept)` entry per label
    /// occurrence. Violation is not monotone (generation adds
    /// neighbours), so no cursor.
    atmost_agenda: Vec<(u32, ConceptId)>,
    /// `∃`/`≥` agenda with sticky per-entry satisfaction bits
    /// (trail-recorded, since satisfaction is monotone only within a
    /// branch).
    gen_agenda: Vec<(u32, ConceptId)>,
    gen_done: Vec<bool>,
    /// Set eagerly by label/edge mutations that produce a clash; carries
    /// the conflict's justification (union of the culprits').
    clash: Option<Just>,
    /// The open `⊔`/`≤` choice points, innermost last; the current
    /// decision level is the stack's length.
    choices: Vec<Choice>,
    budget: u64,
    /// The execution context the proof runs under.
    cx: ExecCx,
    /// Granted steps not yet flushed into the meter (flushed every
    /// [`CHECK_INTERVAL`] steps and at search exit).
    pending_steps: u64,
    /// The interrupt that stopped the search, when one did — this is
    /// what distinguishes [`SearchOutcome::Cancelled`] and
    /// [`SearchOutcome::DeadlineExceeded`] from plain budget exhaustion.
    tripped: Option<Interrupt>,
    /// Scratch buffer for neighbour collection (no per-call allocation).
    scratch: Vec<u32>,
    /// Scratch stack of label inserts still to make (`add_concept`'s
    /// worklist: conjuncts and unfolded rules, depth-first).
    pending: Vec<(ConceptId, Just)>,
    /// Blocking status and its scratch buffers.
    blocking: Blocking,
}

/// Which nodes are blocked ([`Engine::compute_blocking`]), with the
/// buffers that computation reuses.
#[derive(Debug, Default)]
struct Blocking {
    /// Per node, whether it is blocked (valid right after a
    /// recomputation, until the forest changes).
    blocked: Vec<bool>,
    /// Pair signature → the first unblocked node carrying it.
    first: HashMap<u64, u32>,
    /// Unblocked nodes whose signature equals an earlier, different pair.
    collided: Vec<u32>,
    /// Tree-walk stack.
    stack: Vec<u32>,
}

/// One open choice point: everything needed to try its next alternative
/// after the current one is refuted, kept on [`Engine::choices`] instead
/// of a call frame, so the search depth is bounded by the heap, not by
/// the thread's stack.
#[derive(Debug)]
struct Choice {
    /// The state every alternative starts from.
    mark: Mark,
    /// Its 1-based decision level (its depth on the stack).
    level: u32,
    /// The choice's premise: every refutation of the whole point
    /// inherits it.
    base: Just,
    /// Union of the refuted alternatives' conflicts (this level's bit
    /// stripped when precise).
    acc: Just,
    /// Some alternative ran out of budget or was interrupted.
    limited: bool,
    alternatives: Alternatives,
}

/// The alternatives of a choice point, with a cursor to the next one.
#[derive(Debug)]
enum Alternatives {
    /// The disjuncts of the `⊔` concept `or` at `node`.
    Or { node: u32, or: ConceptId, next: usize },
    /// The mergeable pairs among `neighbors`, the surplus `R`-neighbours
    /// of `via`; `(i, j)` is the next pair to consider.
    Merge { via: u32, neighbors: Vec<u32>, i: usize, j: usize },
}

impl Engine {
    /// The engine for one proof of `query` under `cx`: a clone of the
    /// absorbed rules' arena (so rule ids stay valid), the query and the
    /// residual conjuncts seeded at the root. Facts always carry their
    /// axiom-usage sets; only [`satisfiable_with_conflict_cx`] reads them.
    fn new(tbox: &TBox, query: &Concept, cx: &ExecCx) -> Engine {
        let rules = tbox.absorbed();
        let mut arena = rules.arena.clone();
        let query_id = arena.intern(query);
        let words = rules.roles.words();
        let root = ENode {
            alive: true,
            parent: NO_PARENT,
            deps: Just::default(),
            label: Vec::new(),
            label_deps: Vec::new(),
            label_hash: 0,
            edge: Vec::new(),
            edge_deps: Vec::new(),
            edge_hash: 0,
            down_closure: vec![0; words],
            up_closure: vec![0; words],
            children: Vec::new(),
            distinct: Vec::new(),
            distinct_deps: Vec::new(),
        };
        let mut engine = Engine {
            arena,
            rules,
            nodes: vec![root],
            trail: Vec::new(),
            dirty: Vec::new(),
            in_dirty: vec![false],
            or_agenda: Vec::new(),
            or_cursor: 0,
            atmost_agenda: Vec::new(),
            gen_agenda: Vec::new(),
            gen_done: Vec::new(),
            clash: None,
            choices: Vec::new(),
            budget: cx.steps().unwrap_or(u64::MAX),
            cx: cx.clone(),
            pending_steps: 0,
            tripped: None,
            scratch: Vec::new(),
            pending: Vec::new(),
            blocking: Blocking::default(),
        };
        engine.add_concept(0, query_id, Just::default());
        engine.seed_residue(0, Just::default());
        engine
    }

    /// Seed the internalized residue into `node`, each conjunct resting
    /// on `deps` plus its own axiom.
    fn seed_residue(&mut self, node: u32, deps: Just) {
        // Index loop: the residue is shared and never changes, and
        // cloning it would put an allocation on every node creation.
        for i in 0..self.rules.residue.len() {
            let (cid, axs) = self.rules.residue[i];
            self.add_concept(node, cid, deps | Just::axioms(axs));
        }
    }

    /// Fire the domain/range rules of a fresh `role` link between
    /// `parent` and its child `child`: the parent gains a neighbour over
    /// `role`, the child one over its inverse. The added facts rest on
    /// the link and on the rule's axiom.
    fn fire_edge_rules(&mut self, parent: u32, child: u32, role: RoleExprId) {
        let link = self.link_deps(parent, child);
        for (node, r) in [(parent, role), (child, invert_role_expr(role))] {
            for i in 0..self.rules.edge(r).len() {
                let (cid, axs) = self.rules.edge(r)[i];
                self.add_concept(node, cid, link | Just::axioms(axs));
            }
        }
    }

    /// Extract the compact witness model of a `Sat` verdict: the alive
    /// nodes' labels and parent-edge role sets, carrying the engine's
    /// arena along so the ids stay resolvable (and later axioms can be
    /// interned into the same id space for revalidation).
    fn into_witness(self) -> Witness {
        let mut labels = Vec::new();
        let mut edges = Vec::new();
        let mut neighbours = Vec::new();
        for node in &self.nodes {
            if !node.alive {
                continue;
            }
            labels.push(node.label.clone());
            // The parent edge seen from this node, plus every child edge.
            let mut incident = node.up_closure.clone();
            for &c in &node.children {
                let child = &self.nodes[c as usize];
                if child.alive {
                    incident.iter_mut().zip(&child.down_closure).for_each(|(w, b)| *w |= b);
                }
            }
            let roles = 0..self.rules.roles.n_exprs() as RoleExprId;
            neighbours.push(roles.filter(|&r| RoleClosure::contains(&incident, r)).collect());
            if node.parent != NO_PARENT && !node.edge.is_empty() {
                edges.push(node.edge.clone());
            }
        }
        Witness { arena: self.arena, labels, edges, neighbours }
    }

    /// Spend one budget unit after a cooperative context check. Returns
    /// `false` when the search must stop: the context was interrupted
    /// (recorded in `self.tripped`) or the step budget is exhausted
    /// (`tripped` stays `None`). The cancellation flag is a relaxed
    /// atomic load checked on *every* call — i.e. at every worklist pop,
    /// choice point, generator, and quiescence certification; the
    /// expensive checks (clock read, meter flush, auto-cancel trigger)
    /// are amortized over [`CHECK_INTERVAL`] steps.
    ///
    /// Only granted steps are metered: the refusals the search meets
    /// while it unwinds after the budget ran out cost nothing, so one
    /// proof never meters more than its budget.
    fn spend(&mut self) -> bool {
        if self.tripped.is_some() {
            // Already interrupted: the unwinding alternatives must not
            // burn further steps before the Limit reaches the top.
            return false;
        }
        if self.cx.is_cancelled() {
            self.tripped = Some(Interrupt::Cancelled);
            return false;
        }
        if self.pending_steps >= CHECK_INTERVAL {
            let pending = std::mem::take(&mut self.pending_steps);
            if let Err(interrupt) = self.cx.check_after(pending) {
                self.tripped = Some(interrupt);
                return false;
            }
        }
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        self.pending_steps += 1;
        true
    }

    /// Flush the unflushed step count into the context's meter. Called
    /// once per proof after the search returns.
    fn finish_metering(&mut self) {
        self.cx.meter().add_steps(std::mem::take(&mut self.pending_steps));
    }

    /// Map an internal search result to the public five-way outcome,
    /// consulting `tripped` to distinguish external interruptions from
    /// the per-proof step budget running out.
    fn outcome(&self, result: SResult) -> SearchOutcome {
        match result {
            SResult::Sat => SearchOutcome::Sat,
            SResult::Unsat(_) => SearchOutcome::Unsat,
            SResult::Limit => match self.tripped {
                Some(Interrupt::Cancelled) => SearchOutcome::Cancelled,
                Some(Interrupt::DeadlineExceeded) => SearchOutcome::DeadlineExceeded,
                None => SearchOutcome::BudgetExhausted,
            },
        }
    }

    fn role_mix(role: RoleExprId) -> u64 {
        // Same SplitMix64 finalizer as the arena's concept mixes, under a
        // role-specific seed; used for the edge fingerprint.
        crate::arena::splitmix(0x517C_C1B7_2722_0A95 ^ u64::from(role))
    }

    fn mark_dirty(&mut self, node: u32) {
        if !self.in_dirty[node as usize] {
            self.in_dirty[node as usize] = true;
            self.dirty.push(node);
        }
    }

    /// The recorded justification of a label member. The first
    /// justification wins: re-deriving a present member under different
    /// deps keeps the original set (which is a valid justification for as
    /// long as the member survives rollback).
    fn label_dep(&self, node: u32, cid: ConceptId) -> Just {
        match self.nodes[node as usize].label.binary_search(&cid) {
            Ok(pos) => self.nodes[node as usize].label_deps[pos],
            Err(_) => Just::default(),
        }
    }

    /// Justification of the link between neighbours `x` and `y`:
    /// existence of both nodes plus every edge role either endpoint
    /// carries (conservative — the connecting edge lives on whichever of
    /// the two is the child).
    fn link_deps(&self, x: u32, y: u32) -> Just {
        let (nx, ny) = (&self.nodes[x as usize], &self.nodes[y as usize]);
        nx.deps | ny.deps | nx.edge_deps_all() | ny.edge_deps_all()
    }

    /// Insert `cid` into `node`'s label with justification `deps`, fusing
    /// the `⊓`-rule and lazy unfolding, recording the trail, feeding the
    /// agendas and detecting immediate clashes. Conjuncts and unfolded
    /// concepts go through an explicit depth-first worklist, so long
    /// unfolding chains cost heap, not stack.
    fn add_concept(&mut self, node: u32, cid: ConceptId, deps: Just) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.push((cid, deps));
        while let Some((cid, deps)) = pending.pop() {
            self.insert_label(node, cid, deps, &mut pending);
        }
        self.pending = pending;
    }

    /// One step of [`Engine::add_concept`]: insert `cid` itself, pushing
    /// what it implies (its conjuncts, or its unfolding when it is an
    /// atom) onto `pending` in reverse, so they are inserted in order.
    fn insert_label(
        &mut self,
        node: u32,
        cid: ConceptId,
        deps: Just,
        pending: &mut Vec<(ConceptId, Just)>,
    ) {
        match self.arena.kind(cid) {
            CKind::Top => return,
            CKind::And(ids) => {
                pending.extend(ids.iter().rev().map(|&child| (child, deps)));
                return;
            }
            _ => {}
        }
        let slot = match self.nodes[node as usize].label.binary_search(&cid) {
            Ok(_) => return,
            Err(slot) => slot,
        };
        let mix = self.arena.mix(cid);
        {
            let n = &mut self.nodes[node as usize];
            n.label.insert(slot, cid);
            n.label_deps.insert(slot, deps);
            n.label_hash ^= mix;
        }
        self.trail.push(Op::Label { node, cid });
        self.mark_dirty(node);
        match self.arena.kind(cid) {
            CKind::Bottom => {
                self.raise_clash(deps | self.nodes[node as usize].deps);
            }
            CKind::Atomic(_) | CKind::NotAtomic(_) => {
                let neg = self.arena.atom_complement(cid).expect("atoms carry complements");
                if self.nodes[node as usize].label.binary_search(&neg).is_ok() {
                    let conflict =
                        deps | self.label_dep(node, neg) | self.nodes[node as usize].deps;
                    self.raise_clash(conflict);
                }
                if let Some((other, axs)) = self.told_disjoint_partner(node, cid) {
                    let conflict = deps
                        | self.label_dep(node, other)
                        | self.nodes[node as usize].deps
                        | Just::axioms(axs);
                    self.raise_clash(conflict);
                }
                let unfold = self.rules.unfold(cid);
                pending.extend(unfold.iter().rev().map(|&(d, axs)| (d, deps | Just::axioms(axs))));
            }
            CKind::Or(_) => self.or_agenda.push((node, cid)),
            CKind::Exists(role, _) | CKind::AtLeast(1.., role) => {
                self.gen_agenda.push((node, cid));
                self.gen_done.push(false);
                // The node will have a `role`-neighbour in every model, so
                // it satisfies the domain rules of `role` now. Firing them
                // here rather than when the neighbour is created keeps
                // the label complete before generation, which is what
                // lets blocking stop the node's subtree at once.
                let rules = self.rules.edge(*role);
                pending.extend(rules.iter().rev().map(|&(d, axs)| (d, deps | Just::axioms(axs))));
            }
            CKind::AtMost(..) => self.atmost_agenda.push((node, cid)),
            // `∀` propagates when its node is processed; `≥0 R` is `⊤`.
            _ => {}
        }
    }

    /// An atom in `node`'s label told disjoint from the atom `cid`, with
    /// the disjointness axioms' bits. Walks whichever of the label and the
    /// partner list is shorter, binary-searching the other.
    fn told_disjoint_partner(&self, node: u32, cid: ConceptId) -> Option<(ConceptId, AxSet)> {
        let partners = self.rules.disjoint(cid);
        if partners.is_empty() {
            return None;
        }
        let label = &self.nodes[node as usize].label;
        if partners.len() <= label.len() {
            partners.iter().copied().find(|(other, _)| label.binary_search(other).is_ok())
        } else {
            label.iter().find_map(|other| {
                partners.binary_search_by_key(other, |&(p, _)| p).ok().map(|pos| partners[pos])
            })
        }
    }

    /// Record a clash, keeping the first conflict of the branch (later
    /// clashes in the same propagation round are casualties of an already
    /// inconsistent state and may carry broader dependency sets).
    fn raise_clash(&mut self, conflict: Just) {
        if self.clash.is_none() {
            self.clash = Some(conflict);
        }
    }

    /// Insert `role` into `node`'s up-edge label set with justification
    /// `deps`, maintaining both closure bitsets and the edge fingerprint,
    /// and fire the domain/range rules the new role brings. Every edge
    /// fact additionally carries the role-inclusion axiom mask: whether
    /// this edge counts as an `S`-edge may rest on any inclusion.
    fn add_edge_role(&mut self, node: u32, role: RoleExprId, deps: Just) {
        let slot = match self.nodes[node as usize].edge.binary_search(&role) {
            Ok(_) => return,
            Err(slot) => slot,
        };
        let deps = deps | Just::axioms(self.rules.role_ax_mask);
        let inv = invert_role_expr(role);
        let (parent, clash_deps) = {
            let roles = &self.rules.roles;
            let n = &mut self.nodes[node as usize];
            n.edge.insert(slot, role);
            n.edge_deps.insert(slot, deps);
            n.edge_hash ^= Self::role_mix(role);
            roles.union_row_into(&mut n.down_closure, role);
            roles.union_row_into(&mut n.up_closure, inv);
            let clash_deps =
                if roles.has_disjointness() && roles.edge_violates_disjointness(&n.down_closure) {
                    // Conservative culprits: every role this edge carries.
                    Some(n.deps | n.edge_deps_all())
                } else {
                    None
                };
            (n.parent, clash_deps)
        };
        if let Some(conflict) = clash_deps {
            self.raise_clash(conflict | Just::axioms(self.rules.disjoint_ax_mask));
        }
        self.trail.push(Op::EdgeRole { node, role });
        self.mark_dirty(node);
        if parent != NO_PARENT {
            self.mark_dirty(parent);
            self.fire_edge_rules(parent, node, role);
        }
    }

    fn add_distinct(&mut self, a: u32, b: u32, deps: Just) {
        let Err(slot) = self.nodes[a as usize].distinct.binary_search(&b) else { return };
        self.nodes[a as usize].distinct.insert(slot, b);
        self.nodes[a as usize].distinct_deps.insert(slot, deps);
        let slot = self.nodes[b as usize]
            .distinct
            .binary_search(&a)
            .expect_err("distinctness stored symmetrically");
        self.nodes[b as usize].distinct.insert(slot, a);
        self.nodes[b as usize].distinct_deps.insert(slot, deps);
        self.trail.push(Op::Distinct { a, b });
    }

    /// The recorded justification of the distinctness assertion between
    /// `a` and `b` (empty when absent).
    fn distinct_dep(&self, a: u32, b: u32) -> Just {
        match self.nodes[a as usize].distinct.binary_search(&b) {
            Ok(pos) => self.nodes[a as usize].distinct_deps[pos],
            Err(_) => Just::default(),
        }
    }

    /// Create a fresh `role`-child of `parent`, seeded with `seed`, the
    /// internalized residue and the domain/range rules of the new edge.
    /// `deps` is the justification of the generating rule's premise (the
    /// `∃`/`≥` label plus the parent's own existence); everything about
    /// the new node inherits it.
    fn add_child(
        &mut self,
        parent: u32,
        role: RoleExprId,
        seed: Option<ConceptId>,
        deps: Just,
    ) -> u32 {
        let roles = &self.rules.roles;
        let id = self.nodes.len() as u32;
        let edge_deps = deps | Just::axioms(self.rules.role_ax_mask);
        let mut down_closure = vec![0; roles.words()];
        let mut up_closure = vec![0; roles.words()];
        roles.union_row_into(&mut down_closure, role);
        roles.union_row_into(&mut up_closure, invert_role_expr(role));
        if roles.has_disjointness() && roles.edge_violates_disjointness(&down_closure) {
            self.raise_clash(edge_deps | Just::axioms(self.rules.disjoint_ax_mask));
        }
        self.nodes.push(ENode {
            alive: true,
            parent,
            deps,
            label: Vec::new(),
            label_deps: Vec::new(),
            label_hash: 0,
            edge: vec![role],
            edge_deps: vec![edge_deps],
            edge_hash: Self::role_mix(role),
            down_closure,
            up_closure,
            children: Vec::new(),
            distinct: Vec::new(),
            distinct_deps: Vec::new(),
        });
        self.in_dirty.push(false);
        self.nodes[parent as usize].children.push(id);
        self.trail.push(Op::NodeAdded);
        if let Some(cid) = seed {
            self.add_concept(id, cid, deps);
        }
        self.seed_residue(id, deps);
        self.fire_edge_rules(parent, id, role);
        self.mark_dirty(parent);
        self.mark_dirty(id);
        id
    }

    /// Merge node `from` into node `to`; both are `R`-neighbours of `via`,
    /// with `from` a child of `via`. Every mutation is trail-recorded, so
    /// the merge unwinds like any other choice. `choice_deps` is the
    /// justification of the merge decision itself; every fact the merge
    /// transfers is additionally tagged with it.
    fn merge(&mut self, via: u32, from: u32, to: u32, choice_deps: Just) {
        debug_assert_eq!(self.nodes[from as usize].parent, via);
        debug_assert!(self.nodes[from as usize].alive && self.nodes[to as usize].alive);
        self.nodes[from as usize].alive = false;
        self.trail.push(Op::Killed { node: from });
        // Labels and distinctness accumulate on the survivor (the dead
        // node's own sets stay in place for rollback).
        for (i, cid) in self.nodes[from as usize].label.clone().into_iter().enumerate() {
            let dep = self.nodes[from as usize].label_deps[i] | choice_deps;
            self.add_concept(to, cid, dep);
        }
        for (i, d) in self.nodes[from as usize].distinct.clone().into_iter().enumerate() {
            if self.nodes[d as usize].alive {
                let dep = self.nodes[from as usize].distinct_deps[i] | choice_deps;
                self.add_distinct(to, d, dep);
            }
        }
        // Edges: `from` was a child of `via`.
        let from_edge = self.nodes[from as usize].edge.clone();
        let from_edge_deps = self.nodes[from as usize].edge_deps.clone();
        if self.nodes[to as usize].parent == via {
            // Sibling merge: fold edge labels onto the survivor's edge.
            for (role, dep) in from_edge.into_iter().zip(from_edge_deps) {
                self.add_edge_role(to, role, dep | choice_deps);
            }
        } else if self.nodes[via as usize].parent == to {
            // Child-into-parent merge: `via —S→ from` becomes
            // `to —S⁻→ via`, folded into via's existing up-edge.
            for (role, dep) in from_edge.into_iter().zip(from_edge_deps) {
                self.add_edge_role(via, invert_role_expr(role), dep | choice_deps);
            }
        }
        // Reparent from's children under the survivor. Their new
        // attachment exists only because of this merge, so the choice
        // deps are folded into their node dependency sets.
        for child in self.nodes[from as usize].children.clone() {
            let old_deps = self.nodes[child as usize].deps;
            self.nodes[child as usize].parent = to;
            self.nodes[child as usize].deps = old_deps | choice_deps;
            self.nodes[to as usize].children.push(child);
            self.trail.push(Op::Reparented { child, old_parent: from, new_parent: to, old_deps });
            self.mark_dirty(child);
        }
        // Unlink from from via's child list.
        let index = self.nodes[via as usize]
            .children
            .iter()
            .position(|c| *c == from)
            .expect("from is a child of via");
        self.nodes[via as usize].children.remove(index);
        self.trail.push(Op::ChildUnlinked { parent: via, child: from, index: index as u32 });
        self.mark_dirty(via);
        self.mark_dirty(to);
    }

    fn mark(&self) -> Mark {
        debug_assert!(self.dirty.is_empty(), "choices only open at quiescence");
        Mark {
            trail: self.trail.len(),
            or_cursor: self.or_cursor,
            or_len: self.or_agenda.len(),
            atmost_len: self.atmost_agenda.len(),
            gen_len: self.gen_agenda.len(),
        }
    }

    fn rollback(&mut self, mark: Mark) {
        // Pending work first: at every mark the dirty queue was empty.
        for &n in &self.dirty {
            self.in_dirty[n as usize] = false;
        }
        self.dirty.clear();
        self.clash = None;
        while self.trail.len() > mark.trail {
            match self.trail.pop().expect("len checked") {
                Op::Label { node, cid } => {
                    let mix = self.arena.mix(cid);
                    let n = &mut self.nodes[node as usize];
                    let pos = n.label.binary_search(&cid).expect("label op consistent");
                    n.label.remove(pos);
                    n.label_deps.remove(pos);
                    n.label_hash ^= mix;
                }
                Op::EdgeRole { node, role } => {
                    let roles = &self.rules.roles;
                    let n = &mut self.nodes[node as usize];
                    let pos = n.edge.binary_search(&role).expect("edge op consistent");
                    n.edge.remove(pos);
                    n.edge_deps.remove(pos);
                    n.edge_hash ^= Self::role_mix(role);
                    // Closures are unions, not XORs: recompute from the
                    // remaining labels (edge mutations are rare).
                    n.down_closure.iter_mut().for_each(|w| *w = 0);
                    n.up_closure.iter_mut().for_each(|w| *w = 0);
                    for i in 0..n.edge.len() {
                        let r = n.edge[i];
                        roles.union_row_into(&mut n.down_closure, r);
                        roles.union_row_into(&mut n.up_closure, invert_role_expr(r));
                    }
                }
                Op::Distinct { a, b } => {
                    let pos =
                        self.nodes[a as usize].distinct.binary_search(&b).expect("distinct op");
                    self.nodes[a as usize].distinct.remove(pos);
                    self.nodes[a as usize].distinct_deps.remove(pos);
                    let pos =
                        self.nodes[b as usize].distinct.binary_search(&a).expect("distinct op");
                    self.nodes[b as usize].distinct.remove(pos);
                    self.nodes[b as usize].distinct_deps.remove(pos);
                }
                Op::NodeAdded => {
                    let node = self.nodes.pop().expect("node op consistent");
                    self.in_dirty.pop();
                    if node.parent != NO_PARENT {
                        let popped = self.nodes[node.parent as usize].children.pop();
                        debug_assert_eq!(popped, Some(self.nodes.len() as u32));
                    }
                }
                Op::Killed { node } => self.nodes[node as usize].alive = true,
                Op::Reparented { child, old_parent, new_parent, old_deps } => {
                    let popped = self.nodes[new_parent as usize].children.pop();
                    debug_assert_eq!(popped, Some(child));
                    self.nodes[child as usize].parent = old_parent;
                    self.nodes[child as usize].deps = old_deps;
                }
                Op::ChildUnlinked { parent, child, index } => {
                    self.nodes[parent as usize].children.insert(index as usize, child);
                }
                Op::GenDone { idx } => self.gen_done[idx as usize] = false,
            }
        }
        self.or_cursor = mark.or_cursor;
        self.or_agenda.truncate(mark.or_len);
        self.atmost_agenda.truncate(mark.atmost_len);
        self.gen_agenda.truncate(mark.gen_len);
        self.gen_done.truncate(mark.gen_len);
    }

    /// Whether `node`'s label makes `cid` true syntactically (membership,
    /// with conjunctions split).
    fn label_subsumes(&self, node: u32, cid: ConceptId) -> bool {
        match self.arena.kind(cid) {
            CKind::Top => true,
            CKind::And(ids) => ids.iter().all(|c| self.label_subsumes(node, *c)),
            _ => self.nodes[node as usize].label.binary_search(&cid).is_ok(),
        }
    }

    /// Collect the `role`-neighbours of `x` into `out` (children through a
    /// sub-role edge, plus the parent when the inverted edge closure
    /// reaches `role`). No allocation: callers pass the engine's scratch.
    fn collect_neighbors(nodes: &[ENode], x: u32, role: RoleExprId, out: &mut Vec<u32>) {
        out.clear();
        let n = &nodes[x as usize];
        for &child in &n.children {
            if nodes[child as usize].alive
                && RoleClosure::contains(&nodes[child as usize].down_closure, role)
            {
                out.push(child);
            }
        }
        if n.parent != NO_PARENT
            && nodes[n.parent as usize].alive
            && RoleClosure::contains(&n.up_closure, role)
        {
            out.push(n.parent);
        }
    }

    /// Deterministic work at one dirty node: `∀`-propagation to current
    /// neighbours plus this node's clash conditions (`≤` over distinct
    /// neighbours, edge disjointness).
    fn process_node(&mut self, x: u32) {
        if !self.nodes[x as usize].alive {
            return;
        }
        // ∀-rule: iterate by index — the label can grow during
        // propagation (back-propagation onto x itself).
        let mut i = 0;
        while i < self.nodes[x as usize].label.len() {
            let cid = self.nodes[x as usize].label[i];
            i += 1;
            let CKind::ForAll(role, body) = *self.arena.kind(cid) else { continue };
            // The ∀ label's own justification, read by id (inserts during
            // propagation can shift positions).
            let fdep = self.label_dep(x, cid);
            let mut c = 0;
            while c < self.nodes[x as usize].children.len() {
                let child = self.nodes[x as usize].children[c];
                c += 1;
                if self.nodes[child as usize].alive
                    && RoleClosure::contains(&self.nodes[child as usize].down_closure, role)
                    && !self.label_subsumes(child, body)
                {
                    let dep = fdep | self.link_deps(x, child);
                    self.add_concept(child, body, dep);
                }
            }
            let parent = self.nodes[x as usize].parent;
            if parent != NO_PARENT
                && self.nodes[parent as usize].alive
                && RoleClosure::contains(&self.nodes[x as usize].up_closure, role)
                && !self.label_subsumes(parent, body)
            {
                let dep = fdep | self.link_deps(x, parent);
                self.add_concept(parent, body, dep);
            }
            if self.clash.is_some() {
                return;
            }
        }
        // Edge disjointness.
        let roles = &self.rules.roles;
        if roles.has_disjointness()
            && !self.nodes[x as usize].edge.is_empty()
            && roles.edge_violates_disjointness(&self.nodes[x as usize].down_closure)
        {
            let conflict = {
                let n = &self.nodes[x as usize];
                n.deps | n.edge_deps_all() | Just::axioms(self.rules.disjoint_ax_mask)
            };
            self.raise_clash(conflict);
            return;
        }
        // ≤n R with more than n pairwise-distinct R-neighbours (for
        // ≤0 R, any one neighbour).
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.nodes[x as usize].label.len() {
            let cid = self.nodes[x as usize].label[i];
            let CKind::AtMost(n, role) = *self.arena.kind(cid) else { continue };
            Self::collect_neighbors(&self.nodes, x, role, &mut scratch);
            if scratch.len() > n as usize {
                if n == 0 {
                    scratch.truncate(1);
                }
                if let Some(pair_deps) = self.all_pairwise_distinct(&scratch) {
                    let mut conflict =
                        pair_deps | self.label_dep(x, cid) | self.nodes[x as usize].deps;
                    for &y in &scratch {
                        conflict |= self.link_deps(x, y);
                    }
                    self.raise_clash(conflict);
                    break;
                }
            }
        }
        self.scratch = scratch;
    }

    /// `Some(deps)` when all of `nodes` are pairwise distinct, with `deps`
    /// the union of the distinctness assertions' justifications; `None`
    /// when some pair is mergeable.
    fn all_pairwise_distinct(&self, nodes: &[u32]) -> Option<Just> {
        let mut deps = Just::default();
        for (i, &a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                match self.nodes[a as usize].distinct.binary_search(b) {
                    Ok(pos) => deps |= self.nodes[a as usize].distinct_deps[pos],
                    Err(_) => return None,
                }
            }
        }
        Some(deps)
    }

    /// Whether `nodes` contains `n` mutually-distinct members (exhaustive
    /// over subsets; `n` is tiny in ORM workloads).
    fn has_n_pairwise_distinct(&self, nodes: &[u32], n: usize) -> bool {
        fn go(engine: &Engine, nodes: &[u32], chosen: &mut Vec<u32>, n: usize) -> bool {
            if chosen.len() == n {
                return true;
            }
            for (i, &cand) in nodes.iter().enumerate() {
                if chosen
                    .iter()
                    .all(|&c| engine.nodes[c as usize].distinct.binary_search(&cand).is_ok())
                {
                    chosen.push(cand);
                    if go(engine, &nodes[i + 1..], chosen, n) {
                        return true;
                    }
                    chosen.pop();
                }
            }
            false
        }
        if n <= 1 {
            return !nodes.is_empty();
        }
        go(self, nodes, &mut Vec::new(), n)
    }

    /// The fingerprint of `x`'s blocking pair: its label, its parent's
    /// label and the edge between them (`x` must have a parent).
    fn pair_signature(&self, x: u32) -> u64 {
        let n = &self.nodes[x as usize];
        let parent = &self.nodes[n.parent as usize];
        n.label_hash ^ parent.label_hash.rotate_left(21) ^ n.edge_hash.rotate_left(42)
    }

    /// Recompute which nodes are blocked, by pairwise *anywhere* blocking
    /// (as in HermiT: Motik, Shearer & Horrocks, "Hypertableau reasoning
    /// for description logics", JAIR 2009). The forest is walked in tree
    /// order, parents first: a node is blocked when its parent is
    /// (indirect blocking), or when an earlier unblocked node mirrors it
    /// and its parent exactly (direct blocking) — any earlier node, not
    /// only an ancestor, so each kind of node pair is expanded once in the
    /// whole forest instead of once per branch of it.
    fn compute_blocking(&mut self) {
        let mut b = std::mem::take(&mut self.blocking);
        b.blocked.clear();
        b.blocked.resize(self.nodes.len(), false);
        b.first.clear();
        b.collided.clear();
        b.stack.clear();
        b.stack.push(0);
        while let Some(x) = b.stack.pop() {
            let n = &self.nodes[x as usize];
            if n.parent != NO_PARENT {
                b.blocked[x as usize] = b.blocked[n.parent as usize] || {
                    let sig = self.pair_signature(x);
                    match b.first.get(&sig) {
                        None => {
                            b.first.insert(sig, x);
                            false
                        }
                        // Equal fingerprints of unequal pairs are
                        // vanishingly rare; such nodes still become
                        // candidate blockers, on a side list.
                        Some(&y) if !self.directly_blocks(y, x) => {
                            let blocked = b.collided.iter().any(|&z| self.directly_blocks(z, x));
                            if !blocked {
                                b.collided.push(x);
                            }
                            blocked
                        }
                        Some(_) => true,
                    }
                };
            }
            let alive = |c: &&u32| self.nodes[**c as usize].alive;
            b.stack.extend(n.children.iter().rev().filter(alive));
        }
        self.blocking = b;
    }

    /// Whether `y` (with its parent) mirrors `x` (with its parent): the
    /// pairwise-blocking witness test.
    fn directly_blocks(&self, y: u32, x: u32) -> bool {
        let yp = self.nodes[y as usize].parent;
        if yp == NO_PARENT {
            return false;
        }
        let xp = self.nodes[x as usize].parent;
        let (nx, ny) = (&self.nodes[x as usize], &self.nodes[y as usize]);
        let (nxp, nyp) = (&self.nodes[xp as usize], &self.nodes[yp as usize]);
        // Fingerprints first: almost every candidate fails here.
        if nx.label_hash != ny.label_hash
            || nxp.label_hash != nyp.label_hash
            || nx.edge_hash != ny.edge_hash
        {
            return false;
        }
        nx.label == ny.label && nxp.label == nyp.label && nx.edge == ny.edge
    }

    /// The search: expand the current branch until it is complete (Sat),
    /// clashes (Unsat) or runs out of budget (Limit), opening `⊔`/`≤`
    /// choice points on the way. Choice points live on an explicit stack
    /// ([`Engine::choices`]), not in call frames: a refuted or starved
    /// branch is folded into the innermost open choice, which either
    /// moves on to its next alternative or is itself decided and folded
    /// into the next one out. An `Unsat` result carries the conflict's
    /// justification for backjumping and core extraction.
    fn search(&mut self) -> SResult {
        loop {
            let mut result = match self.clash {
                Some(conflict) => SResult::Unsat(conflict),
                None => match self.expand() {
                    Some(result) => result,
                    // A choice point opened on its first alternative.
                    None => continue,
                },
            };
            if let SResult::Sat = result {
                // The complete forest stays in place for the witness.
                self.choices.clear();
                return SResult::Sat;
            }
            loop {
                if self.choices.is_empty() {
                    return result;
                }
                match self.backtrack(result) {
                    Some(decided) => {
                        self.choices.pop();
                        result = decided;
                    }
                    // The next alternative is in place.
                    None => break,
                }
            }
        }
    }

    /// Fold the refuted or starved branch `result` into the innermost
    /// choice point and roll back to it. `Some` when that settles the
    /// choice point (a backjump past it, or no alternative left); `None`
    /// when its next alternative has been applied.
    fn backtrack(&mut self, result: SResult) -> Option<SResult> {
        let top = self.choices.len() - 1;
        let (mark, level) = (self.choices[top].mark, self.choices[top].level);
        let bit = choice_bit(level);
        self.rollback(mark);
        match result {
            SResult::Unsat(conflict) => {
                if precise_level(level) && conflict.deps & bit == 0 {
                    // The refutation never used this choice: no sibling
                    // can avoid it. Jump straight past this choice point.
                    return Some(SResult::Unsat(conflict));
                }
                // Strip this level's bit only when it is exclusively
                // ours; saturated levels keep bit 63 so outer saturated
                // choices never skip on its account. Axiom bits are never
                // stripped — every branch's culprits join the refutation.
                let c = &mut self.choices[top];
                c.acc.deps |=
                    if precise_level(level) { conflict.deps & !bit } else { conflict.deps };
                c.acc.axs |= conflict.axs;
            }
            SResult::Limit => self.choices[top].limited = true,
            SResult::Sat => unreachable!("a Sat branch ends the search"),
        }
        self.next_alternative()
    }

    /// Apply the innermost choice point's next alternative (`None`), or
    /// report its verdict when none is left (`Some`): `Limit` when some
    /// alternative starved, else the union of the refutations.
    fn next_alternative(&mut self) -> Option<SResult> {
        let top = self.choices.len() - 1;
        let deps = self.choices[top].base.with_bit(choice_bit(self.choices[top].level));
        match self.choices[top].alternatives {
            Alternatives::Or { node, or, ref mut next } => {
                let CKind::Or(ids) = self.arena.kind(or) else {
                    unreachable!("or choices hold disjunctions")
                };
                if let Some(&d) = ids.get(*next) {
                    *next += 1;
                    self.add_concept(node, d, deps);
                    return None;
                }
            }
            Alternatives::Merge { .. } => {
                // Try every mergeable pair; merge the child of the pair.
                while let Some((via, a, b)) = self.next_pair(top) {
                    if self.nodes[a as usize].distinct.binary_search(&b).is_ok() {
                        // This pair is ruled out by a distinctness
                        // assertion: the refutation rests on it too.
                        let dep = self.distinct_dep(a, b);
                        self.choices[top].acc |= dep;
                        continue;
                    }
                    // At most one of a, b is via's parent; merge the
                    // child into the other node.
                    let (from, to) =
                        if self.nodes[via as usize].parent == a { (b, a) } else { (a, b) };
                    self.merge(via, from, to, deps);
                    return None;
                }
            }
        }
        let c = &self.choices[top];
        Some(if c.limited { SResult::Limit } else { SResult::Unsat(c.acc) })
    }

    /// Advance the merge choice at `top` to its next neighbour pair.
    fn next_pair(&mut self, top: usize) -> Option<(u32, u32, u32)> {
        let Alternatives::Merge { via, ref neighbors, ref mut i, ref mut j } =
            self.choices[top].alternatives
        else {
            unreachable!("caller checked the kind")
        };
        if *j >= neighbors.len() {
            *i += 1;
            *j = *i + 1;
        }
        if *j >= neighbors.len() {
            return None;
        }
        let pair = (via, neighbors[*i], neighbors[*j]);
        *j += 1;
        Some(pair)
    }

    /// Open a choice point on `alternatives` at the current state and
    /// apply its first alternative (`None`), or report its verdict at
    /// once when it has none (`Some`).
    fn open_choice(&mut self, base: Just, alternatives: Alternatives) -> Option<SResult> {
        // Decision levels are 1-based: the stack depth after the push.
        let level = self.choices.len() as u32 + 1;
        self.choices.push(Choice {
            mark: self.mark(),
            level,
            base,
            acc: base,
            limited: false,
            alternatives,
        });
        let decided = self.next_alternative();
        if decided.is_some() {
            self.choices.pop();
        }
        decided
    }

    /// Expand the current branch: drain deterministic work, then branch on
    /// `⊔`, then on `≤`-merges, then apply one generating rule; a
    /// quiescent, clash-free forest is satisfiable. `Some` is the branch's
    /// result; `None` means a choice point opened and its first
    /// alternative is in place.
    fn expand(&mut self) -> Option<SResult> {
        loop {
            // Drain the dirty worklist (∀-propagation and clash checks).
            while let Some(x) = self.dirty.pop() {
                self.in_dirty[x as usize] = false;
                if !self.spend() {
                    return Some(SResult::Limit);
                }
                self.process_node(x);
                if let Some(conflict) = self.clash {
                    return Some(SResult::Unsat(conflict));
                }
            }

            // ⊔-rule: first live, unresolved disjunction on the agenda.
            while self.or_cursor < self.or_agenda.len() {
                let (node, cid) = self.or_agenda[self.or_cursor];
                let resolved = !self.nodes[node as usize].alive || {
                    let CKind::Or(ids) = self.arena.kind(cid) else {
                        unreachable!("or agenda holds disjunctions")
                    };
                    ids.iter().any(|d| self.label_subsumes(node, *d))
                };
                if resolved {
                    self.or_cursor += 1;
                    continue;
                }
                if !self.spend() {
                    return Some(SResult::Limit);
                }
                // The choice exists because the disjunction label does:
                // every refutation of the whole point inherits its deps.
                let base = self.label_dep(node, cid) | self.nodes[node as usize].deps;
                return self.open_choice(base, Alternatives::Or { node, or: cid, next: 0 });
            }

            // ≤-rule: merge surplus neighbours (violation is not monotone,
            // so the agenda is scanned in full).
            let mut le_choice = None;
            let mut scratch = std::mem::take(&mut self.scratch);
            for idx in 0..self.atmost_agenda.len() {
                let (node, cid) = self.atmost_agenda[idx];
                if !self.nodes[node as usize].alive {
                    continue;
                }
                let CKind::AtMost(n, role) = *self.arena.kind(cid) else {
                    unreachable!("atmost agenda holds ≤ concepts")
                };
                Self::collect_neighbors(&self.nodes, node, role, &mut scratch);
                if scratch.len() > n as usize {
                    le_choice = Some((node, cid, scratch.clone()));
                    break;
                }
            }
            self.scratch = scratch;
            if let Some((via, cid, neighbors)) = le_choice {
                if !self.spend() {
                    return Some(SResult::Limit);
                }
                // The merge obligation rests on the ≤ label, the node and
                // the links to every surplus neighbour. At least one pair
                // is mergeable: were all pairs asserted distinct, the
                // clash check in process_node would have fired before
                // quiescence.
                let mut base = self.label_dep(via, cid) | self.nodes[via as usize].deps;
                for &y in &neighbors {
                    base |= self.link_deps(via, y);
                }
                return self.open_choice(base, Alternatives::Merge { via, neighbors, i: 0, j: 1 });
            }

            // Generating rules on unblocked nodes.
            match self.apply_one_generator() {
                Some(true) => {
                    if let Some(conflict) = self.clash {
                        return Some(SResult::Unsat(conflict));
                    }
                    continue;
                }
                None => return Some(SResult::Limit),
                Some(false) => {}
            }
            if !self.spend() {
                // Out of budget exactly at quiescence: certifying
                // completeness costs the final unit, as in the original
                // engine's per-iteration accounting.
                return Some(SResult::Limit);
            }

            // No rule applies: complete and clash-free.
            return Some(SResult::Sat);
        }
    }

    /// Apply the first applicable `∃`/`≥` rule. `Some(true)`: one fired.
    /// `Some(false)`: none applicable. `None`: one was applicable but the
    /// budget is exhausted. Satisfied entries get a sticky (trail-recorded)
    /// done bit; blocked entries are skipped but stay pending, since
    /// blocking is not monotone.
    fn apply_one_generator(&mut self) -> Option<bool> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut blocking_known = false;
        for idx in 0..self.gen_agenda.len() {
            if self.gen_done[idx] {
                continue;
            }
            let (node, cid) = self.gen_agenda[idx];
            if !self.nodes[node as usize].alive {
                // Death is monotone within a branch: sticky-skip. The
                // label moved to the merge survivor, whose own agenda
                // entry covers the rule.
                self.gen_done[idx] = true;
                self.trail.push(Op::GenDone { idx: idx as u32 });
                continue;
            }
            match *self.arena.kind(cid) {
                CKind::Exists(role, body) => {
                    Self::collect_neighbors(&self.nodes, node, role, &mut scratch);
                    if scratch.iter().any(|&y| self.label_subsumes(y, body)) {
                        // Satisfaction is monotone within a branch (labels
                        // grow, merges preserve neighbours): sticky-skip.
                        self.gen_done[idx] = true;
                        self.trail.push(Op::GenDone { idx: idx as u32 });
                        continue;
                    }
                    if !blocking_known {
                        self.compute_blocking();
                        blocking_known = true;
                    }
                    if self.blocking.blocked[node as usize] {
                        continue;
                    }
                    self.scratch = scratch;
                    if !self.spend() {
                        return None;
                    }
                    let deps = self.label_dep(node, cid) | self.nodes[node as usize].deps;
                    self.add_child(node, role, Some(body), deps);
                    self.gen_done[idx] = true;
                    self.trail.push(Op::GenDone { idx: idx as u32 });
                    return Some(true);
                }
                CKind::AtLeast(n, role) => {
                    Self::collect_neighbors(&self.nodes, node, role, &mut scratch);
                    if scratch.len() >= n as usize
                        && self.has_n_pairwise_distinct(&scratch, n as usize)
                    {
                        self.gen_done[idx] = true;
                        self.trail.push(Op::GenDone { idx: idx as u32 });
                        continue;
                    }
                    if !blocking_known {
                        self.compute_blocking();
                        blocking_known = true;
                    }
                    if self.blocking.blocked[node as usize] {
                        continue;
                    }
                    self.scratch = scratch;
                    if !self.spend() {
                        return None;
                    }
                    let deps = self.label_dep(node, cid) | self.nodes[node as usize].deps;
                    let fresh: Vec<u32> =
                        (0..n).map(|_| self.add_child(node, role, None, deps)).collect();
                    for (i, &a) in fresh.iter().enumerate() {
                        for &b in fresh[i + 1..].iter() {
                            self.add_distinct(a, b, deps);
                        }
                    }
                    self.gen_done[idx] = true;
                    self.trail.push(Op::GenDone { idx: idx as u32 });
                    return Some(true);
                }
                _ => unreachable!("generator agenda holds ∃/≥ concepts"),
            }
        }
        self.scratch = scratch;
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::RoleExpr;

    /// The per-proof context the unit tests below run under.
    fn cx() -> ExecCx {
        ExecCx::with_steps(100_000)
    }

    /// The shared scenario suite (see `crate::test_scenarios`): every rule
    /// interaction with its expected verdict, run through the trail-based
    /// engine. `classic::tests` runs the identical list, so both engines
    /// answer to one specification.
    #[test]
    fn trail_engine_matches_expected_verdicts() {
        for case in crate::test_scenarios::all() {
            assert_eq!(
                DlOutcome::from(satisfiable_cx(
                    &case.tbox,
                    &case.query,
                    &ExecCx::with_steps(case.budget)
                )),
                case.expected,
                "trail engine wrong on: {}",
                case.name
            );
        }
    }

    /// Conflicts raised while no choice point is open (decision level 0)
    /// must refute cleanly: the dependency machinery only mints bits for
    /// levels ≥ 1, so a level-0 clash carries an empty conflict set and
    /// must neither panic (the old `(level - 1)` underflow) nor smuggle a
    /// phantom bit into the dependency set.
    #[test]
    fn level_zero_conflicts_are_total() {
        // Immediate clash during root seeding: A ⊓ ¬A, empty TBox.
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let query = Concept::and([a.clone(), Concept::not(a.clone())]);
        assert_eq!(satisfiable_cx(&t, &query, &cx()), SearchOutcome::Unsat);

        // Deterministic propagation clash with zero disjunctions opened:
        // A ⊑ ⊥ dooms A without a single ⊔/≤ choice point.
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Bottom);
        assert_eq!(satisfiable_cx(&t, &a, &cx()), SearchOutcome::Unsat);

        // And the refutation does not corrupt later verdicts in the same
        // TBox: B stays satisfiable after A's level-0 refutation.
        let b = Concept::Atomic(t.atom("B"));
        assert_eq!(satisfiable_cx(&t, &b, &cx()), SearchOutcome::Sat);
    }

    /// Thousands of open choice points cost heap, not stack: a search that
    /// nests one `⊔` decision per residual GCI runs on a 256 KiB thread.
    #[test]
    fn deep_choice_stacks_need_no_call_stack() {
        const LEVELS: u32 = 3_000;
        let mut t = TBox::new();
        for i in 0..LEVELS {
            let a = Concept::Atomic(t.atom(format!("A{i}")));
            let b = Concept::Atomic(t.atom(format!("B{i}")));
            t.gci(Concept::Top, Concept::or([a, b]));
        }
        // The last choice's first alternative clashes, so the search also
        // backtracks at the bottom of the stack.
        let last = Concept::Atomic(t.atom(format!("A{}", LEVELS - 1)));
        t.gci(last, Concept::Bottom);
        let verdict = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || satisfiable_cx(&t, &Concept::Top, &ExecCx::unlimited()))
            .expect("spawn")
            .join()
            .expect("the search overflowed its stack");
        assert_eq!(verdict, SearchOutcome::Sat);
    }

    /// `choice_bit` is monotone over precise levels and saturates at 63;
    /// level 1 (the first real decision) owns bit 0.
    #[test]
    fn choice_bits_are_well_placed() {
        assert_eq!(choice_bit(1), 1);
        assert_eq!(choice_bit(2), 2);
        assert_eq!(choice_bit(63), 1 << 62);
        assert_eq!(choice_bit(64), 1 << 63);
        assert_eq!(choice_bit(1000), 1 << 63);
        assert!(precise_level(63));
        assert!(!precise_level(64));
    }

    /// Witness extraction: every `Sat` verdict yields a model whose root
    /// carries the query, and the confirmation checks behave soundly on
    /// axioms the model does / does not determine.
    #[test]
    fn witness_confirms_unaffecting_gcis() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let fresh = Concept::Atomic(t.atom("Fresh"));
        t.gci(a.clone(), b.clone());
        let (verdict, witness) = satisfiable_with_witness_cx(&t, &a, &cx());
        assert_eq!(verdict, SearchOutcome::Sat);
        let mut w = witness.expect("Sat carries a witness");
        assert!(w.node_count() >= 1);
        // `Fresh ⊑ ⊥` is vacuously satisfied: no node mentions Fresh.
        assert!(w.confirms_gci(&fresh, &Concept::Bottom));
        // `A ⊑ B` (already an axiom) is confirmed syntactically.
        assert!(w.confirms_gci(&a, &b));
        // `A ⊑ Fresh` cannot be confirmed: the root has A but not Fresh.
        assert!(!w.confirms_gci(&a, &fresh));
        // `⊤ ⊑ Fresh` likewise.
        assert!(!w.confirms_gci(&Concept::Top, &fresh));
    }

    /// A node with no `R`-neighbour satisfies every `∀R.C`, so a witness
    /// confirms role exclusions and `∃R.⊤ ⊑ D` additions where `R` is not
    /// played — and only there.
    #[test]
    fn witness_takes_universals_as_vacuous_without_neighbours() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let r = RoleExpr::direct(t.role("R"));
        let s = RoleExpr::direct(t.role("S"));
        t.gci(Concept::some(r), a.clone());
        t.gci(Concept::and([a.clone(), b.clone()]), Concept::Bottom);
        let exclusion = Concept::and([Concept::some(r), Concept::some(s)]);
        // B plays no role at all.
        let (_, w) = satisfiable_with_witness_cx(&t, &b, &cx());
        let mut w = w.expect("B is satisfiable");
        assert!(w.confirms_gci(&exclusion, &Concept::Bottom));
        assert!(w.confirms_gci(&Concept::some(r), &b));
        // A ⊓ ∃R.⊤ has an R-successor: nothing about R is vacuous there.
        let query = Concept::and([a.clone(), Concept::some(r)]);
        let (_, w) = satisfiable_with_witness_cx(&t, &query, &cx());
        let mut w = w.expect("A ⊓ ∃R.⊤ is satisfiable");
        assert!(w.confirms_gci(&exclusion, &Concept::Bottom), "no node has an S-neighbour");
        assert!(!w.confirms_gci(&Concept::some(r), &b));
        // A witness rebuilt from a snapshot keeps its neighbour roles.
        let mut restored = Witness::from_snapshot_parts(w.snapshot_parts());
        assert!(restored.confirms_gci(&exclusion, &Concept::Bottom));
        assert!(!restored.confirms_gci(&Concept::some(r), &b));
    }

    #[test]
    fn unsat_and_limit_carry_no_witness() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Bottom);
        assert!(matches!(satisfiable_with_witness_cx(&t, &a, &cx()), (SearchOutcome::Unsat, None)));
        let r = RoleExpr::direct(t.role("R"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(b.clone(), Concept::Exists(r, Box::new(b.clone())));
        assert!(matches!(
            satisfiable_with_witness_cx(&t, &b, &ExecCx::with_steps(1)),
            (SearchOutcome::BudgetExhausted, None)
        ));
    }

    #[test]
    fn witness_edge_checks_respect_new_disjointness() {
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let s = RoleExpr::direct(t.role("S"));
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::some(r));
        let (verdict, witness) = satisfiable_with_witness_cx(&t, &a, &cx());
        assert_eq!(verdict, SearchOutcome::Sat);
        let w = witness.expect("witness");
        assert!(w.has_role_edges());
        // Disjointness between two roles the witness never pairs on one
        // edge is respected …
        let mut grown = t.clone();
        grown.disjoint(r, s);
        assert!(w.respects_disjointness(&grown.role_closure()));
        // … and a self-inconsistent declaration on the edge's own role is
        // caught by the scan.
        let mut doomed = t.clone();
        doomed.disjoint(r, r);
        assert!(!w.respects_disjointness(&doomed.role_closure()));
    }

    #[test]
    fn subsumes_reduces_to_unsatisfiability() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), b.clone());
        let cx = ExecCx::with_steps(500_000);
        assert_eq!(subsumes_cx(&t, &b, &a, &cx), Ok(Some(true)));
        assert_eq!(subsumes_cx(&t, &a, &b, &cx), Ok(Some(false)));
        assert_eq!(subsumes_cx(&t, &a, &b, &ExecCx::with_steps(0)), Ok(None));
    }
}
