//! Unsat-core extraction: *which axioms* make a query unsatisfiable.
//!
//! A bare `Unsat` verdict tells an ORM modeler that a type or role can
//! never be populated — but not which of the schema's constraints gang up
//! on it. This module turns a refutation into a **minimal unsat core**: a
//! set of TBox axioms that (a) still refutes the query on its own and
//! (b) stops refuting it when any single axiom is removed. Mapped back
//! through the `orm_to_dl` provenance table and verbalized, the core *is*
//! the diagnosis the paper's interactive scenario calls for.
//!
//! # Algorithm
//!
//! 1. **Seed** — run the tableau with axiom-usage tracking
//!    ([`crate::tableau::satisfiable_with_conflict_cx`]). Every derived fact
//!    carries the set of axioms it transitively rests on, so the final
//!    conflict names a (conservative, possibly saturated) superset of one
//!    refutation's axioms — usually far smaller than the whole TBox.
//! 2. **Verify** — re-prove the query against the seed's restriction
//!    ([`crate::tbox::TBox::restrict_to`]). The usage sets are heuristic;
//!    only an actual `Unsat` run over the restricted TBox certifies the
//!    seed. An unconfirmed seed falls back to the full axiom set (which
//!    step 1 proved unsatisfiable).
//! 3. **Shrink** — deletion-based minimization: drop one axiom at a time
//!    and keep the deletion whenever the rest still refutes the query.
//!    Each "still refutes" probe again runs with tracking, and the probe's
//!    own (verified) conflict set can discard *several* axioms at once —
//!    the backjumping conflict sets double as a core-refinement
//!    accelerator. Satisfiability is anti-monotone in the axiom set
//!    (removing axioms only grows the model class), so an axiom whose
//!    removal once made the query satisfiable can never re-enter: the
//!    final set is minimal in one left-to-right pass.
//!
//! # Guarantees
//!
//! * Every returned core is itself unsatisfiable for the query — certified
//!   by an actual tableau run, never inferred from the usage sets.
//! * When [`UnsatCore::minimal`] is `true` (every probe reached a
//!   definitive verdict), removing any single axiom from the core flips
//!   the verdict to `Sat`. A probe that dies on the budget keeps its axiom
//!   conservatively and clears the flag: the core is still a certified
//!   unsat core, just possibly not minimal.
//! * The outcome classification always agrees with the plain
//!   [`crate::tableau::satisfiable_cx`] verdict: `Unsat(_)` exactly when the
//!   plain run answers `Unsat`.
//!
//! The differential property tests in `tests/explain_dl.rs` pin all three
//! guarantees across random schemas.
//!
//! # Beyond one core
//!
//! One MUS names one contradiction; a schema with several independent
//! ones deserves all of them at once. [`enumerate_mus_cx`] lifts the
//! extractor into a MARCO-style enumeration over the axiom powerset
//! (found MUSes *block* their supersets, so each is discovered exactly
//! once), and [`repair_sets`] / [`ranked_repairs_cx`] turn the family into
//! ⊆-minimal **hitting sets** — candidate repairs, each re-proved `Sat`
//! against the TBox minus the repair and ranked by edit recency from the
//! delta log. See `docs/EXPLANATIONS.md` for the full algorithm.

use crate::concept::Concept;
use crate::exec::ExecCx;
use crate::tableau::{satisfiable_cx, satisfiable_with_conflict_cx, DlOutcome, SearchOutcome};
use crate::tbox::{AxiomId, TBox};

/// A certified unsat core: axioms whose restriction still refutes the
/// query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatCore {
    /// The core's axioms, sorted by provenance id. May be empty: a query
    /// like `A ⊓ ¬A` is self-contradictory under the empty terminology.
    pub axioms: Vec<AxiomId>,
    /// Whether minimality is certified: `true` when every deletion probe
    /// reached a definitive verdict, so removing any single axiom is
    /// *known* to make the query satisfiable. `false` only when a probe
    /// ran out of budget and its axiom was kept conservatively.
    pub minimal: bool,
}

impl UnsatCore {
    /// Number of axioms in the core.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// Whether the core is empty (the query is self-contradictory).
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }
}

/// Outcome of an explanation request — the same three-way split as
/// [`DlOutcome`], with the `Unsat` arm carrying its core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Explanation {
    /// The query is unsatisfiable; here is a certified core.
    Unsat(UnsatCore),
    /// The query is satisfiable — nothing to explain.
    Satisfiable,
    /// The budget ran out before the *initial* verdict was certain.
    ResourceLimit,
}

impl Explanation {
    /// The plain verdict this explanation corresponds to (what
    /// [`crate::tableau::satisfiable_cx`] would have answered).
    pub fn verdict(&self) -> DlOutcome {
        match self {
            Explanation::Unsat(_) => DlOutcome::Unsat,
            Explanation::Satisfiable => DlOutcome::Sat,
            Explanation::ResourceLimit => DlOutcome::ResourceLimit,
        }
    }

    /// The core, when unsatisfiable.
    pub fn core(&self) -> Option<&UnsatCore> {
        match self {
            Explanation::Unsat(core) => Some(core),
            _ => None,
        }
    }
}

/// Whether `candidate`'s restriction refutes `query`, reporting the
/// probe's own conflict seed for refinement. Runs under the caller's
/// execution context — one per-proof step budget per probe, with the
/// context's cancellation token and deadline checked cooperatively inside the tableau, so a
/// whole extraction stops within one probe of an interrupt.
fn probe(
    tbox: &TBox,
    candidate: &[AxiomId],
    query: &Concept,
    cx: &ExecCx,
) -> (SearchOutcome, Option<Vec<AxiomId>>) {
    let sub = tbox.restrict_to(candidate);
    let (verdict, conflict) = satisfiable_with_conflict_cx(&sub, query, cx);
    // The restricted TBox numbers its axioms 0..n in `candidate` order:
    // map the conflict back to the caller's provenance ids.
    let mapped = conflict.map(|ids| {
        let mut back: Vec<AxiomId> = ids
            .into_iter()
            .map(|id| {
                // Position of the restricted id in flat order == position
                // in `candidate` grouped by kind; recover it by counting.
                let flat = sub
                    .axiom_ids()
                    .position(|x| x == id)
                    .expect("conflict ids come from the restricted TBox");
                // `restrict_to` pushes axioms in `candidate` order, and
                // flat order groups by kind — rebuild the mapping.
                candidate_flat_to_original(candidate, flat)
            })
            .collect();
        back.sort_unstable();
        back.dedup();
        back
    });
    (verdict, mapped)
}

/// The original id at flat position `flat` of `restrict_to(candidate)`:
/// the restriction preserves each kind's relative order, and flat order
/// lists GCIs, then role inclusions, then disjointness.
fn candidate_flat_to_original(candidate: &[AxiomId], flat: usize) -> AxiomId {
    use crate::tbox::AxiomKind::{Disjointness, Gci, RoleInclusion};
    let mut in_order: Vec<&AxiomId> = Vec::with_capacity(candidate.len());
    for kind in [Gci, RoleInclusion, Disjointness] {
        in_order.extend(candidate.iter().filter(|a| a.kind == kind));
    }
    *in_order[flat]
}

/// Compute a minimal unsat core of `query` against `tbox` (see the
/// [module docs](self) for the algorithm and guarantees). Every internal
/// probe inherits `cx` — its per-proof step budget bounds each probe, and
/// its cancellation token and deadline are observed inside each tableau
/// run, so the extraction stops within one probe of an interrupt. An
/// interrupt before the initial verdict classifies as
/// [`Explanation::ResourceLimit`] (the caller distinguishes interruption
/// by checking `cx` itself); an interrupt *during* minimization returns
/// the certified core found so far with [`UnsatCore::minimal`] cleared —
/// never a wrong or uncertified answer.
///
/// ```
/// use orm_dl::concept::Concept;
/// use orm_dl::exec::ExecCx;
/// use orm_dl::explain::{explain_unsat_cx, Explanation};
/// use orm_dl::tbox::TBox;
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// let b = Concept::Atomic(tbox.atom("B"));
/// let ab = tbox.gci(a.clone(), b.clone());
/// let doom = tbox.gci(Concept::and([a.clone(), b.clone()]), Concept::Bottom);
/// tbox.gci(b.clone(), Concept::Top); // irrelevant noise
///
/// let cx = ExecCx::with_steps(100_000);
/// match explain_unsat_cx(&tbox, &a, &cx) {
///     Explanation::Unsat(core) => {
///         assert_eq!(core.axioms, vec![ab, doom]);
///         assert!(core.minimal);
///     }
///     other => panic!("expected a core, got {other:?}"),
/// }
/// assert_eq!(explain_unsat_cx(&tbox, &b, &cx), Explanation::Satisfiable);
/// ```
pub fn explain_unsat_cx(tbox: &TBox, query: &Concept, cx: &ExecCx) -> Explanation {
    let (verdict, conflict) = satisfiable_with_conflict_cx(tbox, query, cx);
    match verdict {
        SearchOutcome::Sat => return Explanation::Satisfiable,
        SearchOutcome::BudgetExhausted
        | SearchOutcome::Cancelled
        | SearchOutcome::DeadlineExceeded => return Explanation::ResourceLimit,
        SearchOutcome::Unsat => {}
    }
    let all: Vec<AxiomId> = tbox.axiom_ids().collect();
    // Step 2: verify the seed; fall back to the full set when the
    // restriction fails to refute (the usage sets are heuristic). The
    // verifying probe's own, smaller conflict is adopted only after a
    // verification probe of its own — like every refinement in step 3,
    // it is a heuristic mask until an actual run certifies it.
    let seed = conflict.expect("unsat carries a conflict");
    let core = if seed.len() < all.len() {
        match probe(tbox, &seed, query, cx) {
            (SearchOutcome::Unsat, refined) => match refined {
                Some(r) if r.len() < seed.len() => match probe(tbox, &r, query, cx) {
                    (SearchOutcome::Unsat, _) => r,
                    _ => seed,
                },
                _ => seed,
            },
            _ => all.clone(),
        }
    } else {
        all.clone()
    };
    Explanation::Unsat(minimize(tbox, query, cx, core))
}

/// Compute an unsat core of `query` starting from a **warm seed**: axiom
/// ids whose restriction is suspected (not required) to refute the query —
/// typically a certified core extracted for a *different* element of the
/// same schema, whose doom usually rests on the same axiom cluster.
///
/// The seed is probed first. If its restriction certifiably refutes the
/// query, minimization starts from the seed and the full-TBox tableau run
/// that dominates [`explain_unsat_cx`]'s cold path is **skipped entirely**
/// — sound because satisfiability is anti-monotone in the axiom set: a
/// refuting restriction means the full TBox refutes too. A seed that fails
/// to refute (or whose probe is cut short) costs one probe and falls back
/// to the cold path. Unknown axiom ids in the seed are ignored. The probes
/// inherit `cx` as in [`explain_unsat_cx`].
pub fn explain_unsat_seeded_cx(
    tbox: &TBox,
    query: &Concept,
    cx: &ExecCx,
    seed: &[AxiomId],
) -> Explanation {
    let known: Vec<AxiomId> = {
        let present: std::collections::HashSet<AxiomId> = tbox.axiom_ids().collect();
        let mut k: Vec<AxiomId> = seed.iter().copied().filter(|a| present.contains(a)).collect();
        k.sort_unstable();
        k.dedup();
        k
    };
    // Seeding with every axiom proves nothing the cold path would not.
    if known.is_empty() || known.len() >= tbox.axiom_count() {
        return explain_unsat_cx(tbox, query, cx);
    }
    match probe(tbox, &known, query, cx) {
        (SearchOutcome::Unsat, refined) => {
            let core = match refined {
                Some(r) if r.len() < known.len() => match probe(tbox, &r, query, cx) {
                    (SearchOutcome::Unsat, _) => r,
                    _ => known,
                },
                _ => known,
            };
            Explanation::Unsat(minimize(tbox, query, cx, core))
        }
        _ => explain_unsat_cx(tbox, query, cx),
    }
}

/// Deletion-minimize a **certified** core (its restriction is already
/// known to refute `query`) — step 3 of the [module docs](self), shared
/// by the cold and the seeded extraction paths.
fn minimize(tbox: &TBox, query: &Concept, cx: &ExecCx, mut core: Vec<AxiomId>) -> UnsatCore {
    core.sort_unstable();
    core.dedup();
    // Deletion minimization with conflict refinement. Invariant:
    // `core`'s restriction is certified Unsat; every axiom before `i` is
    // needed (its sole removal was probed Sat against a superset of the
    // final core — anti-monotonicity transfers that to the final core).
    let mut minimal = true;
    let mut i = 0;
    while i < core.len() {
        if cx.check().is_err() {
            // Interrupted mid-minimization: the invariant still certifies
            // `core` as an unsat core — return it, minus the minimality
            // claim, instead of burning a no-op probe per remaining axiom.
            minimal = false;
            break;
        }
        let mut candidate = core.clone();
        let removed = candidate.remove(i);
        match probe(tbox, &candidate, query, cx) {
            (SearchOutcome::Unsat, refined) => {
                // Drop `removed` for good; adopt the probe's smaller
                // conflict when it verifies (one extra probe), else the
                // candidate itself. `i` stays: a new axiom now sits here.
                core = match refined {
                    Some(seed) if seed.len() < candidate.len() => {
                        match probe(tbox, &seed, query, cx) {
                            (SearchOutcome::Unsat, _) => {
                                // The jump may strip already-vetted
                                // axioms; restart the scan over the
                                // smaller set (still terminates: the set
                                // shrank strictly).
                                i = 0;
                                seed
                            }
                            _ => candidate,
                        }
                    }
                    _ => candidate,
                };
            }
            (SearchOutcome::Sat, _) => i += 1,
            _ => {
                // Could not decide (budget, cancellation, or deadline):
                // keep the axiom, lose the minimality certificate.
                let _ = removed;
                minimal = false;
                i += 1;
            }
        }
    }
    UnsatCore { axioms: core, minimal }
}

/// Convenience: whether `core` (alone) certifiably refutes `query` — the
/// check the property tests and the bench harness run against every
/// extracted core.
pub fn core_refutes(tbox: &TBox, core: &UnsatCore, query: &Concept, budget: u64) -> bool {
    core_refutes_cx(tbox, core, query, &ExecCx::with_steps(budget))
}

/// Whether `core` (alone) certifiably refutes `query` under an execution
/// context — `true` only on a certified `Unsat` run; an interrupted check
/// conservatively reports `false` (the caller must not emit what it could
/// not certify).
pub fn core_refutes_cx(tbox: &TBox, core: &UnsatCore, query: &Concept, cx: &ExecCx) -> bool {
    satisfiable_cx(&tbox.restrict_to(&core.axioms), query, cx) == SearchOutcome::Unsat
}

/// The enumerated family of minimal unsat cores (MUSes) of one query —
/// what [`enumerate_mus_cx`] returns inside [`MusEnumeration::Unsat`].
///
/// Every core in the family is individually certified (its restriction
/// refutes the query, re-proved by [`core_refutes`] before emission) and
/// the cores are pairwise ⊆-incomparable by construction. The two flags
/// qualify the *family*:
///
/// * [`MusFamily::truncated`] — enumeration stopped at the caller's
///   `limit` with candidate subsets still unexplored; more MUSes may
///   exist.
/// * [`MusFamily::complete`] — the family provably contains **every**
///   MUS: enumeration drained its worklist (`!truncated`) and every probe
///   along the way reached a definitive verdict. A probe dying on the
///   budget (or an uncertified refinement) clears this conservatively;
///   the emitted cores are still individually certified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MusFamily {
    /// The certified cores, in discovery order (the single-core
    /// extractor's result first).
    pub cores: Vec<UnsatCore>,
    /// Enumeration hit the `limit` cap with work left: there may be more
    /// MUSes than reported.
    pub truncated: bool,
    /// Every MUS of the query is in `cores` — certified by a fully
    /// decisive, drained exploration.
    pub complete: bool,
}

impl MusFamily {
    /// Number of enumerated cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the family holds no cores (never the case inside
    /// [`MusEnumeration::Unsat`]).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }
}

/// Outcome of a MUS-enumeration request — the same three-way split as
/// [`Explanation`], with the `Unsat` arm carrying the whole family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MusEnumeration {
    /// The query is unsatisfiable; here is its (possibly capped) family
    /// of certified minimal unsat cores.
    Unsat(MusFamily),
    /// The query is satisfiable — nothing to enumerate.
    Satisfiable,
    /// The budget ran out before the *initial* verdict was certain.
    ResourceLimit,
}

impl MusEnumeration {
    /// The plain verdict this enumeration corresponds to.
    pub fn verdict(&self) -> DlOutcome {
        match self {
            MusEnumeration::Unsat(_) => DlOutcome::Unsat,
            MusEnumeration::Satisfiable => DlOutcome::Sat,
            MusEnumeration::ResourceLimit => DlOutcome::ResourceLimit,
        }
    }

    /// The family, when unsatisfiable.
    pub fn family(&self) -> Option<&MusFamily> {
        match self {
            MusEnumeration::Unsat(family) => Some(family),
            _ => None,
        }
    }
}

/// Whether sorted `sub` is a subset of sorted `sup` (two-pointer scan —
/// every candidate set in the enumerator is kept sorted and deduplicated).
fn sorted_subset(sub: &[AxiomId], sup: &[AxiomId]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|a| it.any(|b| b == a))
}

/// Enumerate **all** (or the first `limit`) minimal unsat cores of
/// `query` against `tbox` — the MARCO-style grow/shrink loop over the
/// axiom powerset (see `docs/EXPLANATIONS.md`).
///
/// The first MUS comes from the efficient single-core extractor
/// ([`explain_unsat_cx`]'s conflict-seeded path). Each further candidate
/// subset `S` is handled by *blocking*: if some already-found MUS `M ⊆ S`
/// then `S` cannot yield a new MUS directly (any other MUS `M' ⊆ S` must
/// avoid some axiom of `M`, both being minimal and distinct), so the
/// enumerator skips the probe and branches into `S ∖ {a}` for each
/// `a ∈ M`. An unblocked `S` is probed via [`TBox::restrict_to`]: `Sat`
/// closes the branch, `Unsat` shrinks within `S` to a fresh MUS
/// (deletion-minimization never leaves `S`, and minimality/refutation are
/// properties of the restriction alone — independent of the ambient set —
/// so the result is a genuine MUS of the full TBox), which is re-certified
/// by [`core_refutes_cx`] before emission and then blocks its own branches.
/// This branching is complete: every MUS is reachable by excluding, one
/// by one, the axioms of the MUSes it avoids.
///
/// Duplicates are impossible (a shrink inside `S` reproducing a found `M`
/// would mean `M ⊆ S`, contradicting the blocking pre-check), which also
/// makes the emitted cores pairwise ⊆-incomparable.
///
/// `limit` caps the family at top-k (`0` is promoted to `1`;
/// `usize::MAX` means "all"); hitting the cap with work left sets
/// [`MusFamily::truncated`]. The whole loop — first extraction,
/// blocking-tree probes, per-MUS minimizations — inherits `cx`, so a
/// cancellation or deadline **stops the enumeration cleanly mid-family**:
/// the cores certified so far are returned with [`MusFamily::truncated`]
/// set and [`MusFamily::complete`] cleared (an interrupt before the
/// initial verdict classifies as [`MusEnumeration::ResourceLimit`]). No
/// partial or uncertified core is ever emitted.
///
/// ```
/// use orm_dl::concept::Concept;
/// use orm_dl::exec::ExecCx;
/// use orm_dl::explain::{enumerate_mus_cx, MusEnumeration};
/// use orm_dl::tbox::TBox;
///
/// let mut tbox = TBox::new();
/// let a = Concept::Atomic(tbox.atom("A"));
/// let b = Concept::Atomic(tbox.atom("B"));
/// // Two independent refutations of A: A ⊑ ⊥ and A ⊑ B, B ⊑ ⊥.
/// let doom1 = tbox.gci(a.clone(), Concept::Bottom);
/// let ab = tbox.gci(a.clone(), b.clone());
/// let doom2 = tbox.gci(b.clone(), Concept::Bottom);
///
/// let cx = ExecCx::with_steps(100_000);
/// let MusEnumeration::Unsat(family) = enumerate_mus_cx(&tbox, &a, &cx, usize::MAX) else {
///     panic!("A is doomed");
/// };
/// assert!(family.complete && !family.truncated);
/// let mut cores: Vec<_> = family.cores.iter().map(|c| c.axioms.clone()).collect();
/// cores.sort();
/// assert_eq!(cores, vec![vec![doom1], vec![ab, doom2]]);
/// ```
pub fn enumerate_mus_cx(tbox: &TBox, query: &Concept, cx: &ExecCx, limit: usize) -> MusEnumeration {
    enumerate_mus_seeded_cx(tbox, query, cx, limit, &[])
}

/// [`enumerate_mus_cx`] with a warm-start seed for the *first* extraction
/// (the [`explain_unsat_seeded_cx`] fast path — typically the pooled core
/// axioms of other elements of the same schema). The seed only steers how
/// the first MUS is found; every emitted core is certified the same way.
pub fn enumerate_mus_seeded_cx(
    tbox: &TBox,
    query: &Concept,
    cx: &ExecCx,
    limit: usize,
    seed: &[AxiomId],
) -> MusEnumeration {
    let first_core = match explain_unsat_seeded_cx(tbox, query, cx, seed) {
        Explanation::Unsat(core) => core,
        Explanation::Satisfiable => return MusEnumeration::Satisfiable,
        Explanation::ResourceLimit => return MusEnumeration::ResourceLimit,
    };
    let limit = limit.max(1);
    let mut decisive = first_core.minimal;
    let mut cores: Vec<UnsatCore> = vec![first_core];
    let all: Vec<AxiomId> = tbox.axiom_ids().collect();
    let mut work: Vec<Vec<AxiomId>> = vec![all];
    let mut visited: std::collections::HashSet<Vec<AxiomId>> = std::collections::HashSet::new();
    let mut truncated = false;
    while let Some(s) = work.pop() {
        if cx.check().is_err() {
            // Interrupted mid-family: stop cleanly with the cores
            // certified so far. `truncated` tells the caller the family
            // may be larger; `decisive = false` below clears `complete`.
            truncated = true;
            decisive = false;
            break;
        }
        if !visited.insert(s.clone()) {
            continue;
        }
        // Blocking: a found MUS inside `s` means no *new* MUS can be the
        // shrink result here — branch straight into its exclusions.
        // Branching on the smallest such MUS keeps the tree narrow.
        if let Some(m) =
            cores.iter().filter(|m| sorted_subset(&m.axioms, &s)).min_by_key(|m| m.len())
        {
            for &a in &m.axioms {
                let mut child: Vec<AxiomId> = s.iter().copied().filter(|&x| x != a).collect();
                child.shrink_to_fit();
                work.push(child);
            }
            continue;
        }
        match probe(tbox, &s, query, cx) {
            (SearchOutcome::Sat, _) => {}
            (
                SearchOutcome::BudgetExhausted
                | SearchOutcome::Cancelled
                | SearchOutcome::DeadlineExceeded,
                _,
            ) => decisive = false,
            (SearchOutcome::Unsat, refined) => {
                // Adopt the probe's own (verified) smaller conflict as the
                // shrink start; it stays within `s` by construction.
                let start = match refined {
                    Some(r) if r.len() < s.len() => match probe(tbox, &r, query, cx) {
                        (SearchOutcome::Unsat, _) => r,
                        _ => s.clone(),
                    },
                    _ => s.clone(),
                };
                let core = minimize(tbox, query, cx, start);
                decisive &= core.minimal;
                // Re-certify before emitting — never trust masks.
                if core_refutes_cx(tbox, &core, query, cx) {
                    if cores.len() >= limit {
                        // A fresh MUS exists beyond the cap.
                        truncated = true;
                        break;
                    }
                    visited.remove(&s);
                    work.push(s);
                    cores.push(core);
                } else {
                    decisive = false;
                }
            }
        }
    }
    let complete = !truncated && decisive;
    MusEnumeration::Unsat(MusFamily { cores, truncated, complete })
}

/// A candidate repair: a ⊆-minimal set of axioms hitting every enumerated
/// core, i.e. removing them breaks **all** known refutations at once.
///
/// Produced unverified by [`repair_sets`] (a pure hitting-set
/// computation) and verified + ranked by [`ranked_repairs_cx`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairSet {
    /// The axioms to drop, sorted by provenance id.
    pub axioms: Vec<AxiomId>,
    /// Whether removing exactly these axioms was re-proved to make the
    /// query satisfiable (never assumed — a hitting set of a truncated or
    /// incomplete family can miss an unenumerated MUS). `false` until
    /// [`ranked_repairs_cx`] proves it.
    pub verified: bool,
    /// The most recent delta-log position among the repair's axioms
    /// ([`TBox::axiom_recency`]) — the ranking key: a modeler most likely
    /// wants to undo the *latest* edit involved in the contradiction.
    /// `None` until ranked (or when no axiom resolves against the log).
    pub recency: Option<u64>,
}

impl RepairSet {
    /// Number of axioms the repair removes.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// Whether the repair removes nothing (never returned: an empty
    /// hitting set would mean there were no cores to hit).
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }
}

/// Safety valve on the raw hitting-set recursion: the branch tree is
/// bounded by the product of core sizes, tiny on real diagnoses (cores
/// average ~2.6 axioms, families a handful of cores) but a pathological
/// family could blow it up.
const MAX_RAW_HITTING_SETS: usize = 65_536;

/// All ⊆-minimal hitting sets of `cores` — the candidate repairs: every
/// core loses at least one axiom, so every *known* refutation breaks.
///
/// Branch-and-bound on the first un-hit core (Reiter's HS-tree): each of
/// its axioms is one child branch, so every minimal hitting set is the
/// label set of some root-to-leaf path; non-minimal and duplicate leaves
/// are filtered afterwards. The recursion depth is bounded by the number
/// of cores (each level hits one more core), which bounds repair size the
/// same way.
///
/// A core with **no axioms** (a self-contradictory query) cannot be hit:
/// the result is empty — no axiom removal can repair such an element.
/// The returned sets are unverified ([`RepairSet::verified`] is `false`):
/// hitting every *enumerated* core only guarantees satisfiability when
/// the family is complete — use [`ranked_repairs_cx`] to re-prove each.
pub fn repair_sets(cores: &[UnsatCore]) -> Vec<RepairSet> {
    if cores.is_empty() || cores.iter().any(|c| c.is_empty()) {
        return Vec::new();
    }
    fn recurse(cores: &[UnsatCore], partial: &mut Vec<AxiomId>, out: &mut Vec<Vec<AxiomId>>) {
        if out.len() >= MAX_RAW_HITTING_SETS {
            return;
        }
        match cores.iter().find(|c| !c.axioms.iter().any(|a| partial.contains(a))) {
            None => {
                let mut hit = partial.clone();
                hit.sort_unstable();
                out.push(hit);
            }
            Some(unhit) => {
                for &a in &unhit.axioms {
                    partial.push(a);
                    recurse(cores, partial, out);
                    partial.pop();
                }
            }
        }
    }
    let mut raw = Vec::new();
    recurse(cores, &mut Vec::new(), &mut raw);
    raw.sort();
    raw.dedup();
    // Keep only the ⊆-minimal sets (the complete branching emits every
    // minimal hitting set, plus supersets reached along other paths).
    let minimal: Vec<Vec<AxiomId>> = raw
        .iter()
        .filter(|h| !raw.iter().any(|other| other.len() < h.len() && sorted_subset(other, h)))
        .cloned()
        .collect();
    minimal.into_iter().map(|axioms| RepairSet { axioms, verified: false, recency: None }).collect()
}

/// The repairs of `family`, **verified and ranked**: each ⊆-minimal
/// hitting set of the enumerated cores is re-proved by running the
/// tableau against the TBox minus the repair (never assumed — an
/// incomplete family can hide an unenumerated MUS that survives the
/// removal), unverifiable candidates are dropped, and the survivors are
/// ranked by **edit recency** from the delta log
/// ([`TBox::axiom_recency`]): most recently edited first, then smaller
/// repairs, then lexicographic axiom order — a total, deterministic
/// order, so re-ranking against the same log is stable.
///
/// Each verification probe inherits `cx`; an interrupt drops the
/// remaining *unverified* candidates (every returned repair is still
/// individually re-proved `Sat`) — the context-aware analogue of a
/// truncated family.
pub fn ranked_repairs_cx(
    tbox: &TBox,
    query: &Concept,
    cx: &ExecCx,
    family: &MusFamily,
) -> Vec<RepairSet> {
    let mut repairs: Vec<RepairSet> = repair_sets(&family.cores)
        .into_iter()
        .filter_map(|mut repair| {
            if cx.check().is_err() {
                return None;
            }
            let keep: Vec<AxiomId> =
                tbox.axiom_ids().filter(|a| !repair.axioms.contains(a)).collect();
            if satisfiable_cx(&tbox.restrict_to(&keep), query, cx) != SearchOutcome::Sat {
                return None;
            }
            repair.verified = true;
            repair.recency = repair.axioms.iter().filter_map(|&a| tbox.axiom_recency(a)).max();
            Some(repair)
        })
        .collect();
    repairs.sort_by(|a, b| {
        b.recency
            .cmp(&a.recency)
            .then(a.axioms.len().cmp(&b.axioms.len()))
            .then(a.axioms.cmp(&b.axioms))
    });
    repairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::RoleExpr;

    const BUDGET: u64 = 200_000;

    /// The per-proof context every query below runs under.
    fn cx() -> ExecCx {
        ExecCx::with_steps(BUDGET)
    }

    #[test]
    fn empty_core_for_self_contradiction() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Top);
        let query = Concept::and([a.clone(), Concept::not(a.clone())]);
        match explain_unsat_cx(&t, &query, &cx()) {
            Explanation::Unsat(core) => {
                assert!(core.is_empty(), "self-contradiction needs no axioms: {core:?}");
                assert!(core.minimal);
                assert!(core_refutes_cx(&t, &core, &query, &cx()));
            }
            other => panic!("expected a core, got {other:?}"),
        }
    }

    #[test]
    fn core_picks_the_guilty_axioms_only() {
        // Fig. 1 shape: Phd ⊑ Student, Phd ⊑ Employee,
        // Student ⊓ Employee ⊑ ⊥ — plus unrelated noise.
        let mut t = TBox::new();
        let person = Concept::Atomic(t.atom("Person"));
        let student = Concept::Atomic(t.atom("Student"));
        let employee = Concept::Atomic(t.atom("Employee"));
        let phd = Concept::Atomic(t.atom("Phd"));
        let _n1 = t.gci(student.clone(), person.clone());
        let _n2 = t.gci(employee.clone(), person.clone());
        let g1 = t.gci(phd.clone(), student.clone());
        let g2 = t.gci(phd.clone(), employee.clone());
        let g3 = t.gci(Concept::and([student.clone(), employee.clone()]), Concept::Bottom);
        match explain_unsat_cx(&t, &phd, &cx()) {
            Explanation::Unsat(core) => {
                assert_eq!(core.axioms, vec![g1, g2, g3], "core picked wrong axioms");
                assert!(core.minimal);
            }
            other => panic!("expected a core, got {other:?}"),
        }
        // The other types explain as satisfiable.
        for ty in [person, student, employee] {
            assert_eq!(explain_unsat_cx(&t, &ty, &cx()), Explanation::Satisfiable);
        }
    }

    #[test]
    fn role_axioms_appear_in_cores() {
        // ∃F.⊤ doomed through a role inclusion into a self-disjoint role.
        let mut t = TBox::new();
        let f = RoleExpr::direct(t.role("F"));
        let g = RoleExpr::direct(t.role("G"));
        let noise = Concept::Atomic(t.atom("Noise"));
        t.gci(noise.clone(), Concept::Top);
        let ri = t.role_inclusion(f, g);
        let dj = t.disjoint(g, g);
        let query = Concept::some(f);
        match explain_unsat_cx(&t, &query, &cx()) {
            Explanation::Unsat(core) => {
                assert_eq!(core.axioms, vec![ri, dj]);
                assert!(core.minimal);
                assert!(core_refutes_cx(&t, &core, &query, &cx()));
            }
            other => panic!("expected a core, got {other:?}"),
        }
    }

    #[test]
    fn minimality_holds_on_each_axiom() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let c = Concept::Atomic(t.atom("C"));
        t.gci(a.clone(), b.clone());
        t.gci(b.clone(), c.clone());
        t.gci(c.clone(), Concept::Bottom);
        t.gci(b.clone(), b.clone());
        let Explanation::Unsat(core) = explain_unsat_cx(&t, &a, &cx()) else {
            panic!("A must be unsat");
        };
        assert!(core.minimal);
        assert_eq!(core.len(), 3, "chain core should be the three-link chain: {core:?}");
        for i in 0..core.len() {
            let mut weakened = core.axioms.clone();
            weakened.remove(i);
            assert_eq!(
                satisfiable_cx(&t.restrict_to(&weakened), &a, &cx()),
                SearchOutcome::Sat,
                "dropping {} should break the refutation",
                core.axioms[i]
            );
        }
    }

    #[test]
    fn seeded_extraction_agrees_with_cold_path() {
        // Same Fig. 1 shape as `core_picks_the_guilty_axioms_only`.
        let mut t = TBox::new();
        let person = Concept::Atomic(t.atom("Person"));
        let student = Concept::Atomic(t.atom("Student"));
        let employee = Concept::Atomic(t.atom("Employee"));
        let phd = Concept::Atomic(t.atom("Phd"));
        let n1 = t.gci(student.clone(), person.clone());
        let n2 = t.gci(employee.clone(), person.clone());
        let g1 = t.gci(phd.clone(), student.clone());
        let g2 = t.gci(phd.clone(), employee.clone());
        let g3 = t.gci(Concept::and([student.clone(), employee.clone()]), Concept::Bottom);

        // A good seed (another element's certified core, here the exact
        // cluster plus one stray axiom) reproduces the cold-path core.
        let good = explain_unsat_seeded_cx(&t, &phd, &cx(), &[g1, g2, g3, n1]);
        match good {
            Explanation::Unsat(core) => {
                assert_eq!(core.axioms, vec![g1, g2, g3]);
                assert!(core.minimal);
            }
            other => panic!("expected a core, got {other:?}"),
        }
        // A non-refuting seed falls back to the cold path and still lands
        // on a certified minimal core.
        let bad = explain_unsat_seeded_cx(&t, &phd, &cx(), &[n1, n2]);
        match bad {
            Explanation::Unsat(core) => {
                assert_eq!(core.axioms, vec![g1, g2, g3]);
                assert!(core.minimal);
            }
            other => panic!("expected a core, got {other:?}"),
        }
        // Seeding never flips a satisfiable verdict.
        assert_eq!(
            explain_unsat_seeded_cx(&t, &student, &cx(), &[g1, g2, g3]),
            Explanation::Satisfiable
        );
    }

    #[test]
    fn budget_exhaustion_reported_not_guessed() {
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Exists(r, Box::new(a.clone())));
        assert_eq!(explain_unsat_cx(&t, &a, &ExecCx::with_steps(1)), Explanation::ResourceLimit);
    }

    /// Two independent contradictions on one type: both MUSes enumerated,
    /// complete, pairwise incomparable, each certified.
    #[test]
    fn enumeration_finds_both_independent_muses() {
        let mut t = TBox::new();
        let student = Concept::Atomic(t.atom("Student"));
        let employee = Concept::Atomic(t.atom("Employee"));
        let xtra = Concept::Atomic(t.atom("X"));
        let ytra = Concept::Atomic(t.atom("Y"));
        let phd = Concept::Atomic(t.atom("Phd"));
        let g1 = t.gci(phd.clone(), student.clone());
        let g2 = t.gci(phd.clone(), employee.clone());
        let g3 = t.gci(Concept::and([student.clone(), employee.clone()]), Concept::Bottom);
        let g4 = t.gci(phd.clone(), xtra.clone());
        let g5 = t.gci(phd.clone(), ytra.clone());
        let g6 = t.gci(Concept::and([xtra.clone(), ytra.clone()]), Concept::Bottom);
        t.gci(student.clone(), Concept::Top); // noise
        let MusEnumeration::Unsat(family) = enumerate_mus_cx(&t, &phd, &cx(), usize::MAX) else {
            panic!("Phd is doomed");
        };
        assert!(family.complete && !family.truncated, "{family:?}");
        let mut sets: Vec<_> = family.cores.iter().map(|c| c.axioms.clone()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![g1, g2, g3], vec![g4, g5, g6]]);
        for core in &family.cores {
            assert!(core.minimal);
            assert!(core_refutes_cx(&t, core, &phd, &cx()));
        }
    }

    /// `limit = 1` reports the cap honestly: one core, truncated, not
    /// complete.
    #[test]
    fn enumeration_truncates_at_limit() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), Concept::Bottom);
        t.gci(a.clone(), b.clone());
        t.gci(b.clone(), Concept::Bottom);
        let MusEnumeration::Unsat(family) = enumerate_mus_cx(&t, &a, &cx(), 1) else {
            panic!("A is doomed");
        };
        assert_eq!(family.cores.len(), 1);
        assert!(family.truncated);
        assert!(!family.complete);
        // With room for both the truncation flag clears.
        let MusEnumeration::Unsat(full) = enumerate_mus_cx(&t, &a, &cx(), 2) else {
            panic!("A is doomed");
        };
        assert_eq!(full.cores.len(), 2);
        assert!(!full.truncated && full.complete);
    }

    /// A satisfiable query and a starved budget classify exactly like the
    /// single-core extractor.
    #[test]
    fn enumeration_classifies_like_explain() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        t.gci(a.clone(), b.clone());
        assert_eq!(enumerate_mus_cx(&t, &a, &cx(), usize::MAX), MusEnumeration::Satisfiable);
        let r = RoleExpr::direct(t.role("R"));
        t.gci(a.clone(), Concept::Exists(r, Box::new(a.clone())));
        assert_eq!(
            enumerate_mus_cx(&t, &a, &ExecCx::with_steps(1), usize::MAX),
            MusEnumeration::ResourceLimit
        );
    }

    /// The self-contradictory query's family is the single empty core —
    /// and it has no repairs (no axiom removal can help).
    #[test]
    fn empty_core_family_has_no_repairs() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        t.gci(a.clone(), Concept::Top);
        let query = Concept::and([a.clone(), Concept::not(a.clone())]);
        let MusEnumeration::Unsat(family) = enumerate_mus_cx(&t, &query, &cx(), usize::MAX) else {
            panic!("self-contradiction");
        };
        assert_eq!(family.cores.len(), 1);
        assert!(family.cores[0].is_empty());
        assert!(family.complete);
        assert!(repair_sets(&family.cores).is_empty());
        assert!(ranked_repairs_cx(&t, &query, &cx(), &family).is_empty());
    }

    /// Hitting sets of a two-core family: singletons for the shared
    /// structure-free case, every repair hits both cores, and every
    /// returned repair is ⊆-minimal and verified Sat.
    #[test]
    fn repairs_hit_all_cores_and_reprove_sat() {
        let mut t = TBox::new();
        let student = Concept::Atomic(t.atom("Student"));
        let employee = Concept::Atomic(t.atom("Employee"));
        let xtra = Concept::Atomic(t.atom("X"));
        let ytra = Concept::Atomic(t.atom("Y"));
        let phd = Concept::Atomic(t.atom("Phd"));
        t.gci(phd.clone(), student.clone());
        t.gci(phd.clone(), employee.clone());
        t.gci(Concept::and([student.clone(), employee.clone()]), Concept::Bottom);
        t.gci(phd.clone(), xtra.clone());
        t.gci(phd.clone(), ytra.clone());
        t.gci(Concept::and([xtra.clone(), ytra.clone()]), Concept::Bottom);
        let MusEnumeration::Unsat(family) = enumerate_mus_cx(&t, &phd, &cx(), usize::MAX) else {
            panic!("Phd is doomed");
        };
        assert_eq!(family.cores.len(), 2);
        let repairs = ranked_repairs_cx(&t, &phd, &cx(), &family);
        // 3 × 3 single-axiom picks, one from each independent core.
        assert_eq!(repairs.len(), 9);
        for repair in &repairs {
            assert!(repair.verified);
            assert_eq!(repair.len(), 2);
            for core in &family.cores {
                assert!(
                    core.axioms.iter().any(|a| repair.axioms.contains(a)),
                    "repair {repair:?} misses core {core:?}"
                );
            }
            let keep: Vec<AxiomId> = t.axiom_ids().filter(|a| !repair.axioms.contains(a)).collect();
            assert_eq!(satisfiable_cx(&t.restrict_to(&keep), &phd, &cx()), SearchOutcome::Sat);
        }
        // Ranking is deterministic: a re-run reproduces the order.
        assert_eq!(repairs, ranked_repairs_cx(&t, &phd, &cx(), &family));
    }

    /// Recency ranking puts the repair touching the *latest* edit first.
    #[test]
    fn repairs_ranked_by_edit_recency() {
        let mut t = TBox::new();
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let early = t.gci(a.clone(), b.clone());
        let late = t.gci(b.clone(), Concept::Bottom);
        assert!(t.axiom_recency(early) < t.axiom_recency(late));
        let MusEnumeration::Unsat(family) = enumerate_mus_cx(&t, &a, &cx(), usize::MAX) else {
            panic!("A is doomed");
        };
        assert_eq!(family.cores.len(), 1);
        let repairs = ranked_repairs_cx(&t, &a, &cx(), &family);
        assert_eq!(repairs.len(), 2);
        assert_eq!(repairs[0].axioms, vec![late], "latest edit should rank first");
        assert_eq!(repairs[1].axioms, vec![early]);
        assert!(repairs[0].recency > repairs[1].recency);
    }
}
