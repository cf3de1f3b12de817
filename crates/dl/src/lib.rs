//! # orm-dl — a description-logic tableau reasoner and the ORM→DL mapping
//!
//! The paper's "complete procedure" maps ORM into the DLR description logic
//! and calls the (closed-source) RACER reasoner \[JF05\]. This crate rebuilds
//! that pipeline from scratch on an open footing:
//!
//! * [`concept`] — a DL concept language with inverse roles and
//!   *unqualified* number restrictions (`ALCNI` plus a role hierarchy and
//!   role disjointness — exactly what the binary-ORM mapping needs; DLR's
//!   n-ary features degenerate to this fragment for binary predicates);
//! * [`tbox`] — TBoxes of general concept inclusions, role inclusions and
//!   role disjointness, with (memoized) GCI internalization and
//!   absorption and a mutation-stamped identity ([`tbox::TBox::cache_stamp`]) backed by a
//!   **delta log** ([`tbox::TBox::delta_since`]) that tells caches *what*
//!   changed, not just *that* something changed;
//! * [`absorb`] — the TBox compiled once per revision into the tableau's
//!   rules: lazy unfolding, told disjointness and domain/range rules, with
//!   only a residue left internalized;
//! * [`tableau`] — a sound and terminating tableau procedure over the
//!   absorbed rules with pairwise anywhere blocking, successor merging, a
//!   rule budget, trail-based backtracking on an explicit choice stack,
//!   dependency-directed backjumping and per-fact **axiom-usage tracking**
//!   ([`tableau::satisfiable_with_conflict_cx`] reports which axioms a
//!   refutation rested on); the retained clone-per-branch baseline lives
//!   in [`classic`] for differential testing;
//! * [`explain`] — minimal **unsat cores**: the tableau's conflict axioms
//!   verified and deletion-minimized, so an `Unsat` verdict names the
//!   exact axiom set that causes it; MARCO-style **MUS enumeration**
//!   ([`explain::enumerate_mus_cx`]) lifts one core to the whole family of
//!   independent contradictions, and minimal **hitting-set repairs**
//!   ([`explain::ranked_repairs_cx`]) name the axiom sets whose removal is
//!   re-proved to restore satisfiability (guarantees in
//!   `docs/EXPLANATIONS.md`);
//! * [`cache`] — a [`SatCache`] memoizing verdicts per interned root
//!   label set, and its sharded counterpart [`SatShards`] (independently
//!   locked, stamp-validated shards routed by a structural hash of the
//!   canonical root label set) consulted by every [`Translation`]
//!   satisfiability helper so classify-heavy workloads pay for each
//!   distinct query once — from any number of threads. Entries **survive
//!   monotone TBox edits**: `Unsat` verdicts are retained outright and
//!   `Sat` verdicts are revalidated against their stored [`Witness`]
//!   models, so an editor-in-the-loop session keeps its warm cache
//!   across constraint additions ([`Translation::edit`]);
//! * [`exec`] — the unified execution context [`ExecCx`]: a step budget,
//!   an optional wall-clock deadline, a shared hierarchical
//!   [`CancelToken`] and a [`Meter`] of work counters — the one way to
//!   call every engine entry point in the stack. The tableau checks it cooperatively
//!   at worklist pops and choice points, so [`tableau::SearchOutcome`]
//!   can distinguish `Cancelled` / `DeadlineExceeded` from a plain
//!   `BudgetExhausted` — and caches never record interrupted runs;
//! * [`par`] — a work-stealing scoped-thread scheduler
//!   ([`par::fan_out_cx`], with [`par::fan_out`] as the unlimited-context
//!   wrapper) driving the parallel query batteries
//!   [`Translation::classify_par_cx`] and [`Translation::role_sweep_par_cx`]:
//!   per-worker deques, steal-on-empty, and cooperative cancellation
//!   between items;
//! * [`saturation`] — a third engine beside the tableau and the bounded
//!   model finder: a graph-saturation **model finder**
//!   ([`SaturationEngine`]) that saturates a small candidate graph to
//!   fixpoint under ring/value/frequency semantics, certifies every `Sat`
//!   witness with the population checker
//!   ([`orm_model::population::check_indexed`]), and refutes with
//!   `orm_core`'s doom rule set ([`orm_core::doom`]: the paper's pattern
//!   checks closed under E3's propagation), attributing every `Unsat` to
//!   the seed findings it follows from and flagging the verdicts the DL
//!   translation could not have produced ([`Refutation::beyond_dl`]);
//!   each engine memoizes its verdicts per object type and role, with
//!   no stamp: it borrows the schema, which therefore cannot change
//!   under it;
//! * [`orm_to_dl`] — the schema translation, recording an
//!   [`AxiomOrigin`] per emitted axiom so unsat cores map back to the
//!   ORM constructs that caused them ([`Translation::explain_unsat_cx`] /
//!   [`Translation::core_origins`]). Ring constraints, value
//!   constraints and spanning frequency constraints are reported as
//!   *unmapped* — the same expressivity gap the paper concedes for DLR
//!   (footnote 10); the bounded model finder (`orm-reasoner`) covers them.
//!
//! ```
//! use orm_dl::concept::{Concept, RoleExpr};
//! use orm_dl::exec::ExecCx;
//! use orm_dl::tbox::TBox;
//! use orm_dl::tableau::{satisfiable_cx, SearchOutcome};
//!
//! let mut tbox = TBox::new();
//! let a = tbox.atom("A");
//! let b = tbox.atom("B");
//! // A ⊑ B and A ⊓ ¬B unsatisfiable.
//! tbox.gci(Concept::Atomic(a), Concept::Atomic(b));
//! let query = Concept::and([Concept::Atomic(a), Concept::not(Concept::Atomic(b))]);
//! let cx = ExecCx::with_steps(100_000);
//! assert_eq!(satisfiable_cx(&tbox, &query, &cx), SearchOutcome::Unsat);
//! let _ = RoleExpr::direct(0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorb;
pub mod arena;
pub mod cache;
pub mod classic;
pub mod concept;
pub mod exec;
pub mod explain;
pub mod orm_to_dl;
pub mod par;
pub mod saturation;
pub mod tableau;
pub mod tbox;

#[cfg(test)]
mod test_scenarios;

pub use arena::{Arena, ConceptId};
pub use cache::{CacheStats, RestoreReport, SatCache, SatShards, SnapshotError};
pub use concept::{Concept, RoleExpr};
pub use exec::{CancelToken, ExecCx, Interrupt, Meter};
pub use explain::{
    enumerate_mus_cx, enumerate_mus_seeded_cx, explain_unsat_cx, explain_unsat_seeded_cx,
    ranked_repairs_cx, repair_sets, Explanation, MusEnumeration, MusFamily, RepairSet, UnsatCore,
};
pub use orm_to_dl::{translate, AxiomOrigin, EditSession, Translation};
pub use saturation::{
    CheckCode, Origin, Refutation, SaturationEngine, SaturationOutcome, SaturationTarget,
};
pub use tableau::{
    satisfiable_cx, satisfiable_with_conflict_cx, satisfiable_with_witness_cx, subsumes_cx,
    DlOutcome, SearchOutcome, Witness,
};
pub use tbox::{AdditionDelta, AxiomId, AxiomKind, AxiomRef, Delta, EditKind, RoleClosure, TBox};
