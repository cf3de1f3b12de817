//! # orm-reasoner — a complete bounded model finder for ORM schemas
//!
//! The paper contrasts its fast-but-incomplete patterns with a *complete*
//! reasoning procedure obtained by translating ORM to the DLR description
//! logic and running RACER (§4). RACER is closed source and no DLR
//! reasoner exists in the open Rust ecosystem, so this crate provides the
//! substitute comparator: an exhaustive, propagation-pruned search for a
//! **population** of the schema over bounded domains, covering **all**
//! constraint kinds — including the ring and value constraints that the
//! DLR mapping cannot express (paper footnote 10).
//!
//! Semantics:
//!
//! * [`Outcome::Satisfiable`] — a witness population was found (and
//!   re-verified through `orm-population`, so this verdict is
//!   unconditionally sound);
//! * [`Outcome::UnsatWithinBounds`] — the *entire* bounded space was
//!   exhausted. For the contradiction patterns of the paper this is a
//!   genuine refutation: each pattern's inconsistency already manifests at
//!   tiny domain sizes. In general ORM lacks a finite-model property, so
//!   the verdict is "unsatisfiable within bounds";
//! * [`Outcome::BudgetExhausted`] — the node budget ran out first (the
//!   exponential blow-up the paper attributes to complete procedures —
//!   measured by the `patterns_vs_complete` benchmark).
//!
//! # Example
//!
//! ```
//! use orm_model::SchemaBuilder;
//! use orm_reasoner::{strong_satisfiability, Bounds, Outcome};
//!
//! let mut b = SchemaBuilder::new("s");
//! let person = b.entity_type("Person").unwrap();
//! let car = b.entity_type("Car").unwrap();
//! let drives = b.fact_type("drives", person, car).unwrap();
//! let r = b.schema().fact_type(drives).first();
//! b.mandatory(r).unwrap();
//! let schema = b.finish();
//!
//! match strong_satisfiability(&schema, Bounds::default()) {
//!     Outcome::Satisfiable(pop) => assert!(!pop.is_empty()),
//!     other => panic!("expected a model, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diagnose;
mod search;

pub use diagnose::{
    diagnose_cx, diagnose_saturation, diagnose_with_cx, DiagnosedElement, Diagnosis, Repair,
    SaturationDiagnosis, FAMILY_LIMIT,
};
pub use search::{find_model, Bounds, Outcome, Target};

use orm_dl::{ExecCx, SearchOutcome, Translation};
use orm_model::{ObjectTypeId, RoleId, Schema};
use orm_population::{CheckOptions, CheckPlan, Population, Violation};

/// Weak (schema) satisfiability: is there any model at all?
///
/// For this constraint language the empty population is always a model —
/// the paper's Fig. 1 observation — so this is mostly a sanity interface;
/// it still runs the search so the invariant is checked rather than
/// assumed.
pub fn weak_satisfiability(schema: &Schema, bounds: Bounds) -> Outcome {
    find_model(schema, &[], bounds)
}

/// Concept satisfiability: find a model populating **all** object types.
pub fn concept_satisfiability(schema: &Schema, bounds: Bounds) -> Outcome {
    let targets: Vec<Target> = schema.object_types().map(|(id, _)| Target::Type(id)).collect();
    find_model(schema, &targets, bounds)
}

/// Strong (role) satisfiability: find a model populating **all** roles —
/// the notion the paper's patterns target.
pub fn strong_satisfiability(schema: &Schema, bounds: Bounds) -> Outcome {
    let targets: Vec<Target> = schema.roles().map(|(id, _)| Target::Role(id)).collect();
    find_model(schema, &targets, bounds)
}

/// Satisfiability of a single role: can `role` ever be populated?
///
/// ```
/// use orm_model::SchemaBuilder;
/// use orm_reasoner::{role_satisfiability, Bounds, Outcome};
///
/// // Pattern 7's contradiction: a uniqueness constraint (≤1) against a
/// // frequency constraint demanding 2–5 occurrences per player.
/// let mut b = SchemaBuilder::new("s");
/// let a = b.entity_type("A").unwrap();
/// let x = b.entity_type("X").unwrap();
/// let f = b.fact_type("f", a, x).unwrap();
/// let r = b.schema().fact_type(f).first();
/// b.unique([r]).unwrap();
/// b.frequency([r], 2, Some(5)).unwrap();
/// let schema = b.finish();
///
/// assert!(matches!(
///     role_satisfiability(&schema, r, Bounds::default()),
///     Outcome::UnsatWithinBounds
/// ));
/// ```
pub fn role_satisfiability(schema: &Schema, role: RoleId, bounds: Bounds) -> Outcome {
    find_model(schema, &[Target::Role(role)], bounds)
}

/// Satisfiability of a single object type.
pub fn type_satisfiability(schema: &Schema, ty: ObjectTypeId, bounds: Bounds) -> Outcome {
    find_model(schema, &[Target::Type(ty)], bounds)
}

/// The per-role battery a whole-schema check runs: one bounded search
/// per role, in `schema.roles()` order. Unlike [`strong_satisfiability`]
/// (one search populating *all* roles at once), the sweep localizes each
/// verdict to its role — the per-element reporting the paper's patterns
/// produce, re-derived by the complete procedure.
pub fn role_sweep(schema: &Schema, bounds: Bounds) -> Vec<(RoleId, Outcome)> {
    schema.roles().map(|(role, _)| (role, role_satisfiability(schema, role, bounds))).collect()
}

/// [`role_sweep`] fanned out over up to `threads` scoped worker threads
/// (via [`orm_dl::par::fan_out`]): the per-role searches are fully
/// independent, each exploring its own population space against the
/// shared read-only schema. Same verdicts, same order.
pub fn role_sweep_par(schema: &Schema, bounds: Bounds, threads: usize) -> Vec<(RoleId, Outcome)> {
    let roles: Vec<RoleId> = schema.roles().map(|(role, _)| role).collect();
    let outcomes =
        orm_dl::par::fan_out(&roles, threads, |_, &role| role_satisfiability(schema, role, bounds));
    roles.into_iter().zip(outcomes).collect()
}

/// The per-type battery, sequentially.
pub fn type_sweep(schema: &Schema, bounds: Bounds) -> Vec<(ObjectTypeId, Outcome)> {
    schema.object_types().map(|(ty, _)| (ty, type_satisfiability(schema, ty, bounds))).collect()
}

/// [`type_sweep`] fanned out over up to `threads` scoped worker threads.
pub fn type_sweep_par(
    schema: &Schema,
    bounds: Bounds,
    threads: usize,
) -> Vec<(ObjectTypeId, Outcome)> {
    let types: Vec<ObjectTypeId> = schema.object_types().map(|(ty, _)| ty).collect();
    let outcomes =
        orm_dl::par::fan_out(&types, threads, |_, &ty| type_satisfiability(schema, ty, bounds));
    types.into_iter().zip(outcomes).collect()
}

/// An editor-in-the-loop checking session — the paper's §4 interactive
/// scenario, where a modeler adds one constraint at a time and expects
/// per-element feedback after each keystroke.
///
/// The session holds one DL [`Translation`] whose **sharded verdict cache
/// survives monotone schema edits**: additions applied through
/// [`InteractiveSession::edit`] are recorded in the TBox's delta log, and
/// the re-run sweeps replay every unaffected verdict from warm shards
/// (`Unsat` entries are monotone-safe; `Sat` entries are revalidated
/// against their stored witness models) instead of re-proving the whole
/// battery — see `orm_dl::cache` for the retention rules.
///
/// ```
/// use orm_model::SchemaBuilder;
/// use orm_reasoner::InteractiveSession;
/// use orm_dl::{ExecCx, SearchOutcome};
///
/// let mut b = SchemaBuilder::new("s");
/// let a = b.entity_type("A").unwrap();
/// let x = b.entity_type("X").unwrap();
/// let f1 = b.fact_type("f1", a, x).unwrap();
/// let f2 = b.fact_type("f2", a, x).unwrap();
/// let r1 = b.schema().fact_type(f1).first();
/// let r3 = b.schema().fact_type(f2).first();
/// let schema = b.finish();
///
/// let mut session = InteractiveSession::new(&schema);
/// let cx = ExecCx::with_steps(100_000);
/// assert!(session.role_sweep_cx(&schema, &cx).iter().all(|(_, v)| *v == SearchOutcome::Sat));
///
/// // One edit, one warm re-sweep: the exclusion dooms r3 only.
/// session.edit().add_role_exclusion(r1, r3);
/// session.edit().add_mandatory(a, &[r1]);
/// let sweep = session.role_sweep_cx(&schema, &cx);
/// assert!(sweep.iter().any(|(r, v)| *r == r3 && *v == SearchOutcome::Unsat));
/// assert_eq!(session.cache_stats().invalidations, 0);
/// ```
#[derive(Debug)]
pub struct InteractiveSession {
    translation: Translation,
}

impl InteractiveSession {
    /// Start a session by translating the schema's current state.
    pub fn new(schema: &Schema) -> InteractiveSession {
        InteractiveSession { translation: orm_dl::translate(schema) }
    }

    /// The underlying translation (TBox, concept maps, unmapped notes).
    pub fn translation(&self) -> &Translation {
        &self.translation
    }

    /// Apply constraint additions for this session (see
    /// [`orm_dl::EditSession`] for the available operations).
    pub fn edit(&mut self) -> orm_dl::EditSession<'_> {
        self.translation.edit()
    }

    /// The per-role DL sweep against the warm shards — the
    /// deadline-and-cancel-aware entry point an editor binds to a
    /// keystroke. Once the context trips, the remaining roles report the
    /// interrupt's [`SearchOutcome`] variant immediately and nothing
    /// half-proved is cached, so the *next* keystroke's sweep re-proves
    /// them against the same warm shards.
    pub fn role_sweep_cx(&self, schema: &Schema, cx: &ExecCx) -> Vec<(RoleId, SearchOutcome)> {
        self.translation.role_sweep_cx(schema, cx)
    }

    /// The per-type DL sweep against the warm shards (see
    /// [`InteractiveSession::role_sweep_cx`]).
    pub fn type_sweep_cx(
        &self,
        schema: &Schema,
        cx: &ExecCx,
    ) -> Vec<(ObjectTypeId, SearchOutcome)> {
        self.translation.type_sweep_cx(schema, cx)
    }

    /// Aggregated cache counters — `retained`/`revalidated` show how much
    /// of the battery each edit preserved.
    pub fn cache_stats(&self) -> orm_dl::CacheStats {
        self.translation.cache_stats()
    }

    /// Serialize the session's warm verdict cache into the versioned,
    /// checksummed snapshot format (see [`orm_dl::SatShards::snapshot`]).
    /// Persist the bytes beside the schema and hand them to
    /// [`InteractiveSession::restore`] after a restart to skip the cold
    /// re-prove.
    pub fn snapshot(&self) -> Vec<u8> {
        self.translation.snapshot()
    }

    /// Install a snapshot taken by [`InteractiveSession::snapshot`] into
    /// this freshly started session. Corrupt bytes or a snapshot of a
    /// different terminology are rejected with the cache untouched and
    /// the session degrades to a cold start — never a panic or a stale
    /// verdict (see [`orm_dl::SatShards::restore`]).
    pub fn restore(&self, bytes: &[u8]) -> Result<orm_dl::RestoreReport, orm_dl::SnapshotError> {
        self.translation.restore(bytes)
    }
}

/// A reusable bulk-conformance checker: the schema is certified and its
/// constraint set compiled into a [`CheckPlan`] **once**, then arbitrarily
/// many populations stream through the columnar engine with no tableau and
/// no per-row dispatch on the data path.
///
/// The plan is keyed on the schema revision and the TBox cache stamp, so
/// a schema edit (builder mutation or [`BulkChecker::edit`] axiom) makes
/// the next [`BulkChecker::check`] recompile transparently — stale plans
/// are never executed.
///
/// ```
/// use orm_dl::ExecCx;
/// use orm_model::SchemaBuilder;
/// use orm_population::{CheckOptions, Population};
/// use orm_reasoner::BulkChecker;
///
/// let mut b = SchemaBuilder::new("s");
/// let person = b.entity_type("Person").unwrap();
/// let car = b.entity_type("Car").unwrap();
/// let drives = b.fact_type("drives", person, car).unwrap();
/// let r = b.schema().fact_type(drives).first();
/// b.mandatory(r).unwrap();
/// let schema = b.finish();
///
/// let mut pop = Population::new();
/// pop.add_instance(person, "ann");
/// pop.add_instance(car, "c1");
/// pop.add_fact(drives, "ann", "c1");
///
/// let cx = ExecCx::with_steps(100_000);
/// let mut checker = BulkChecker::with_context(&schema, &cx, CheckOptions::default());
/// assert!(checker.check(&schema, &pop).is_empty());
/// assert!(checker.plan().is_some_and(|p| p.certified_sat()));
///
/// pop.add_instance(person, "idle"); // plays no role: mandatory violated
/// assert_eq!(checker.check(&schema, &pop).len(), 1);
/// ```
#[derive(Debug)]
pub struct BulkChecker {
    translation: Translation,
    plan: Option<CheckPlan>,
    options: CheckOptions,
    cx: ExecCx,
}

impl BulkChecker {
    /// A checker bound to an execution context: the context's step
    /// budget bounds each certification proof, its deadline and token can
    /// interrupt a compile (the plan then certifies nothing), and its meter
    /// aggregates every (re)compile the checker performs over its
    /// lifetime. The checker keeps a clone — the caller's handle still
    /// cancels it.
    pub fn with_context(schema: &Schema, cx: &ExecCx, options: CheckOptions) -> BulkChecker {
        BulkChecker { translation: orm_dl::translate(schema), plan: None, options, cx: cx.clone() }
    }

    /// The execution context the certification sweeps run under.
    pub fn context(&self) -> &ExecCx {
        &self.cx
    }

    /// Validate `pop`, compiling (or recompiling) the plan if the cached
    /// one is missing or stale. Reports exactly the violations
    /// [`orm_population::check`] would.
    pub fn check(&mut self, schema: &Schema, pop: &Population) -> Vec<Violation> {
        self.plan_for(schema).execute(schema, pop)
    }

    /// The current plan, compiling it on demand (amortize compilation
    /// without running a population through it — or pair with
    /// [`CheckPlan::execute_columnar`] to amortize the columnar freeze
    /// too).
    pub fn plan_for(&mut self, schema: &Schema) -> &CheckPlan {
        let stale = !self.plan.as_ref().is_some_and(|p| p.is_current(schema, &self.translation));
        if stale {
            self.plan = Some(CheckPlan::compile(schema, &self.translation, &self.cx, self.options));
        }
        self.plan.as_ref().expect("plan was just compiled")
    }

    /// The cached plan, if one has been compiled (stale or not).
    pub fn plan(&self) -> Option<&CheckPlan> {
        self.plan.as_ref()
    }

    /// The underlying translation (for inspecting the certification).
    pub fn translation(&self) -> &Translation {
        &self.translation
    }

    /// Apply session-level axiom additions — the next
    /// [`BulkChecker::check`] notices the stamp change and recompiles.
    pub fn edit(&mut self) -> orm_dl::EditSession<'_> {
        self.translation.edit()
    }
}

/// One-shot bulk conformance: compile a certified plan for `schema` and
/// run `pop` through it. For repeated populations against one schema,
/// hold a [`BulkChecker`] instead so the compile is paid once.
pub fn check_bulk(
    schema: &Schema,
    pop: &Population,
    cx: &ExecCx,
    options: CheckOptions,
) -> Vec<Violation> {
    BulkChecker::with_context(schema, cx, options).check(schema, pop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::{RingKind, SchemaBuilder, ValueConstraint};

    #[test]
    fn weak_satisfiability_always_holds() {
        // Even a schema with a doomed role is weakly satisfiable (Fig. 1).
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.unique([r]).unwrap();
        b.frequency([r], 2, Some(5)).unwrap(); // Pattern 7 contradiction
        let s = b.finish();
        assert!(matches!(weak_satisfiability(&s, Bounds::default()), Outcome::Satisfiable(_)));
    }

    #[test]
    fn fig1_weakly_but_not_concept_satisfiable() {
        let mut b = SchemaBuilder::new("fig1");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("PhdStudent").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        b.exclusive_types([student, employee]).unwrap();
        let s = b.finish();
        assert!(matches!(weak_satisfiability(&s, Bounds::default()), Outcome::Satisfiable(_)));
        // PhdStudent alone cannot be populated.
        assert!(matches!(
            type_satisfiability(&s, phd, Bounds::default()),
            Outcome::UnsatWithinBounds
        ));
        // But every *other* type can be.
        for t in [person, student, employee] {
            assert!(matches!(
                type_satisfiability(&s, t, Bounds::default()),
                Outcome::Satisfiable(_)
            ));
        }
    }

    #[test]
    fn pattern7_contradiction_refuted() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.unique([r]).unwrap();
        b.frequency([r], 2, Some(5)).unwrap();
        let s = b.finish();
        assert!(matches!(
            role_satisfiability(&s, r, Bounds::default()),
            Outcome::UnsatWithinBounds
        ));
    }

    #[test]
    fn pattern4_contradiction_refuted() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.value_type("X", Some(ValueConstraint::enumeration(["x1", "x2"]))).unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.frequency([r], 3, Some(5)).unwrap();
        let s = b.finish();
        assert!(matches!(
            role_satisfiability(&s, r, Bounds::default()),
            Outcome::UnsatWithinBounds
        ));
        // With min = 2 the role becomes satisfiable.
        let mut b = SchemaBuilder::new("s2");
        let a = b.entity_type("A").unwrap();
        let x = b.value_type("X", Some(ValueConstraint::enumeration(["x1", "x2"]))).unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r = b.schema().fact_type(f).first();
        b.frequency([r], 2, Some(5)).unwrap();
        let s = b.finish();
        assert!(matches!(role_satisfiability(&s, r, Bounds::default()), Outcome::Satisfiable(_)));
    }

    #[test]
    fn ring_incompatibility_refuted() {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("W").unwrap();
        let f = b.fact_type("rel", w, w).unwrap();
        b.ring(f, [RingKind::Acyclic, RingKind::Symmetric]).unwrap();
        let s = b.finish();
        let r = s.fact_type(f).first();
        assert!(matches!(
            role_satisfiability(&s, r, Bounds::default()),
            Outcome::UnsatWithinBounds
        ));
    }

    #[test]
    fn irreflexive_ring_satisfiable() {
        let mut b = SchemaBuilder::new("s");
        let w = b.entity_type("Woman").unwrap();
        let f = b.fact_type("sister_of", w, w).unwrap();
        b.ring(f, [RingKind::Irreflexive]).unwrap();
        let s = b.finish();
        assert!(matches!(strong_satisfiability(&s, Bounds::default()), Outcome::Satisfiable(_)));
    }

    #[test]
    fn subtype_loop_refuted() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let c = b.entity_type("C").unwrap();
        b.subtype(a, c).unwrap();
        b.subtype(c, a).unwrap();
        let s = b.finish();
        assert!(matches!(
            type_satisfiability(&s, a, Bounds::default()),
            Outcome::UnsatWithinBounds
        ));
    }

    #[test]
    fn fig14_strongly_satisfiable() {
        // The formation-rule-6 example must be provably fine.
        let mut b = SchemaBuilder::new("fig14");
        let a = b.entity_type("A").unwrap();
        let bb = b.entity_type("B").unwrap();
        let c = b.entity_type("C").unwrap();
        b.subtype(bb, a).unwrap();
        b.subtype(c, a).unwrap();
        b.total_subtypes(a, [bb, c]).unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", bb, x).unwrap();
        let f2 = b.fact_type("f2", c, x).unwrap();
        let f3 = b.fact_type("f3", a, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        let r5 = b.schema().fact_type(f3).first();
        b.mandatory(r1).unwrap();
        b.mandatory(r3).unwrap();
        b.exclusion_roles([r3, r5]).unwrap();
        let s = b.finish();
        let outcome = strong_satisfiability(&s, Bounds::default());
        assert!(matches!(outcome, Outcome::Satisfiable(_)), "got {outcome:?}");
    }

    #[test]
    fn parallel_sweeps_match_sequential() {
        // Fig. 4a shape: r1 mandatory, {r1, r3} exclusive — r3 doomed.
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let y = b.entity_type("Y").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, y).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        b.mandatory(r1).unwrap();
        b.exclusion_roles([r1, b.schema().fact_type(f2).first()]).unwrap();
        let s = b.finish();
        let bounds = Bounds::small();

        let seq_roles = role_sweep(&s, bounds);
        assert!(seq_roles.iter().any(|(_, o)| o.is_unsat_within_bounds()));
        let seq_types = type_sweep(&s, bounds);
        for threads in [1, 2, 8] {
            let par_roles = role_sweep_par(&s, bounds, threads);
            assert_eq!(par_roles.len(), seq_roles.len());
            for ((r1, o1), (r2, o2)) in seq_roles.iter().zip(&par_roles) {
                assert_eq!(r1, r2, "role order changed at {threads} threads");
                assert_eq!(
                    (o1.is_sat(), o1.is_unsat_within_bounds()),
                    (o2.is_sat(), o2.is_unsat_within_bounds()),
                    "role verdict changed at {threads} threads"
                );
            }
            let par_types = type_sweep_par(&s, bounds, threads);
            for ((t1, o1), (t2, o2)) in seq_types.iter().zip(&par_types) {
                assert_eq!(t1, t2);
                assert_eq!(
                    (o1.is_sat(), o1.is_unsat_within_bounds()),
                    (o2.is_sat(), o2.is_unsat_within_bounds())
                );
            }
        }
    }

    /// The interactive session's warm re-sweep after an edit equals a
    /// cold translation of the edited schema, with the cache visibly
    /// retaining work (nonzero retained+revalidated, zero
    /// invalidations).
    #[test]
    fn interactive_session_matches_cold_translation() {
        const BUDGET: u64 = 200_000;
        let build = |with_exclusion: bool| {
            let mut b = SchemaBuilder::new("s");
            let person = b.entity_type("Person").unwrap();
            let student = b.entity_type("Student").unwrap();
            let employee = b.entity_type("Employee").unwrap();
            let phd = b.entity_type("Phd").unwrap();
            b.subtype(student, person).unwrap();
            b.subtype(employee, person).unwrap();
            b.subtype(phd, student).unwrap();
            b.subtype(phd, employee).unwrap();
            if with_exclusion {
                b.exclusive_types([student, employee]).unwrap();
            }
            (b.finish(), student, employee)
        };
        let (schema, student, employee) = build(false);
        let cx = ExecCx::with_steps(BUDGET);
        let mut session = InteractiveSession::new(&schema);
        let before = session.type_sweep_cx(&schema, &cx);
        assert!(before.iter().all(|(_, v)| *v == SearchOutcome::Sat));

        session.edit().add_type_exclusion(student, employee);
        let warm = session.type_sweep_cx(&schema, &cx);

        let (edited, ..) = build(true);
        let cold = orm_dl::translate(&edited).type_sweep_cx(&edited, &cx);
        assert_eq!(
            warm.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            cold.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            "warm session diverged from cold translation"
        );
        let stats = session.cache_stats();
        assert_eq!(stats.invalidations, 0, "the edit thrashed the shards");
        assert!(stats.retained + stats.revalidated > 0, "no entry survived the edit: {stats:?}");
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        for i in 0..6 {
            b.fact_type(&format!("f{i}"), a, x).unwrap();
        }
        let s = b.finish();
        let tiny = Bounds { max_nodes: 3, ..Bounds::default() };
        assert!(matches!(strong_satisfiability(&s, tiny), Outcome::BudgetExhausted));
    }
}
