//! Translation of ORM schemas into the DL fragment, following the shape of
//! the DLR mapping of \[JF05\] specialized to binary predicates.
//!
//! | ORM construct | DL axiom(s) |
//! |---|---|
//! | object type `A` | atomic concept `CA` |
//! | subtype `A <: B` | `CA ⊑ CB` (non-strict; see below) |
//! | implicit type exclusion | `CA ⊓ CB ⊑ ⊥` for unrelated top families |
//! | exclusive types | pairwise `CA ⊓ CB ⊑ ⊥` |
//! | total subtypes | `CSup ⊑ C1 ⊔ … ⊔ Cn` |
//! | fact `f(r1: A, r2: B)` | role `Rf`, `∃Rf.⊤ ⊑ CA`, `∃Rf⁻.⊤ ⊑ CB` |
//! | mandatory `r` | `player(r) ⊑ ∃dir(r).⊤` (disjunctive: a ⊔ of those) |
//! | uniqueness on role `r` | `⊤ ⊑ ≤1 dir(r)` |
//! | frequency `FC(min..max)` on `r` | `∃dir(r).⊤ ⊑ ≥min dir(r) ⊓ ≤max dir(r)` |
//! | exclusion of single roles | pairwise `∃dir(ri).⊤ ⊓ ∃dir(rj).⊤ ⊑ ⊥` |
//! | subset of single roles | `∃dir(sub).⊤ ⊑ ∃dir(sup).⊤` |
//! | subset of predicates | role inclusion `Rf ⊑ Rg` (inverted when cross-oriented) |
//! | exclusion of predicates | role disjointness |
//! | equality | both subset directions |
//!
//! `dir(r)` is `Rf` when `r` is the first role of its fact type and `Rf⁻`
//! when it is the second.
//!
//! **Unmapped constructs** (collected in [`Translation::unmapped`], exactly
//! the gaps the paper concedes for DLR in footnote 10): ring constraints,
//! value constraints, spanning uniqueness (inherent in DL role semantics,
//! harmless) and spanning frequency constraints. The *strictness* of
//! subtype populations is also approximated as plain inclusion — a DL
//! cannot see the difference, which is why Pattern 9's subtype loops are
//! invisible to the DL comparator and need the patterns or the bounded
//! model finder.

use crate::cache::{CacheStats, RestoreReport, SatShards, SnapshotError};
use crate::concept::{Concept, RoleExpr};
use crate::exec::{ExecCx, Interrupt};
use crate::explain::{
    ranked_repairs_cx, Explanation, MusEnumeration, MusFamily, RepairSet, UnsatCore,
};
use crate::par::{fan_out_cx, SchedStats};
use crate::tableau::SearchOutcome;
use crate::tbox::{AxiomId, TBox};
use orm_model::{
    Constraint, ConstraintId, FactTypeId, ObjectTypeId, RoleId, Schema, SetComparisonKind,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The ORM-level construct one TBox axiom was translated from — the
/// provenance table [`translate`] records for every axiom it emits (and
/// [`EditSession`] for every axiom it adds), keyed by [`AxiomId`]. An
/// unsat core mapped through this table ([`Translation::core_origins`])
/// names the *schema constraints* that doom a type or role, which is what
/// a modeler can actually act on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AxiomOrigin {
    /// A declared subtype link `sub <: sup` (or a session `add_subtype`).
    Subtype {
        /// The subtype.
        sub: ObjectTypeId,
        /// The supertype.
        sup: ObjectTypeId,
    },
    /// ORM's implicit mutual exclusion of types without a common
    /// supertype.
    ImplicitExclusion {
        /// One of the two implicitly exclusive types.
        a: ObjectTypeId,
        /// The other.
        b: ObjectTypeId,
    },
    /// The typing axiom of one role of a fact type (`∃dir(r).⊤ ⊑ C`).
    FactTyping {
        /// The fact type.
        fact: FactTypeId,
        /// The role whose player the axiom types.
        role: RoleId,
    },
    /// A declared schema constraint (mandatory, uniqueness, frequency,
    /// set comparison, exclusive/total subtypes).
    Constraint(ConstraintId),
    /// A session-added type exclusion ([`EditSession::add_type_exclusion`]).
    TypeExclusion {
        /// One excluded type.
        a: ObjectTypeId,
        /// The other.
        b: ObjectTypeId,
    },
    /// A session-added (disjunctive) mandatory constraint
    /// ([`EditSession::add_mandatory`]).
    Mandatory {
        /// The constrained player type.
        player: ObjectTypeId,
        /// The roles of which at least one must be played.
        roles: Vec<RoleId>,
    },
    /// A session-added role subset ([`EditSession::add_role_subset`]).
    RoleSubset {
        /// The subset role.
        sub: RoleId,
        /// The superset role.
        sup: RoleId,
    },
    /// A session-added role exclusion ([`EditSession::add_role_exclusion`]).
    RoleExclusion {
        /// One excluded role.
        a: RoleId,
        /// The other.
        b: RoleId,
    },
}

/// The result of translating an ORM schema.
///
/// All satisfiability helpers ([`Translation::type_satisfiable_cx`],
/// [`Translation::role_satisfiable_cx`], [`Translation::type_subsumed_by_cx`],
/// [`Translation::classify_cx`]) answer through one sharded verdict cache
/// ([`SatShards`]), so the per-role sweeps and `O(n²)` classification
/// batteries a schema check runs pay for each distinct root label set
/// once — and the parallel batteries ([`Translation::classify_par_cx`],
/// [`Translation::role_sweep_par_cx`]) fan the same queries out across
/// worker threads without funneling through one lock. The cache
/// self-invalidates if `tbox` is ever mutated.
#[derive(Debug)]
pub struct Translation {
    /// The generated TBox.
    pub tbox: TBox,
    /// Concept id per object type.
    pub concept_of_type: HashMap<ObjectTypeId, Concept>,
    /// Role direction per ORM role: `Rf` or `Rf⁻`.
    pub role_dir: HashMap<RoleId, RoleExpr>,
    /// Human-readable notes about constructs the DL fragment cannot
    /// express.
    pub unmapped: Vec<String>,
    /// ORM provenance per emitted axiom (see [`AxiomOrigin`]).
    axiom_origins: HashMap<AxiomId, AxiomOrigin>,
    /// Sharded verdict cache behind all satisfiability helpers.
    cache: Arc<SatShards>,
}

impl Clone for Translation {
    /// Clones start with an *empty* verdict cache of their own:
    /// [`TBox::clone`] mints a fresh cache identity (clones may diverge),
    /// so sharing the `Arc` would make the original and the clone
    /// wholesale-invalidate each other's entries on every query.
    fn clone(&self) -> Translation {
        Translation {
            tbox: self.tbox.clone(),
            concept_of_type: self.concept_of_type.clone(),
            role_dir: self.role_dir.clone(),
            unmapped: self.unmapped.clone(),
            axiom_origins: self.axiom_origins.clone(),
            cache: Arc::new(SatShards::new()),
        }
    }
}

impl Translation {
    /// The concept "plays `role`" — `∃dir(role).⊤`.
    pub fn role_concept(&self, role: RoleId) -> Concept {
        Concept::some(self.role_dir[&role])
    }

    /// The concept of an object type.
    pub fn type_concept(&self, ty: ObjectTypeId) -> Concept {
        self.concept_of_type[&ty].clone()
    }

    /// Hit/miss counters of the shared verdict cache, aggregated across
    /// its shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The sharded verdict cache itself, e.g. to count its live entries.
    pub fn shards(&self) -> &SatShards {
        &self.cache
    }

    /// Serialize the warm verdict cache into the versioned, checksummed
    /// snapshot format, keyed on this translation's current TBox
    /// revision — see [`SatShards::snapshot`].
    pub fn snapshot(&self) -> Vec<u8> {
        self.cache.snapshot(&self.tbox)
    }

    /// Install a snapshot taken by [`Translation::snapshot`] into this
    /// translation's (cold) cache. Corrupt bytes or a snapshot of a
    /// different/destructively-edited terminology are rejected with the
    /// cache untouched — see [`SatShards::restore`] for the gates.
    pub fn restore(&self, bytes: &[u8]) -> Result<RestoreReport, SnapshotError> {
        self.cache.restore(&self.tbox, bytes)
    }

    /// The ORM construct an emitted axiom came from, or `None` for axioms
    /// added behind the translation's back (raw [`EditSession::tbox`]
    /// mutations).
    pub fn axiom_origin(&self, id: AxiomId) -> Option<&AxiomOrigin> {
        self.axiom_origins.get(&id)
    }

    /// Explain why `query` is unsatisfiable under the translated TBox: a
    /// minimal unsat core of DL axioms (see [`crate::explain`]), or the
    /// `Satisfiable`/`ResourceLimit` outcome. The extraction's probes
    /// inherit `cx`'s budget, deadline and token, and an interrupted run
    /// surfaces as `ResourceLimit` *without* caching anything (distinguish
    /// via `cx.check()`). Cores are cached beside verdicts in the sharded
    /// cache, so re-asking is free; map a core to its schema-level culprits
    /// with [`Translation::core_origins`].
    ///
    /// ```
    /// use orm_dl::{translate, AxiomOrigin, ExecCx, Explanation};
    /// use orm_model::SchemaBuilder;
    ///
    /// // Fig. 1: a PhD student must be both Student and Employee, but the
    /// // two are declared exclusive.
    /// let mut b = SchemaBuilder::new("fig1");
    /// let person = b.entity_type("Person").unwrap();
    /// let student = b.entity_type("Student").unwrap();
    /// let employee = b.entity_type("Employee").unwrap();
    /// let phd = b.entity_type("PhdStudent").unwrap();
    /// b.subtype(student, person).unwrap();
    /// b.subtype(employee, person).unwrap();
    /// b.subtype(phd, student).unwrap();
    /// b.subtype(phd, employee).unwrap();
    /// b.exclusive_types([student, employee]).unwrap();
    /// let schema = b.finish();
    ///
    /// let t = translate(&schema);
    /// let cx = ExecCx::with_steps(100_000);
    /// let Explanation::Unsat(core) = t.explain_type_cx(phd, &cx) else {
    ///     panic!("PhdStudent must be unsatisfiable");
    /// };
    /// let origins = t.core_origins(&core);
    /// // The diagnosis names the two subtype links and the exclusion —
    /// // and nothing else.
    /// assert_eq!(origins.len(), 3);
    /// assert!(origins.iter().any(|o| matches!(o, AxiomOrigin::Constraint(_))));
    /// assert!(origins
    ///     .iter()
    ///     .any(|o| matches!(o, AxiomOrigin::Subtype { sub, .. } if *sub == phd)));
    /// ```
    pub fn explain_unsat_cx(&self, query: &Concept, cx: &ExecCx) -> Explanation {
        self.cache.explain_cx(&self.tbox, query, cx)
    }

    /// [`Translation::explain_unsat_cx`] for an object type's concept.
    pub fn explain_type_cx(&self, ty: ObjectTypeId, cx: &ExecCx) -> Explanation {
        self.explain_unsat_cx(&self.type_concept(ty), cx)
    }

    /// [`Translation::explain_unsat_cx`] for a role's `∃dir(r).⊤` concept.
    pub fn explain_role_cx(&self, role: RoleId, cx: &ExecCx) -> Explanation {
        self.explain_unsat_cx(&self.role_concept(role), cx)
    }

    /// Enumerate the whole **family** of minimal unsat cores of `query` —
    /// every independent contradiction at once, up to `limit` (see
    /// [`crate::explain::enumerate_mus_cx`]). Families are cached beside
    /// the `Unsat` verdicts in the sharded cache and warm-started across
    /// elements through its seed pool; enumeration stops cleanly
    /// mid-family on an interrupt, keeping the certified cores found so
    /// far (truncated, never uncertified). Map each core to schema-level
    /// culprits with [`Translation::core_origins`] and compute candidate
    /// fixes with [`Translation::repairs_for_cx`].
    pub fn enumerate_unsat_cx(&self, query: &Concept, cx: &ExecCx, limit: usize) -> MusEnumeration {
        self.cache.enumerate_cx(&self.tbox, query, cx, limit)
    }

    /// [`Translation::enumerate_unsat_cx`] for an object type's concept.
    pub fn enumerate_type_cx(&self, ty: ObjectTypeId, cx: &ExecCx, limit: usize) -> MusEnumeration {
        self.enumerate_unsat_cx(&self.type_concept(ty), cx, limit)
    }

    /// [`Translation::enumerate_unsat_cx`] for a role's `∃dir(r).⊤` concept.
    pub fn enumerate_role_cx(&self, role: RoleId, cx: &ExecCx, limit: usize) -> MusEnumeration {
        self.enumerate_unsat_cx(&self.role_concept(role), cx, limit)
    }

    /// The verified, recency-ranked repairs of an enumerated family for
    /// `query` ([`crate::explain::ranked_repairs_cx`]): each ⊆-minimal
    /// hitting set over the family's cores, kept only when removing its
    /// axioms is re-proved to make `query` satisfiable, ranked most
    /// recent edit first. An interrupt drops the unverified candidates.
    /// Map each repair's axioms to the ORM constructs a modeler would
    /// actually drop with [`Translation::repair_origins`].
    pub fn repairs_for_cx(
        &self,
        query: &Concept,
        cx: &ExecCx,
        family: &MusFamily,
    ) -> Vec<RepairSet> {
        ranked_repairs_cx(&self.tbox, query, cx, family)
    }

    /// The distinct ORM origins of a repair's axioms, in axiom order
    /// (deduplicated, like [`Translation::core_origins`]); axioms with no
    /// recorded origin are skipped.
    pub fn repair_origins(&self, repair: &RepairSet) -> Vec<&AxiomOrigin> {
        let mut out: Vec<&AxiomOrigin> = Vec::new();
        for id in &repair.axioms {
            if let Some(origin) = self.axiom_origins.get(id) {
                if !out.contains(&origin) {
                    out.push(origin);
                }
            }
        }
        out
    }

    /// The distinct ORM origins of a core's axioms, in core order
    /// (deduplicated — several axioms of one constraint collapse to one
    /// origin). Axioms with no recorded origin are skipped; count them via
    /// [`Translation::axiom_origin`] if exactness matters.
    pub fn core_origins(&self, core: &UnsatCore) -> Vec<&AxiomOrigin> {
        let mut out: Vec<&AxiomOrigin> = Vec::new();
        for id in &core.axioms {
            if let Some(origin) = self.axiom_origins.get(id) {
                if !out.contains(&origin) {
                    out.push(origin);
                }
            }
        }
        out
    }

    /// Satisfiability of an object type under the translation (cached).
    /// Interrupted runs surface as the distinct [`SearchOutcome`]
    /// variants and leave no cache entry behind.
    pub fn type_satisfiable_cx(&self, ty: ObjectTypeId, cx: &ExecCx) -> SearchOutcome {
        let query = self.type_concept(ty);
        self.cache.satisfiable_cx(&self.tbox, &query, cx)
    }

    /// Satisfiability of a role under the translation (cached).
    pub fn role_satisfiable_cx(&self, role: RoleId, cx: &ExecCx) -> SearchOutcome {
        let query = self.role_concept(role);
        self.cache.satisfiable_cx(&self.tbox, &query, cx)
    }

    /// Whether the constraints force every `sub` instance to be a `sup`
    /// instance — *derived* subsumption, beyond the declared subtype links.
    /// Cached: re-asking any pair is free. `Ok(None)` when the per-proof
    /// step budget ran out, `Err` when the context was cancelled or hit
    /// its deadline mid-proof.
    pub fn type_subsumed_by_cx(
        &self,
        sub: ObjectTypeId,
        sup: ObjectTypeId,
        cx: &ExecCx,
    ) -> Result<Option<bool>, Interrupt> {
        let (sup_c, sub_c) = (self.type_concept(sup), self.type_concept(sub));
        self.cache.subsumes_cx(&self.tbox, &sup_c, &sub_c, cx)
    }

    /// All ordered type pairs `(sub, sup)` with `sub ≠ sup`, in the order
    /// both classification drivers ask them.
    fn classify_pairs(&self, schema: &Schema) -> Vec<(ObjectTypeId, ObjectTypeId)> {
        let types: Vec<ObjectTypeId> = schema.object_types().map(|(t, _)| t).collect();
        let mut pairs =
            Vec::with_capacity(types.len().saturating_mul(types.len().saturating_sub(1)));
        for &sub in &types {
            for &sup in &types {
                if sub != sup {
                    pairs.push((sub, sup));
                }
            }
        }
        pairs
    }

    /// Classify the schema's object types: all derived subsumption pairs
    /// `(sub, sup)` with `sub ≠ sup`, including ones no subtype link
    /// declares (e.g. forced by mandatory/typing interplay). Pairs whose
    /// proofs starved or were interrupted are omitted; once the context
    /// trips, the remaining pairs fail fast without recording cache
    /// entries.
    pub fn classify_cx(&self, schema: &Schema, cx: &ExecCx) -> Vec<(ObjectTypeId, ObjectTypeId)> {
        self.classify_pairs(schema)
            .into_iter()
            .filter(|&(sub, sup)| self.type_subsumed_by_cx(sub, sup, cx) == Ok(Some(true)))
            .collect()
    }

    /// [`Translation::classify_cx`] fanned out through the work-stealing
    /// scheduler ([`crate::par::fan_out_cx`]): the `O(n²)` subsumption
    /// queries are independent, and the sharded cache lets workers answer
    /// them without funneling through one lock. Returns the derived pairs
    /// (identical set and order to the sequential run when uninterrupted —
    /// the differential suites compare the two verdict for verdict) plus
    /// the scheduler's counters; pairs skipped after an interrupt are
    /// simply omitted, and no shard records an entry for them.
    pub fn classify_par_cx(
        &self,
        schema: &Schema,
        cx: &ExecCx,
        threads: usize,
    ) -> (Vec<(ObjectTypeId, ObjectTypeId)>, SchedStats) {
        let pairs = self.classify_pairs(schema);
        let batch = fan_out_cx(&pairs, threads, cx, |_, &(sub, sup)| {
            self.type_subsumed_by_cx(sub, sup, cx) == Ok(Some(true))
        });
        let derived = pairs
            .into_iter()
            .zip(batch.results)
            .filter_map(|(pair, keep)| (keep == Some(true)).then_some(pair))
            .collect();
        (derived, batch.stats)
    }

    /// The per-role satisfiability sweep: `∃dir(r).⊤` proved for every
    /// role of the schema, in `schema.roles()` order — the battery a
    /// whole-schema check runs. Once the context trips, the remaining
    /// roles report the interrupt variant immediately (no proof attempted,
    /// nothing cached) — the sweep stays full-length so callers can see
    /// exactly which roles got a verdict.
    pub fn role_sweep_cx(&self, schema: &Schema, cx: &ExecCx) -> Vec<(RoleId, SearchOutcome)> {
        schema.roles().map(|(role, _)| (role, self.role_satisfiable_cx(role, cx))).collect()
    }

    /// The per-type satisfiability sweep, in `schema.object_types()`
    /// order — the sibling battery to [`Translation::role_sweep_cx`] (same
    /// interrupt semantics).
    pub fn type_sweep_cx(
        &self,
        schema: &Schema,
        cx: &ExecCx,
    ) -> Vec<(ObjectTypeId, SearchOutcome)> {
        schema.object_types().map(|(ty, _)| (ty, self.type_satisfiable_cx(ty, cx))).collect()
    }

    /// [`Translation::role_sweep_cx`] fanned out through the
    /// work-stealing scheduler. Roles skipped after an interrupt report
    /// the interrupt's [`SearchOutcome`] variant (the same one a
    /// sequential sweep would give them), keeping the sweep full-length;
    /// the returned [`SchedStats`] says how many were skipped vs stolen.
    pub fn role_sweep_par_cx(
        &self,
        schema: &Schema,
        cx: &ExecCx,
        threads: usize,
    ) -> (Vec<(RoleId, SearchOutcome)>, SchedStats) {
        let roles: Vec<RoleId> = schema.roles().map(|(role, _)| role).collect();
        let batch = fan_out_cx(&roles, threads, cx, |_, &role| self.role_satisfiable_cx(role, cx));
        let skipped_as = match batch.interrupt {
            Some(Interrupt::Cancelled) | None => SearchOutcome::Cancelled,
            Some(Interrupt::DeadlineExceeded) => SearchOutcome::DeadlineExceeded,
        };
        let sweep = roles
            .into_iter()
            .zip(batch.results)
            .map(|(role, verdict)| (role, verdict.unwrap_or(skipped_as)))
            .collect();
        (sweep, batch.stats)
    }

    /// Begin an interactive edit session: constraint additions applied
    /// through the returned handle mutate the TBox **in place**, so the
    /// sharded verdict cache stays live and applies the delta retention
    /// rules (see [`crate::cache`]) instead of dying wholesale — the
    /// editor-in-the-loop flow re-runs its sweeps against warm shards.
    ///
    /// ```
    /// use orm_dl::{translate, ExecCx, SearchOutcome};
    /// use orm_model::SchemaBuilder;
    ///
    /// let mut b = SchemaBuilder::new("s");
    /// let person = b.entity_type("Person").unwrap();
    /// let student = b.entity_type("Student").unwrap();
    /// let employee = b.entity_type("Employee").unwrap();
    /// b.subtype(student, person).unwrap();
    /// b.subtype(employee, person).unwrap();
    /// let schema = b.finish();
    ///
    /// let mut t = translate(&schema);
    /// let cx = ExecCx::with_steps(100_000);
    /// let sweep = t.type_sweep_cx(&schema, &cx);
    /// assert!(sweep.iter().all(|(_, v)| *v == SearchOutcome::Sat));
    ///
    /// // The modeler adds one exclusion; the re-run sweep replays the
    /// // unaffected verdicts from the surviving cache entries.
    /// t.edit().add_type_exclusion(student, employee);
    /// assert_eq!(t.type_satisfiable_cx(person, &cx), SearchOutcome::Sat);
    /// let stats = t.cache_stats();
    /// assert_eq!(stats.invalidations, 0);
    /// assert!(stats.revalidated > 0);
    /// ```
    pub fn edit(&mut self) -> EditSession<'_> {
        EditSession { t: self }
    }
}

/// An interactive edit session over a [`Translation`] (see
/// [`Translation::edit`]): ORM-level constraint additions translated to
/// their DL axioms on the fly, against the live TBox. Each method mirrors
/// one row of the [module-level](self) translation table; all of them are
/// **pure additions**, so the verdict cache retains or revalidates its
/// entries instead of clearing. For anything the conveniences do not
/// cover, [`EditSession::tbox`] exposes the TBox directly — including the
/// destructive [`TBox::retract_gci`], which the cache answers with a
/// wholesale clear.
///
/// # Panics
/// The ORM-level methods panic when handed an [`ObjectTypeId`]/[`RoleId`]
/// the translation has never seen (they index the translation maps), and
/// on the degenerate inputs `SchemaBuilder` rejects as errors — an empty
/// mandatory role list (`⊔ ∅ = ⊥` would silently doom the player) and a
/// self-exclusion. The session has no error channel, so loud beats
/// silently-unsatisfiable.
pub struct EditSession<'a> {
    t: &'a mut Translation,
}

impl EditSession<'_> {
    /// Direct access to the TBox for edits the conveniences do not cover.
    pub fn tbox(&mut self) -> &mut TBox {
        &mut self.t.tbox
    }

    /// Add a subtype link `sub <: B` — `C_sub ⊑ C_sup`.
    pub fn add_subtype(&mut self, sub: ObjectTypeId, sup: ObjectTypeId) {
        let (c, d) = (self.t.type_concept(sub), self.t.type_concept(sup));
        let id = self.t.tbox.gci(c, d);
        self.t.axiom_origins.insert(id, AxiomOrigin::Subtype { sub, sup });
    }

    /// Declare two object types mutually exclusive — `C_a ⊓ C_b ⊑ ⊥`.
    pub fn add_type_exclusion(&mut self, a: ObjectTypeId, b: ObjectTypeId) {
        assert_ne!(a, b, "a type cannot be declared exclusive with itself");
        let pair = Concept::and([self.t.type_concept(a), self.t.type_concept(b)]);
        let id = self.t.tbox.gci(pair, Concept::Bottom);
        self.t.axiom_origins.insert(id, AxiomOrigin::TypeExclusion { a, b });
    }

    /// Make `roles` (disjunctively) mandatory for `player` —
    /// `C_player ⊑ ⊔ ∃dir(rᵢ).⊤`.
    pub fn add_mandatory(&mut self, player: ObjectTypeId, roles: &[RoleId]) {
        assert!(!roles.is_empty(), "a mandatory constraint needs at least one role");
        let plays = Concept::or(roles.iter().map(|r| self.t.role_concept(*r)).collect::<Vec<_>>());
        let player_c = self.t.type_concept(player);
        let id = self.t.tbox.gci(player_c, plays);
        self.t.axiom_origins.insert(id, AxiomOrigin::Mandatory { player, roles: roles.to_vec() });
    }

    /// Add a subset constraint between two single roles —
    /// `∃dir(sub).⊤ ⊑ ∃dir(sup).⊤`.
    pub fn add_role_subset(&mut self, sub: RoleId, sup: RoleId) {
        let (c, d) = (self.t.role_concept(sub), self.t.role_concept(sup));
        let id = self.t.tbox.gci(c, d);
        self.t.axiom_origins.insert(id, AxiomOrigin::RoleSubset { sub, sup });
    }

    /// Add an exclusion constraint between two single roles —
    /// `∃dir(a).⊤ ⊓ ∃dir(b).⊤ ⊑ ⊥`.
    pub fn add_role_exclusion(&mut self, a: RoleId, b: RoleId) {
        let pair = Concept::and([self.t.role_concept(a), self.t.role_concept(b)]);
        let id = self.t.tbox.gci(pair, Concept::Bottom);
        self.t.axiom_origins.insert(id, AxiomOrigin::RoleExclusion { a, b });
    }
}

/// Translate `schema` into a DL TBox, recording the ORM origin of every
/// emitted axiom (the provenance table diagnosis runs on).
pub fn translate(schema: &Schema) -> Translation {
    let mut tbox = TBox::new();
    let mut concept_of_type = HashMap::new();
    let mut role_dir = HashMap::new();
    let mut unmapped = Vec::new();
    let mut origins: HashMap<AxiomId, AxiomOrigin> = HashMap::new();
    let idx = schema.index();

    for (ty, ot) in schema.object_types() {
        let atom = tbox.atom(ot.name());
        concept_of_type.insert(ty, Concept::Atomic(atom));
        if ot.value_constraint().is_some() {
            unmapped
                .push(format!("value constraint on `{}` (DLR needs concrete domains)", ot.name()));
        }
    }

    // Subtyping (non-strict inclusion). Strictness is not expressible in a
    // DL: a subtype loop merely forces concept equivalence here, while ORM
    // semantics make loop members unsatisfiable (Pattern 9).
    for link in schema.subtype_links() {
        let id = tbox.gci(concept_of_type[&link.sub].clone(), concept_of_type[&link.sup].clone());
        origins.insert(id, AxiomOrigin::Subtype { sub: link.sub, sup: link.sup });
    }
    if schema.object_types().any(|(ty, _)| idx.on_subtype_cycle(ty)) {
        unmapped.push(
            "subtype loop present: strict-subset subtype semantics is not expressible \
             in the DL fragment"
                .to_owned(),
        );
    }

    // ORM's implicit mutual exclusion of types without a common supertype.
    let types: Vec<ObjectTypeId> = schema.object_types().map(|(id, _)| id).collect();
    for (i, &a) in types.iter().enumerate() {
        for &b in types.iter().skip(i + 1) {
            if !idx.may_overlap(a, b) {
                let id = tbox.gci(
                    Concept::and([concept_of_type[&a].clone(), concept_of_type[&b].clone()]),
                    Concept::Bottom,
                );
                origins.insert(id, AxiomOrigin::ImplicitExclusion { a, b });
            }
        }
    }

    // Fact types: roles + typing axioms.
    for (fid, ft) in schema.fact_types() {
        let role = tbox.role(ft.name());
        let first = ft.first();
        let second = ft.second();
        role_dir.insert(first, RoleExpr::direct(role));
        role_dir.insert(second, RoleExpr::inv_of(role));
        let id = tbox.gci(
            Concept::some(RoleExpr::direct(role)),
            concept_of_type[&schema.player(first)].clone(),
        );
        origins.insert(id, AxiomOrigin::FactTyping { fact: fid, role: first });
        let id = tbox.gci(
            Concept::some(RoleExpr::inv_of(role)),
            concept_of_type[&schema.player(second)].clone(),
        );
        origins.insert(id, AxiomOrigin::FactTyping { fact: fid, role: second });
    }

    for (cid, c) in schema.constraints() {
        let from = AxiomOrigin::Constraint(cid);
        match c {
            Constraint::Mandatory(m) => {
                let player = concept_of_type[&schema.player(m.roles[0])].clone();
                let plays = Concept::or(
                    m.roles.iter().map(|r| Concept::some(role_dir[r])).collect::<Vec<_>>(),
                );
                origins.insert(tbox.gci(player, plays), from);
            }
            Constraint::Uniqueness(u) => {
                if u.roles.len() == 1 {
                    let id = tbox.gci(Concept::Top, Concept::AtMost(1, role_dir[&u.roles[0]]));
                    origins.insert(id, from);
                }
                // A spanning uniqueness constraint is inherent: DL roles are
                // sets of pairs. Nothing to emit.
            }
            Constraint::Frequency(f) => {
                if f.roles.len() != 1 {
                    unmapped.push(format!(
                        "frequency constraint {} over several roles (DLR gap, paper \
                         footnote 10)",
                        f.notation()
                    ));
                    continue;
                }
                let dir = role_dir[&f.roles[0]];
                let mut bounds = vec![Concept::AtLeast(f.min, dir)];
                if let Some(max) = f.max {
                    bounds.push(Concept::AtMost(max, dir));
                }
                origins.insert(tbox.gci(Concept::some(dir), Concept::and(bounds)), from);
            }
            Constraint::SetComparison(sc) => {
                translate_set_comparison(&mut tbox, &role_dir, sc, cid, &mut origins)
            }
            Constraint::ExclusiveTypes(e) => {
                for (i, &a) in e.types.iter().enumerate() {
                    for &b in e.types.iter().skip(i + 1) {
                        let id = tbox.gci(
                            Concept::and([
                                concept_of_type[&a].clone(),
                                concept_of_type[&b].clone(),
                            ]),
                            Concept::Bottom,
                        );
                        origins.insert(id, from.clone());
                    }
                }
            }
            Constraint::TotalSubtypes(t) => {
                let id = tbox.gci(
                    concept_of_type[&t.supertype].clone(),
                    Concept::or(
                        t.subtypes.iter().map(|s| concept_of_type[s].clone()).collect::<Vec<_>>(),
                    ),
                );
                origins.insert(id, from);
            }
            Constraint::Ring(r) => {
                unmapped.push(format!(
                    "ring constraints {} on `{}` (DLR gap, paper footnote 10)",
                    r.kinds,
                    schema.fact_type(r.fact_type).name()
                ));
            }
        }
    }

    Translation {
        tbox,
        concept_of_type,
        role_dir,
        unmapped,
        axiom_origins: origins,
        cache: Arc::new(SatShards::new()),
    }
}

fn translate_set_comparison(
    tbox: &mut TBox,
    role_dir: &HashMap<RoleId, RoleExpr>,
    sc: &orm_model::SetComparison,
    cid: ConstraintId,
    origins: &mut HashMap<AxiomId, AxiomOrigin>,
) {
    let single = sc.over_single_roles();
    let record = |id: AxiomId, origins: &mut HashMap<AxiomId, AxiomOrigin>| {
        origins.insert(id, AxiomOrigin::Constraint(cid));
    };
    match sc.kind {
        SetComparisonKind::Subset => {
            if single {
                let sub = role_dir[&sc.args[0].roles()[0]];
                let sup = role_dir[&sc.args[1].roles()[0]];
                let id = tbox.gci(Concept::some(sub), Concept::some(sup));
                record(id, origins);
            } else {
                let id = emit_role_inclusion(tbox, role_dir, &sc.args[0], &sc.args[1]);
                record(id, origins);
            }
        }
        SetComparisonKind::Equality => {
            for i in 0..sc.args.len() {
                for j in 0..sc.args.len() {
                    if i == j {
                        continue;
                    }
                    if single {
                        let a = role_dir[&sc.args[i].roles()[0]];
                        let b = role_dir[&sc.args[j].roles()[0]];
                        let id = tbox.gci(Concept::some(a), Concept::some(b));
                        record(id, origins);
                    } else {
                        let id = emit_role_inclusion(tbox, role_dir, &sc.args[i], &sc.args[j]);
                        record(id, origins);
                    }
                }
            }
        }
        SetComparisonKind::Exclusion => {
            for (i, a) in sc.args.iter().enumerate() {
                for b in sc.args.iter().skip(i + 1) {
                    if single {
                        let ra = role_dir[&a.roles()[0]];
                        let rb = role_dir[&b.roles()[0]];
                        let id = tbox.gci(
                            Concept::and([Concept::some(ra), Concept::some(rb)]),
                            Concept::Bottom,
                        );
                        record(id, origins);
                    } else {
                        let (ra, rb) = (pair_expr(role_dir, a), pair_expr(role_dir, b));
                        let id = tbox.disjoint(ra, rb);
                        record(id, origins);
                    }
                }
            }
        }
    }
}

/// The role expression representing a whole-predicate sequence: `Rf` when
/// the sequence lists the fact's roles in order, `Rf⁻` when reversed.
fn pair_expr(role_dir: &HashMap<RoleId, RoleExpr>, seq: &orm_model::RoleSeq) -> RoleExpr {
    let first = seq.roles()[0];
    role_dir[&first]
}

fn emit_role_inclusion(
    tbox: &mut TBox,
    role_dir: &HashMap<RoleId, RoleExpr>,
    sub: &orm_model::RoleSeq,
    sup: &orm_model::RoleSeq,
) -> AxiomId {
    // (a, b) ⊆ (c, d): tuples of the sub predicate, read in the sequence's
    // orientation, are tuples of the super predicate in ITS orientation.
    // dir(first role) gives exactly that orientation.
    let sub_expr = pair_expr(role_dir, sub);
    let sup_expr = pair_expr(role_dir, sup);
    tbox.role_inclusion(sub_expr, sup_expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::{RingKind, RoleSeq, SchemaBuilder, ValueConstraint};

    use crate::tableau::DlOutcome;

    const BUDGET: u64 = 500_000;

    /// The per-proof context every query below runs under.
    fn cx() -> ExecCx {
        ExecCx::with_steps(BUDGET)
    }

    #[test]
    fn fig1_phd_student_unsat_in_dl() {
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
        let t = translate(&s);
        assert_eq!(t.type_satisfiable_cx(phd, &cx()), SearchOutcome::Unsat);
        for ty in [person, student, employee] {
            assert_eq!(t.type_satisfiable_cx(ty, &cx()), SearchOutcome::Sat);
        }
    }

    #[test]
    fn implicit_exclusion_translated() {
        // Fig. 2: C under two unrelated tops.
        let mut b = SchemaBuilder::new("fig2");
        let a = b.entity_type("A").unwrap();
        let bb = b.entity_type("B").unwrap();
        let c = b.entity_type("C").unwrap();
        b.subtype(c, a).unwrap();
        b.subtype(c, bb).unwrap();
        let s = b.finish();
        let t = translate(&s);
        assert_eq!(t.type_satisfiable_cx(c, &cx()), SearchOutcome::Unsat);
        assert_eq!(t.type_satisfiable_cx(a, &cx()), SearchOutcome::Sat);
    }

    #[test]
    fn exclusion_mandatory_unsat_in_dl() {
        // Fig. 4a: mandatory r1, exclusion {r1, r3}: r3 unsatisfiable.
        let mut b = SchemaBuilder::new("fig4a");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let y = b.entity_type("Y").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, y).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.mandatory(r1).unwrap();
        b.exclusion_roles([r1, r3]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        assert_eq!(t.role_satisfiable_cx(r3, &cx()), SearchOutcome::Unsat);
        assert_eq!(t.role_satisfiable_cx(r1, &cx()), SearchOutcome::Sat);
    }

    #[test]
    fn uniqueness_frequency_unsat_in_dl() {
        // Fig. 10: UC + FC(2-5) on r1.
        let mut b = SchemaBuilder::new("fig10");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f = b.fact_type("f", a, x).unwrap();
        let r1 = b.schema().fact_type(f).first();
        b.unique([r1]).unwrap();
        b.frequency([r1], 2, Some(5)).unwrap();
        let s = b.finish();
        let t = translate(&s);
        assert_eq!(t.role_satisfiable_cx(r1, &cx()), SearchOutcome::Unsat);
    }

    #[test]
    fn subset_exclusion_conflict_in_dl() {
        // Fig. 8 variant on single roles.
        let mut b = SchemaBuilder::new("fig8");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.exclusion_roles([r1, r3]).unwrap();
        b.subset(RoleSeq::single(r1), RoleSeq::single(r3)).unwrap();
        let s = b.finish();
        let t = translate(&s);
        assert_eq!(t.role_satisfiable_cx(r1, &cx()), SearchOutcome::Unsat);
        assert_eq!(t.role_satisfiable_cx(r3, &cx()), SearchOutcome::Sat);
    }

    #[test]
    fn predicate_subset_becomes_role_inclusion() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, x).unwrap();
        let [r1, r2] = b.schema().fact_type(f1).roles();
        let [r3, r4] = b.schema().fact_type(f2).roles();
        b.subset(RoleSeq::pair(r1, r2), RoleSeq::pair(r3, r4)).unwrap();
        b.exclusion_roles([r1, r3]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        // Pattern 6's Fig. 8 through the DL: populating f1 forces an f2
        // tuple with a shared r1/r3 player.
        assert_eq!(t.role_satisfiable_cx(r1, &cx()), SearchOutcome::Unsat);
        let _ = r4;
    }

    #[test]
    fn rings_and_values_reported_unmapped() {
        let mut b = SchemaBuilder::new("s");
        let w = b.value_type("W", Some(ValueConstraint::enumeration(["a"]))).unwrap();
        let f = b.fact_type("rel", w, w).unwrap();
        b.ring(f, [RingKind::Acyclic, RingKind::Symmetric]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        assert_eq!(t.unmapped.len(), 2);
        assert!(t.unmapped.iter().any(|m| m.contains("ring")));
        assert!(t.unmapped.iter().any(|m| m.contains("value constraint")));
        // And — illustrating the gap — the DL side considers the ring-doomed
        // fact satisfiable.
        let r = s.fact_type(f).first();
        assert_eq!(t.role_satisfiable_cx(r, &cx()), SearchOutcome::Sat);
    }

    #[test]
    fn satisfiable_schema_stays_satisfiable() {
        // Fig. 14 (minus totality nuances): every role satisfiable in DL.
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
        let t = translate(&s);
        for r in [r1, r3, r5] {
            assert_eq!(t.role_satisfiable_cx(r, &cx()), SearchOutcome::Sat, "role {r}");
        }
    }

    #[test]
    fn classification_recovers_declared_subtyping() {
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        b.subtype(student, person).unwrap();
        let s = b.finish();
        let t = translate(&s);
        assert_eq!(t.type_subsumed_by_cx(student, person, &cx()), Ok(Some(true)));
        assert_eq!(t.type_subsumed_by_cx(person, student, &cx()), Ok(Some(false)));
        assert_eq!(t.classify_cx(&s, &cx()), vec![(student, person)]);
    }

    #[test]
    fn classification_finds_derived_subsumption() {
        // An unsatisfiable type is subsumed by everything — derived, not
        // declared: PhdStudent ⊑ Person but also ⊑ any other type.
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("Phd").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        b.exclusive_types([student, employee]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        // phd is unsatisfiable ⇒ subsumed by every type.
        for sup in [person, student, employee] {
            assert_eq!(t.type_subsumed_by_cx(phd, sup, &cx()), Ok(Some(true)));
        }
        // But student is NOT subsumed by employee.
        assert_eq!(t.type_subsumed_by_cx(student, employee, &cx()), Ok(Some(false)));
    }

    #[test]
    fn cloned_translation_keeps_an_independent_cache() {
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        b.subtype(student, person).unwrap();
        let s = b.finish();
        let t = translate(&s);
        assert_eq!(t.type_satisfiable_cx(person, &cx()), SearchOutcome::Sat);
        let clone = t.clone();
        // The clone starts cold; its queries must not disturb the
        // original's entries (the clone's TBox has a fresh cache uid).
        assert_eq!(clone.cache_stats(), crate::cache::CacheStats::default());
        assert_eq!(clone.type_satisfiable_cx(person, &cx()), SearchOutcome::Sat);
        assert_eq!(t.type_satisfiable_cx(person, &cx()), SearchOutcome::Sat);
        let stats = t.cache_stats();
        assert_eq!(stats.invalidations, 0, "clone thrashed the original's cache");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn classify_par_matches_sequential_on_fig1() {
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("Phd").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        b.exclusive_types([student, employee]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        let sequential = t.classify_cx(&s, &cx());
        for threads in [1, 2, 4, 8] {
            // Cold cache per run (clone mints a fresh one), then a warm
            // replay on the same translation.
            let fresh = t.clone();
            assert_eq!(fresh.classify_par_cx(&s, &cx(), threads).0, sequential, "{threads} cold");
            assert_eq!(fresh.classify_par_cx(&s, &cx(), threads).0, sequential, "{threads} warm");
        }
    }

    #[test]
    fn role_sweep_par_matches_sequential() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.mandatory(r1).unwrap();
        b.exclusion_roles([r1, r3]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        let sequential = t.role_sweep_cx(&s, &cx());
        assert!(sequential.iter().any(|(_, v)| *v == SearchOutcome::Unsat));
        for threads in [1, 2, 8] {
            let fresh = t.clone();
            assert_eq!(fresh.role_sweep_par_cx(&s, &cx(), threads).0, sequential);
        }
    }

    /// The sharded cache dedups parallel work exactly like the sequential
    /// cache: same miss count (one per distinct root label set), same
    /// hit+miss total for the same battery.
    #[test]
    fn parallel_battery_stats_match_sequential() {
        let mut b = SchemaBuilder::new("s");
        let tys: Vec<_> = (0..6).map(|i| b.entity_type(&format!("T{i}")).unwrap()).collect();
        for w in tys.windows(2) {
            b.subtype(w[1], w[0]).unwrap();
        }
        let s = b.finish();
        let t = translate(&s);
        t.classify_cx(&s, &cx());
        let seq = t.cache_stats();
        let par = t.clone();
        par.classify_par_cx(&s, &cx(), 8);
        let stats = par.cache_stats();
        assert_eq!(stats.misses, seq.misses, "parallel battery re-proved a key");
        assert_eq!(stats.hits + stats.misses, seq.hits + seq.misses);
    }

    /// The edit-session flow: constraint additions keep the sharded
    /// cache live (no wholesale invalidation) and the re-run sweeps agree
    /// with a from-scratch translation of the edited schema.
    #[test]
    fn edit_session_keeps_shards_warm_and_correct() {
        let mut b = SchemaBuilder::new("s");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("Phd").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        let s = b.finish();
        let mut t = translate(&s);
        // Warm pass: everything satisfiable before the exclusion lands.
        for (_, v) in t.type_sweep_cx(&s, &cx()) {
            assert_eq!(v, SearchOutcome::Sat);
        }
        // The modeler adds the Fig. 1 exclusion through the session.
        t.edit().add_type_exclusion(student, employee);
        let resweep = t.type_sweep_cx(&s, &cx());
        assert_eq!(t.cache_stats().invalidations, 0, "addition thrashed the shards");
        assert!(t.cache_stats().retained + t.cache_stats().revalidated > 0);
        // Verdict-for-verdict agreement with a cold translation of the
        // same edited state.
        let mut fresh_schema = SchemaBuilder::new("s2");
        let p2 = fresh_schema.entity_type("Person").unwrap();
        let s2 = fresh_schema.entity_type("Student").unwrap();
        let e2 = fresh_schema.entity_type("Employee").unwrap();
        let phd2 = fresh_schema.entity_type("Phd").unwrap();
        fresh_schema.subtype(s2, p2).unwrap();
        fresh_schema.subtype(e2, p2).unwrap();
        fresh_schema.subtype(phd2, s2).unwrap();
        fresh_schema.subtype(phd2, e2).unwrap();
        fresh_schema.exclusive_types([s2, e2]).unwrap();
        let edited = fresh_schema.finish();
        let cold = translate(&edited);
        let cold_sweep = cold.type_sweep_cx(&edited, &cx());
        for ((_, warm), (_, coldv)) in resweep.iter().zip(&cold_sweep) {
            assert_eq!(warm, coldv, "warm-shard verdict diverged from cold translation");
        }
        // And the edit actually bit: Phd is now unsatisfiable.
        assert_eq!(t.type_satisfiable_cx(phd, &cx()), SearchOutcome::Unsat);
    }

    #[test]
    fn edit_session_role_ops_match_builder_translation() {
        // Fig. 4a built interactively: mandatory + exclusion added
        // through the session instead of the schema builder.
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let y = b.entity_type("Y").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, y).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        let s = b.finish();
        let mut t = translate(&s);
        assert_eq!(t.role_satisfiable_cx(r3, &cx()), SearchOutcome::Sat);
        {
            let mut session = t.edit();
            session.add_mandatory(a, &[r1]);
            session.add_role_exclusion(r1, r3);
        }
        assert_eq!(t.role_satisfiable_cx(r3, &cx()), SearchOutcome::Unsat);
        assert_eq!(t.role_satisfiable_cx(r1, &cx()), SearchOutcome::Sat);
        assert_eq!(t.cache_stats().invalidations, 0);
    }

    /// The Fig. 1 diagnosis end to end at the translation level: the
    /// minimal core maps to exactly the two guilty subtype links plus the
    /// exclusion constraint — the unrelated links stay out.
    #[test]
    fn fig1_core_maps_to_guilty_constraints() {
        let mut b = SchemaBuilder::new("fig1");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("PhdStudent").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        let exclusion = b.exclusive_types([student, employee]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        let crate::explain::Explanation::Unsat(core) = t.explain_type_cx(phd, &cx()) else {
            panic!("PhdStudent must be unsatisfiable");
        };
        assert!(core.minimal);
        // Every core axiom has a recorded origin …
        for id in &core.axioms {
            assert!(t.axiom_origin(*id).is_some(), "axiom {id} lost its provenance");
        }
        // … and the distinct origins are exactly the two phd subtype
        // links and the exclusion.
        let origins = t.core_origins(&core);
        assert_eq!(origins.len(), 3, "unexpected origins: {origins:?}");
        assert!(origins.contains(&&AxiomOrigin::Subtype { sub: phd, sup: student }));
        assert!(origins.contains(&&AxiomOrigin::Subtype { sub: phd, sup: employee }));
        assert!(origins.contains(&&AxiomOrigin::Constraint(exclusion)));
        // Re-explaining is a cache hit, not a re-extraction.
        let before = t.cache_stats();
        let again = t.explain_type_cx(phd, &cx());
        assert_eq!(again.core().map(|c| &c.axioms), Some(&core.axioms));
        assert_eq!(t.cache_stats().hits, before.hits + 1);
        assert_eq!(t.cache_stats().misses, before.misses);
    }

    /// Explanations agree with the plain verdicts on every element, and
    /// session-added constraints carry provenance into cores too.
    #[test]
    fn explanations_agree_with_verdicts_and_session_edits_attributed() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let y = b.entity_type("Y").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, y).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        let s = b.finish();
        let mut t = translate(&s);
        {
            let mut session = t.edit();
            session.add_mandatory(a, &[r1]);
            session.add_role_exclusion(r1, r3);
        }
        for (role, _) in s.roles() {
            let verdict = DlOutcome::from(t.role_satisfiable_cx(role, &cx()));
            assert_eq!(t.explain_role_cx(role, &cx()).verdict(), verdict, "role {role}");
        }
        let crate::explain::Explanation::Unsat(core) = t.explain_role_cx(r3, &cx()) else {
            panic!("r3 must be unsatisfiable");
        };
        let origins = t.core_origins(&core);
        assert!(origins.contains(&&AxiomOrigin::Mandatory { player: a, roles: vec![r1] }));
        assert!(origins.contains(&&AxiomOrigin::RoleExclusion { a: r1, b: r3 }));
    }

    #[test]
    fn disjunctive_mandatory_translates_as_union() {
        let mut b = SchemaBuilder::new("s");
        let a = b.entity_type("A").unwrap();
        let x = b.entity_type("X").unwrap();
        let f1 = b.fact_type("f1", a, x).unwrap();
        let f2 = b.fact_type("f2", a, x).unwrap();
        let r1 = b.schema().fact_type(f1).first();
        let r3 = b.schema().fact_type(f2).first();
        b.disjunctive_mandatory([r1, r3]).unwrap();
        b.exclusion_roles([r1, r3]).unwrap();
        let s = b.finish();
        let t = translate(&s);
        // "Exactly one of" is satisfiable (unlike double simple mandatory).
        assert_eq!(t.type_satisfiable_cx(a, &cx()), SearchOutcome::Sat);
        assert_eq!(t.role_satisfiable_cx(r1, &cx()), SearchOutcome::Sat);
    }
}
