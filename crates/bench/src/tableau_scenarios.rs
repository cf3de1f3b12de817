//! Workloads stressing the DL tableau's hot paths, shared by the
//! `tableau_hotpath` criterion bench and `experiments tableau` (which
//! records the trail-vs-classic speedup in `BENCH_tableau.json`).
//!
//! Three engine families, mirroring where ORM translations actually
//! spend time:
//!
//! * **`⊔` fan-out** ([`or_fanout`]) — an exclusive, total subtype family:
//!   every pair of subtypes contributes a `¬Sᵢ ⊔ ¬Sⱼ` disjunction to the
//!   internalized TBox, so every node of the forest carries O(k²)
//!   disjunctions. This is the scenario the clone-based engine pays for
//!   hardest: each branch deep-copied the whole forest.
//! * **Deep subtype chains** ([`subtype_chain`]) — a linear hierarchy of
//!   depth `d` plus one existential to keep generating successors; labels
//!   grow to O(d), stressing label insertion, clash checks and the
//!   pairwise-blocking comparisons.
//! * **`≤`-merge pressure** ([`merge_heavy`]) — a frequency-style
//!   contradiction (`∃R.⊤ ⊑ ≥k R`, `⊤ ⊑ ≤1 R`): the engine must try the
//!   merge choices among `k` fresh successors before refuting. This is
//!   also the family where dependency-directed backjumping bites: the
//!   internalized disjunctions opened at each fresh successor are
//!   irrelevant to the eventual `≤`-clash, and the conflict's dependency
//!   set lets the engine skip their sibling branches wholesale.
//!
//! Plus one *query-stream* family:
//!
//! * **Classification sweep** ([`classify_sweep`]) — the pattern the
//!   paper's tooling actually runs: one TBox, then a battery of
//!   overlapping satisfiability/subsumption queries (per-type sweep plus
//!   all `O(k²)` classification pairs), repeated over several passes the
//!   way interactive checking re-asks them. The
//!   [`orm_dl::SatCache`] answers repeat passes from memory; the bench
//!   compares the cached stream against re-proving every query.

use orm_dl::concept::{Concept as C, RoleExpr};
use orm_dl::tbox::TBox;
use orm_dl::{CacheStats, ExecCx, SatCache, SearchOutcome};

/// A named tableau workload: TBox, query, and the budget it needs.
pub struct Scenario {
    /// Stable scenario id (used in bench names and the JSON report).
    pub name: String,
    /// Workload family (`or_fanout`, `subtype_chain`, `merge_heavy`).
    pub kind: &'static str,
    /// The terminology.
    pub tbox: TBox,
    /// The satisfiability query.
    pub query: C,
}

/// `k` pairwise-exclusive subtypes totalizing one supertype, plus a
/// self-existential so the forest has depth. The query denies all but one
/// subtype: a single branch survives, but every node re-opens the O(k²)
/// exclusion disjunctions.
pub fn or_fanout(k: u32) -> Scenario {
    let mut t = TBox::new();
    let sup = C::Atomic(t.atom("Sup"));
    let subs: Vec<C> = (0..k).map(|i| C::Atomic(t.atom(format!("S{i}")))).collect();
    for (i, a) in subs.iter().enumerate() {
        t.gci(a.clone(), sup.clone());
        for b in subs.iter().skip(i + 1) {
            t.gci(C::and([a.clone(), b.clone()]), C::Bottom);
        }
    }
    t.gci(sup.clone(), C::or(subs.clone()));
    let r = RoleExpr::direct(t.role("R"));
    t.gci(sup.clone(), C::Exists(r, Box::new(sup.clone())));
    let negs: Vec<C> = subs.iter().take(k as usize - 1).map(|s| C::not(s.clone())).collect();
    let query = C::and([sup].into_iter().chain(negs));
    Scenario { name: format!("or_fanout_{k}"), kind: "or_fanout", tbox: t, query }
}

/// A subtype chain of depth `d` with a generating existential at the
/// bottom type; the query asks for the deepest type, whose label closure
/// spans the whole chain.
pub fn subtype_chain(d: u32) -> Scenario {
    let mut t = TBox::new();
    let atoms: Vec<C> = (0..d).map(|i| C::Atomic(t.atom(format!("A{i}")))).collect();
    for w in atoms.windows(2) {
        t.gci(w[0].clone(), w[1].clone());
    }
    let r = RoleExpr::direct(t.role("R"));
    t.gci(C::Top, C::Exists(r, Box::new(atoms[0].clone())));
    Scenario {
        name: format!("subtype_chain_{d}"),
        kind: "subtype_chain",
        tbox: t,
        query: atoms[0].clone(),
    }
}

/// The frequency contradiction of the paper's Fig. 10 family scaled to
/// `k`: playing `R` demands `≥k` successors while `≤1` forces merging
/// them; refutation visits the merge choices.
pub fn merge_heavy(k: u32) -> Scenario {
    let mut t = TBox::new();
    let r = RoleExpr::direct(t.role("R"));
    let a = C::Atomic(t.atom("A"));
    t.gci(C::some(r), C::AtLeast(k, r));
    t.gci(C::Top, C::AtMost(1, r));
    t.gci(C::some(r.inverse()), a.clone());
    Scenario { name: format!("merge_heavy_{k}"), kind: "merge_heavy", tbox: t, query: C::some(r) }
}

/// The benchmark suite: all three families at sizes where the classic
/// engine takes milliseconds to tens of milliseconds.
pub fn all() -> Vec<Scenario> {
    vec![
        or_fanout(12),
        or_fanout(16),
        or_fanout(20),
        subtype_chain(80),
        subtype_chain(160),
        merge_heavy(5),
        merge_heavy(7),
    ]
}

/// A classification-sweep workload: one TBox, one pass worth of
/// overlapping queries, and the number of passes a checking session runs.
pub struct SweepScenario {
    /// Stable scenario id (used in bench names and the JSON report).
    pub name: String,
    /// The shared terminology.
    pub tbox: TBox,
    /// The queries of a single pass (all distinct).
    pub queries: Vec<C>,
    /// How many times the pass is replayed (interactive re-checks).
    pub passes: u32,
}

/// The query battery a schema check runs against one TBox: a satisfiability
/// sweep over all `k` types plus the full `k·(k-1)` classification matrix
/// (`Aᵢ ⊓ ¬Aⱼ` per ordered pair), replayed for `passes` rounds. The TBox is
/// a subtype chain with an exclusive pair near the top, so the battery
/// mixes Sat verdicts, derived-subsumption Unsats and an unsatisfiable
/// type — the shape `Translation::classify` plus per-role sweeps produce.
pub fn classify_sweep(k: u32, passes: u32) -> SweepScenario {
    let mut t = TBox::new();
    let atoms: Vec<C> = (0..k).map(|i| C::Atomic(t.atom(format!("A{i}")))).collect();
    for w in atoms.windows(2) {
        t.gci(w[0].clone(), w[1].clone());
    }
    // Two exclusive siblings under the top of the chain, and one doomed
    // type below both: classification finds derived subsumptions.
    let left = C::Atomic(t.atom("Left"));
    let right = C::Atomic(t.atom("Right"));
    let doomed = C::Atomic(t.atom("Doomed"));
    let top = atoms.last().expect("k >= 1").clone();
    t.gci(left.clone(), top.clone());
    t.gci(right.clone(), top.clone());
    t.gci(C::and([left.clone(), right.clone()]), C::Bottom);
    t.gci(doomed.clone(), left.clone());
    t.gci(doomed.clone(), right.clone());
    let r = RoleExpr::direct(t.role("R"));
    t.gci(top.clone(), C::Exists(r, Box::new(top.clone())));

    let all: Vec<C> = atoms.iter().chain([&left, &right, &doomed]).cloned().collect();
    let mut queries = Vec::new();
    for a in &all {
        queries.push(a.clone());
    }
    for a in &all {
        for b in &all {
            if a != b {
                queries.push(C::and([a.clone(), C::not(b.clone())]));
            }
        }
    }
    SweepScenario { name: format!("classify_sweep_{k}x{passes}"), tbox: t, queries, passes }
}

/// A whole-schema classification battery driven through `Translation`:
/// the workload `classify` / `classify_par` actually run, end to end
/// (ORM schema → TBox → `O(n²)` cached subsumption queries).
pub struct ClassifyBattery {
    /// Stable scenario id (used in bench names and the JSON report).
    pub name: String,
    /// The ORM schema whose type matrix is classified.
    pub schema: orm_model::Schema,
    /// Number of object types (the matrix asks `types · (types - 1)`
    /// ordered pairs).
    pub types: usize,
}

/// An ORM schema shaped like the paper's running examples scaled up: a
/// subtype chain of `k` entity types topped by an exclusive + total
/// subtype family (every classification query re-opens its O(m²)
/// exclusion disjunctions — real per-query tableau work), one doomed
/// type under two exclusive siblings (derived subsumptions to find), and
/// mandatory binary facts hanging off the chain so role typing axioms
/// join the internalized TBox.
///
/// Requires `k ≥ 1` (the chain needs a top) and `siblings ≥ 2` (the
/// doomed type sits under two exclusive siblings).
pub fn classify_battery(k: u32, siblings: u32) -> ClassifyBattery {
    assert!(k >= 1 && siblings >= 2, "classify_battery needs k >= 1 and siblings >= 2");
    let mut b = orm_model::SchemaBuilder::new("classify_battery");
    let chain: Vec<_> =
        (0..k).map(|i| b.entity_type(&format!("C{i}")).expect("fresh name")).collect();
    for w in chain.windows(2) {
        b.subtype(w[1], w[0]).expect("acyclic");
    }
    let top = chain[0];
    let subs: Vec<_> =
        (0..siblings).map(|i| b.entity_type(&format!("S{i}")).expect("fresh name")).collect();
    for &s in &subs {
        b.subtype(s, top).expect("acyclic");
    }
    b.exclusive_types(subs.clone()).expect("distinct");
    b.total_subtypes(top, subs.clone()).expect("subtypes of top");
    // One doomed type below two exclusive siblings: classification must
    // derive that it is subsumed by everything.
    let doomed = b.entity_type("Doomed").expect("fresh name");
    b.subtype(doomed, subs[0]).expect("acyclic");
    b.subtype(doomed, subs[1]).expect("acyclic");
    // Mandatory facts along the chain: role typing + mandatory axioms.
    let partner = b.entity_type("Partner").expect("fresh name");
    for (i, &ty) in chain.iter().enumerate().take(4) {
        let f = b.fact_type(&format!("f{i}"), ty, partner).expect("fresh name");
        let r = b.schema().fact_type(f).first();
        b.mandatory(r).expect("valid");
    }
    let schema = b.finish();
    let types = schema.object_type_count();
    ClassifyBattery { name: format!("classify_battery_{k}x{siblings}"), schema, types }
}

/// A diagnosis workload: an ORM schema seeded with several *distinct*
/// contradictions buried under satisfiable noise, end to end through
/// `Translation::explain_{type,role}` (PR 5). The interesting measurement
/// is core extraction on top of the plain sweep — and the acceptance
/// checks that every extracted core is sound (refutes alone), minimal
/// (loses refutation power with any single axiom removed) and fully
/// attributed to named ORM constructs.
pub struct ExplainScenario {
    /// Stable scenario id (used in bench names and the JSON report).
    pub name: String,
    /// The schema whose unsat elements get diagnosed.
    pub schema: orm_model::Schema,
}

/// Build the diagnosis workload: three contradiction families from the
/// paper (Fig. 1 exclusive-subtypes, Fig. 4a mandatory+exclusion,
/// Fig. 10 uniqueness+frequency) buried in `noise` satisfiable chain
/// types with mandatory facts — the noise is what makes minimization do
/// real work, since the seed conflict must be shrunk *past* it.
pub fn explain_battery(noise: u32) -> ExplainScenario {
    let mut b = orm_model::SchemaBuilder::new("explain_battery");
    // Satisfiable noise: a subtype chain with mandatory facts.
    let chain: Vec<_> =
        (0..noise.max(1)).map(|i| b.entity_type(&format!("N{i}")).expect("fresh name")).collect();
    for w in chain.windows(2) {
        b.subtype(w[1], w[0]).expect("acyclic");
    }
    let partner = b.entity_type("Partner").expect("fresh name");
    for (i, &ty) in chain.iter().enumerate().take(3) {
        let f = b.fact_type(&format!("n{i}"), ty, partner).expect("fresh name");
        let r = b.schema().fact_type(f).first();
        b.mandatory(r).expect("valid");
    }
    // Fig. 1: a doomed type under two exclusive supertypes.
    let student = b.entity_type("Student").expect("fresh name");
    let employee = b.entity_type("Employee").expect("fresh name");
    let phd = b.entity_type("Phd").expect("fresh name");
    b.subtype(student, chain[0]).expect("acyclic");
    b.subtype(employee, chain[0]).expect("acyclic");
    b.subtype(phd, student).expect("acyclic");
    b.subtype(phd, employee).expect("acyclic");
    b.exclusive_types([student, employee]).expect("distinct");
    // Fig. 4a: mandatory + exclusion dooms a role.
    let x = b.entity_type("X").expect("fresh name");
    let y = b.entity_type("Y").expect("fresh name");
    let f1 = b.fact_type("f1", student, x).expect("fresh name");
    let f2 = b.fact_type("f2", student, y).expect("fresh name");
    let r1 = b.schema().fact_type(f1).first();
    let r3 = b.schema().fact_type(f2).first();
    b.mandatory(r1).expect("valid");
    b.exclusion_roles([r1, r3]).expect("valid");
    // Fig. 10: uniqueness against frequency on one role.
    let f3 = b.fact_type("f3", employee, x).expect("fresh name");
    let r5 = b.schema().fact_type(f3).first();
    b.unique([r5]).expect("valid");
    b.frequency([r5], 2, Some(5)).expect("valid");
    ExplainScenario { name: format!("explain_battery_{noise}"), schema: b.finish() }
}

/// The compact two-contradiction workload for the MUS-enumeration bench:
/// [`orm_gen::multi_contradiction`] with `k = 2` — Fig. 1's doomed-type
/// shape merged with a second, independent exclusion cycle over the same
/// type. Ground truth is known exactly (two 3-axiom cores, nine 2-axiom
/// repairs), so the bench pins the enumerator's output against it rather
/// than merely timing it. Kept separate from [`explain_battery`]: adding
/// even unconstrained types there shifts the implicit-exclusion axiom
/// set and destabilizes the single-core minimization timings that
/// section gates on.
pub fn enumeration_battery() -> ExplainScenario {
    let (schema, _) = orm_gen::multi_contradiction(2);
    ExplainScenario { name: "enumeration_two_mus".to_owned(), schema }
}

/// An interactive-editing workload: one large TBox, a classification
/// battery re-run after each of a series of single-GCI additions — the
/// per-keystroke loop of the paper's §4 editor scenario. The comparison
/// is **wholesale invalidation** (the cache emptied after every edit, as
/// before PR 4) against **delta-aware survival** (one persistent cache
/// whose entries are retained/revalidated across the additions).
pub struct IncrementalEditScenario {
    /// Stable scenario id (used in bench names and the JSON report).
    pub name: String,
    /// The base terminology (the battery queries never change).
    pub tbox: TBox,
    /// The per-round query battery (type sweep + classification matrix).
    pub queries: Vec<C>,
    /// One GCI per editing round, added to the TBox in order. Each
    /// `Extra_i ⊑ A0` mentions an atom no battery witness contains, so a
    /// delta-aware cache can confirm every stored model in one scan —
    /// exactly the "unrelated constraint added" case an editor produces.
    pub edits: Vec<(C, C)>,
}

/// Build the incremental-edit workload: the `classify_sweep(k, 1)` TBox
/// and battery, plus `rounds` pre-built single-GCI edits.
pub fn incremental_edit(k: u32, rounds: u32) -> IncrementalEditScenario {
    let sweep = classify_sweep(k, 1);
    let mut tbox = sweep.tbox;
    let anchor = C::Atomic(tbox.atom("A0"));
    let edits =
        (0..rounds).map(|i| (C::Atomic(tbox.atom(format!("Extra{i}"))), anchor.clone())).collect();
    IncrementalEditScenario {
        name: format!("incremental_edit_{k}x{rounds}"),
        tbox,
        queries: sweep.queries,
        edits,
    }
}

/// One editing session in flight: the scenario's TBox clone plus the
/// cache that lives (or dies) across its edits. Shared by `experiments
/// tableau` and the `tableau_hotpath/incremental_edit` criterion group so
/// the JSON trajectory and the criterion numbers measure the identical
/// workload.
pub struct IncrementalEditRun {
    tbox: TBox,
    cache: SatCache,
}

impl IncrementalEditScenario {
    /// Start a session: clone the base TBox and populate a fresh cache
    /// with one full battery pass — the untimed warmup both comparison
    /// modes share.
    pub fn populate(&self, cx: &ExecCx) -> IncrementalEditRun {
        let tbox = self.tbox.clone();
        let mut cache = SatCache::new();
        for q in &self.queries {
            cache.satisfiable_cx(&tbox, q, cx);
        }
        IncrementalEditRun { tbox, cache }
    }
}

impl IncrementalEditRun {
    /// Apply every edit of `scenario` in order, replaying the battery
    /// after each; the returned verdict stream is what the comparison
    /// modes must agree on. `delta_aware = false` emulates the pre-delta
    /// wholesale invalidation by explicitly clearing the cache per edit.
    pub fn edit_rounds(
        &mut self,
        scenario: &IncrementalEditScenario,
        delta_aware: bool,
        cx: &ExecCx,
    ) -> Vec<SearchOutcome> {
        let mut verdicts = Vec::with_capacity(scenario.edits.len() * scenario.queries.len());
        for (c, d) in &scenario.edits {
            self.tbox.gci(c.clone(), d.clone());
            if !delta_aware {
                self.cache.clear();
            }
            for q in &scenario.queries {
                verdicts.push(self.cache.satisfiable_cx(&self.tbox, q, cx));
            }
        }
        verdicts
    }

    /// The session cache's counters (read `retained`/`revalidated` to see
    /// the retention rules engage).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// A bulk-conformance workload (PR 6): the fixed order-processing schema
/// of [`orm_gen::populate::bulk_workload`] populated to `rows` fact
/// tuples with a known number of injected violation faults. The
/// comparison is the per-violation validator (`orm_population::check`)
/// against a compiled [`orm_population::CheckPlan`] executing over the
/// columnar population — same schema, same population, identical
/// violation multiset required.
pub struct BulkScenario {
    /// Stable scenario id (used in bench names and the JSON report).
    pub name: String,
    /// Schema + population + injected-fault count.
    pub workload: orm_gen::populate::BulkWorkload,
    /// The requested tuple count (4 per order; the generator rounds).
    pub rows: usize,
}

/// Build the bulk-conformance scenario at `rows` tuples with `faults`
/// injected violations (deterministic in the fixed seed).
pub fn bulk_conformance(rows: usize, faults: usize) -> BulkScenario {
    BulkScenario {
        name: format!("bulk_conformance_{rows}"),
        workload: orm_gen::populate::bulk_workload(rows, faults, 0xB011),
        rows,
    }
}

/// Budget ample enough that every scenario reaches a definitive verdict.
pub const BUDGET: u64 = 5_000_000;
