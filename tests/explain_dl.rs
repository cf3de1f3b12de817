//! Differential guarantees of unsat-core extraction (PR 5):
//!
//! * **Soundness** — every extracted core refutes its query on its own
//!   (`restrict_to(core)` proves `Unsat`);
//! * **Minimality** — removing any *single* axiom from a core flagged
//!   `minimal` flips the restricted verdict to `Sat`;
//! * **Agreement** — the explanation outcome classifies exactly like the
//!   plain `satisfiable` verdict, and the cached explanation path
//!   (`SatCache::explain` / `Translation::explain_*`) classifies like the
//!   uncached `explain_unsat`;
//! * **Attribution** — through the ORM pipeline, every core axiom of a
//!   translated schema maps to a recorded [`orm_dl::AxiomOrigin`], so a
//!   diagnosis can always name at least one schema construct.
//!
//! The MUS-enumeration PR extends the battery to whole core *families*
//! and their hitting-set repairs:
//!
//! * **Family soundness/minimality** — every enumerated MUS refutes
//!   alone and loses refutation power with any single axiom removed;
//! * **Incomparability** — enumerated MUSes are pairwise ⊆-incomparable
//!   (no duplicates, no subsumed cores);
//! * **Completeness** — on small TBoxes, an unlimited enumeration finds
//!   *exactly* the minimal unsat subsets a brute-force powerset oracle
//!   finds;
//! * **Repairs** — every ranked repair hits all enumerated cores, its
//!   removal re-proves `Sat`, no proper subset of it is itself a repair,
//!   and the ranking is stable across re-runs.
//!
//! Random TBoxes come from the same edit-script vocabulary as
//! `incremental_dl.rs`; random ORM schemas come from `orm-gen`'s
//! unrestricted generator.

use orm_dl::concept::{Concept, RoleExpr};
use orm_dl::explain::{core_refutes_cx, explain_unsat_cx, Explanation};
use orm_dl::tableau::satisfiable_cx;
use orm_dl::tbox::TBox;
use orm_dl::{enumerate_mus_cx, ranked_repairs_cx, AxiomId, DlOutcome, MusEnumeration, SatCache};
use orm_gen::{generate, multi_contradiction, GenConfig};
use orm_tests::steps;
use proptest::prelude::*;

const BUDGET: u64 = 150_000;
/// The enumeration/oracle properties assert that *no* probe starves
/// (`family.complete`), and their branch probes search weakened
/// near-full TBoxes — harder Sat instances than single-core extraction
/// ever poses. A larger cap keeps those assertions about the algorithm,
/// not the budget.
const ENUM_BUDGET: u64 = 2_000_000;
const ATOMS: usize = 4;
const ROLES: usize = 2;

/// One random axiom over the fixed vocabulary (additions only — cores are
/// about a TBox state, not an edit history).
#[derive(Clone, Debug)]
enum Axiom {
    /// `Aᵢ ⊑ Aⱼ`
    Sub(usize, usize),
    /// `Aᵢ ⊓ Aⱼ ⊑ ⊥`
    Excl(usize, usize),
    /// `Aᵢ ⊑ ∃Rᵣ.⊤`
    Exists(usize, usize),
    /// `Aᵢ ⊑ ∀Rᵣ.Aⱼ`
    Forall(usize, usize, usize),
    /// `⊤ ⊑ ≤1 Rᵣ`
    AtMostOne(usize),
    /// `∃Rᵣ.⊤ ⊑ ≥2 Rᵣ`
    AtLeastTwo(usize),
    /// `Rᵣ ⊑ Rₛ`
    RoleIncl(usize, usize),
    /// `Rᵣ` disjoint `Rₛ`
    Disjoint(usize, usize),
}

fn axiom_strategy() -> impl Strategy<Value = Axiom> {
    prop_oneof![
        ((0usize..ATOMS), (0usize..ATOMS)).prop_map(|(i, j)| Axiom::Sub(i, j)),
        ((0usize..ATOMS), (0usize..ATOMS)).prop_map(|(i, j)| Axiom::Excl(i, j)),
        ((0usize..ATOMS), (0usize..ROLES)).prop_map(|(i, r)| Axiom::Exists(i, r)),
        ((0usize..ATOMS), (0usize..ROLES), (0usize..ATOMS))
            .prop_map(|(i, r, j)| Axiom::Forall(i, r, j)),
        (0usize..ROLES).prop_map(Axiom::AtMostOne),
        (0usize..ROLES).prop_map(Axiom::AtLeastTwo),
        ((0usize..ROLES), (0usize..ROLES)).prop_map(|(r, s)| Axiom::RoleIncl(r, s)),
        ((0usize..ROLES), (0usize..ROLES)).prop_map(|(r, s)| Axiom::Disjoint(r, s)),
    ]
}

fn build(axioms: &[Axiom]) -> (TBox, Vec<Concept>) {
    let mut t = TBox::new();
    let atoms: Vec<Concept> =
        (0..ATOMS).map(|i| Concept::Atomic(t.atom(format!("A{i}")))).collect();
    let roles: Vec<RoleExpr> =
        (0..ROLES).map(|i| RoleExpr::direct(t.role(format!("R{i}")))).collect();
    for ax in axioms {
        match *ax {
            Axiom::Sub(i, j) => {
                t.gci(atoms[i].clone(), atoms[j].clone());
            }
            Axiom::Excl(i, j) => {
                t.gci(Concept::and([atoms[i].clone(), atoms[j].clone()]), Concept::Bottom);
            }
            Axiom::Exists(i, r) => {
                t.gci(atoms[i].clone(), Concept::some(roles[r]));
            }
            Axiom::Forall(i, r, j) => {
                t.gci(atoms[i].clone(), Concept::ForAll(roles[r], Box::new(atoms[j].clone())));
            }
            Axiom::AtMostOne(r) => {
                t.gci(Concept::Top, Concept::AtMost(1, roles[r]));
            }
            Axiom::AtLeastTwo(r) => {
                t.gci(Concept::some(roles[r]), Concept::AtLeast(2, roles[r]));
            }
            Axiom::RoleIncl(r, s) => {
                t.role_inclusion(roles[r], roles[s]);
            }
            Axiom::Disjoint(r, s) => {
                t.disjoint(roles[r], roles[s]);
            }
        }
    }
    // Queries: each atom, each ∃R.⊤, and one conjunctive pair — a mix
    // that hits propagation, generation and merging.
    let mut queries: Vec<Concept> = atoms.clone();
    queries.extend(roles.iter().map(|r| Concept::some(*r)));
    queries.push(Concept::and([atoms[0].clone(), atoms[1].clone()]));
    (t, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Guarantees (a), (b) and verdict agreement over random DL TBoxes:
    /// every core refutes alone, every `minimal` core loses refutation
    /// power with any single axiom removed, and the explanation outcome
    /// classifies like the plain verdict.
    #[test]
    fn cores_are_sound_minimal_and_agree(
        axioms in prop::collection::vec(axiom_strategy(), 1..12),
    ) {
        let (tbox, queries) = build(&axioms);
        let mut cache = SatCache::new();
        for query in &queries {
            let plain = DlOutcome::from(satisfiable_cx(&tbox, query, &steps(BUDGET)));
            let explanation = explain_unsat_cx(&tbox, query, &steps(BUDGET));
            prop_assert_eq!(explanation.verdict(), plain, "outcome diverged on {}", query);
            // The cached path classifies identically.
            let cached = cache.explain_seeded_cx(&tbox, query, &steps(BUDGET), &[]);
            prop_assert_eq!(cached.verdict(), plain, "cached outcome diverged on {}", query);
            let Explanation::Unsat(core) = explanation else { continue };
            // (a) The core alone refutes.
            prop_assert!(
                core_refutes_cx(&tbox, &core, query, &steps(BUDGET)),
                "core {:?} does not refute {}", core, query
            );
            // (b) Minimality: dropping any single axiom restores a model.
            prop_assert!(core.minimal, "budget should never bite at this size");
            for i in 0..core.len() {
                let mut weakened = core.axioms.clone();
                let removed = weakened.remove(i);
                let verdict =
                    DlOutcome::from(satisfiable_cx(&tbox.restrict_to(&weakened), query, &steps(BUDGET)));
                prop_assert_eq!(
                    verdict, DlOutcome::Sat,
                    "core for {} is not minimal: still {:?} without {}",
                    query, verdict, removed
                );
            }
        }
    }

    /// Guarantee (c) through the full ORM pipeline on random generated
    /// schemas: per-element explanations agree with the plain sweep
    /// verdicts, every core refutes alone, and every core axiom carries a
    /// recorded ORM origin (so each diagnosis names ≥ 1 construct —
    /// unless the core is empty, which a type query over a translated
    /// schema never produces).
    #[test]
    fn orm_pipeline_explanations_agree_and_attribute(seed in 0u64..40) {
        let schema = generate(&GenConfig::small(seed));
        let t = orm_dl::translate(&schema);
        for (ty, _) in schema.object_types() {
            let plain = DlOutcome::from(t.type_satisfiable_cx(ty, &steps(BUDGET)));
            let explanation = t.explain_type_cx(ty, &steps(BUDGET));
            prop_assert_eq!(explanation.verdict(), plain);
            if let Explanation::Unsat(core) = explanation {
                prop_assert!(core_refutes_cx(
                    &t.tbox, &core, &t.type_concept(ty), &steps(BUDGET)
                ));
                prop_assert!(!core.is_empty(), "a named type needs at least one axiom to clash");
                for id in &core.axioms {
                    prop_assert!(t.axiom_origin(*id).is_some(), "axiom {} unattributed", id);
                }
                prop_assert!(!t.core_origins(&core).is_empty());
            }
        }
        for (role, _) in schema.roles() {
            let plain = DlOutcome::from(t.role_satisfiable_cx(role, &steps(BUDGET)));
            let explanation = t.explain_role_cx(role, &steps(BUDGET));
            prop_assert_eq!(explanation.verdict(), plain);
            if let Explanation::Unsat(core) = explanation {
                prop_assert!(core_refutes_cx(
                    &t.tbox, &core, &t.role_concept(role), &steps(BUDGET)
                ));
                prop_assert!(!t.core_origins(&core).is_empty());
            }
        }
    }
}

/// `sub ⊆ sup` over sorted axiom-id slices.
fn sorted_subset(sub: &[AxiomId], sup: &[AxiomId]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|a| it.any(|b| b == a))
}

/// Brute-force MUS oracle: probe the axiom powerset in ascending subset
/// size, skipping supersets of already-found MUSes. A subset that proves
/// `Unsat` at size `k` is necessarily minimal — every proper subset was
/// either probed `Sat` at a smaller size or would contain an
/// earlier-found MUS (excluded). Only viable for small `n`; the
/// completeness property below caps generation accordingly.
fn brute_force_muses(tbox: &TBox, query: &Concept, budget: u64) -> Vec<Vec<AxiomId>> {
    let ids: Vec<AxiomId> = tbox.axiom_ids().collect();
    let n = ids.len();
    assert!(n <= 12, "powerset oracle is exponential; keep it small");
    let mut masks: Vec<u32> = (0..(1u32 << n)).collect();
    masks.sort_by_key(|m| m.count_ones());
    let mut muses: Vec<(u32, Vec<AxiomId>)> = Vec::new();
    for mask in masks {
        if muses.iter().any(|(m, _)| m & mask == *m) {
            continue; // superset of a found MUS: unsat but not minimal
        }
        let subset: Vec<AxiomId> = ids
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, a)| a)
            .collect();
        let verdict =
            { DlOutcome::from(satisfiable_cx(&tbox.restrict_to(&subset), query, &steps(budget))) };
        assert_ne!(verdict, DlOutcome::ResourceLimit, "oracle probe starved on {query}");
        if verdict == DlOutcome::Unsat {
            muses.push((mask, subset));
        }
    }
    let mut out: Vec<Vec<AxiomId>> = muses.into_iter().map(|(_, s)| s).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Family soundness, minimality and pairwise ⊆-incomparability over
    /// random DL TBoxes, plus agreement: the enumeration classifies like
    /// the plain verdict, its first core matches single-core extraction
    /// behaviour (both certified), and the cached route
    /// (`SatCache::enumerate`) returns the same family as the direct
    /// engine call.
    #[test]
    fn enumerated_families_are_certified_and_incomparable(
        axioms in prop::collection::vec(axiom_strategy(), 1..12),
    ) {
        let (tbox, queries) = build(&axioms);
        let mut cache = SatCache::new();
        for query in &queries {
            let plain = DlOutcome::from(satisfiable_cx(&tbox, query, &steps(ENUM_BUDGET)));
            let enumeration = enumerate_mus_cx(&tbox, query, &steps(ENUM_BUDGET), usize::MAX);
            prop_assert_eq!(enumeration.verdict(), plain, "outcome diverged on {}", query);
            let cached = cache.enumerate_seeded_cx(&tbox, query, &steps(ENUM_BUDGET), usize::MAX, &[]);
            prop_assert_eq!(&cached, &enumeration, "cached family diverged on {}", query);
            let MusEnumeration::Unsat(family) = enumeration else { continue };
            prop_assert!(!family.cores.is_empty());
            prop_assert!(!family.truncated, "no cap was requested");
            for (i, core) in family.cores.iter().enumerate() {
                // Soundness: each core refutes alone.
                prop_assert!(
                    core_refutes_cx(&tbox, core, query, &steps(ENUM_BUDGET)),
                    "core {:?} does not refute {}", core, query
                );
                // Minimality: dropping any single axiom restores a model.
                prop_assert!(core.minimal, "budget should never bite at this size");
                for j in 0..core.len() {
                    let mut weakened = core.axioms.clone();
                    let removed = weakened.remove(j);
                    let verdict = DlOutcome::from(satisfiable_cx(&tbox.restrict_to(&weakened), query, &steps(ENUM_BUDGET)));
                    prop_assert_eq!(
                        verdict, DlOutcome::Sat,
                        "family core for {} not minimal without {}", query, removed
                    );
                }
                // Pairwise ⊆-incomparability.
                for other in &family.cores[i + 1..] {
                    prop_assert!(
                        !sorted_subset(&core.axioms, &other.axioms)
                            && !sorted_subset(&other.axioms, &core.axioms),
                        "cores comparable: {:?} vs {:?}", core, other
                    );
                }
            }
        }
    }

    /// Repair guarantees over random DL TBoxes: every ranked repair hits
    /// all enumerated cores, removing its axioms re-proves `Sat`, no
    /// proper subset of a returned repair is itself a repair, and the
    /// ranked order is stable across re-runs on the same TBox (same
    /// delta log ⇒ same recency keys ⇒ same order).
    #[test]
    fn repairs_hit_reprove_and_rank_stably(
        axioms in prop::collection::vec(axiom_strategy(), 1..12),
    ) {
        let (tbox, queries) = build(&axioms);
        let all: Vec<AxiomId> = tbox.axiom_ids().collect();
        for query in &queries {
            let MusEnumeration::Unsat(family) = enumerate_mus_cx(&tbox, query, &steps(ENUM_BUDGET), usize::MAX)
                else { continue };
            let repairs = ranked_repairs_cx(&tbox, query, &steps(ENUM_BUDGET), &family);
            let rerun = ranked_repairs_cx(&tbox, query, &steps(ENUM_BUDGET), &family);
            prop_assert_eq!(&repairs, &rerun, "ranking unstable on {}", query);
            // Some weakened subsets legitimately starve any finite budget
            // (the ≤1/≥2 counting interplay explodes the search); the
            // engine reports that honestly via `complete = false` instead
            // of guessing. The hitting-set guarantees below are only
            // *claimed* for complete families, so skip the rest here —
            // ranking stability above holds either way.
            if !family.complete {
                continue;
            }
            // A complete family with no empty core always admits repairs.
            if family.cores.iter().all(|c| !c.is_empty()) {
                prop_assert!(!repairs.is_empty(), "no repair found for {}", query);
            }
            for repair in &repairs {
                prop_assert!(repair.verified);
                // Hits every core.
                for core in &family.cores {
                    prop_assert!(
                        core.axioms.iter().any(|a| repair.axioms.contains(a)),
                        "repair {:?} misses core {:?}", repair, core
                    );
                }
                // Removing the repair re-proves Sat.
                let keep: Vec<AxiomId> =
                    all.iter().copied().filter(|a| !repair.axioms.contains(a)).collect();
                let verdict =
                    DlOutcome::from(satisfiable_cx(&tbox.restrict_to(&keep), query, &steps(ENUM_BUDGET)));
                prop_assert_eq!(verdict, DlOutcome::Sat, "repair {:?} does not fix {}", repair, query);
                // No proper subset is a repair: dropping any one axiom
                // from the repair leaves some enumerated core intact, so
                // the element stays refuted.
                for skip in &repair.axioms {
                    let keep: Vec<AxiomId> = all
                        .iter()
                        .copied()
                        .filter(|a| a == skip || !repair.axioms.contains(a))
                        .collect();
                    let verdict =
                        DlOutcome::from(satisfiable_cx(&tbox.restrict_to(&keep), query, &steps(ENUM_BUDGET)));
                    prop_assert_eq!(
                        verdict, DlOutcome::Unsat,
                        "proper subset of {:?} (without {}) already repairs {}", repair, skip, query
                    );
                }
            }
        }
    }
}

proptest! {
    // The powerset oracle probes up to 2^n subsets per query; fewer,
    // smaller cases keep the debug-mode battery in seconds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Completeness against ground truth: an unlimited enumeration on a
    /// small TBox returns *exactly* the minimal unsat subsets that a
    /// brute-force powerset sweep finds.
    #[test]
    fn enumeration_matches_powerset_oracle(
        axioms in prop::collection::vec(axiom_strategy(), 1..11),
    ) {
        let (tbox, queries) = build(&axioms);
        // Two queries keep the oracle affordable: one atom and the
        // conjunctive pair (the shapes the translation actually asks).
        for query in [&queries[0], &queries[queries.len() - 1]] {
            let MusEnumeration::Unsat(family) = enumerate_mus_cx(&tbox, query, &steps(ENUM_BUDGET), usize::MAX)
                else {
                    // Oracle agreement for non-Unsat: no subset may refute.
                    let oracle = brute_force_muses(&tbox, query, ENUM_BUDGET);
                    prop_assert!(oracle.is_empty(), "enumeration missed {:?} on {}", oracle, query);
                    continue;
                };
            prop_assert!(family.complete, "budget should never bite at this size");
            let mut enumerated: Vec<Vec<AxiomId>> =
                family.cores.iter().map(|c| c.axioms.clone()).collect();
            enumerated.sort();
            let oracle = brute_force_muses(&tbox, query, ENUM_BUDGET);
            prop_assert_eq!(enumerated, oracle, "family mismatch on {}", query);
        }
    }

    /// The full ORM pipeline on random generated schemas: per-element
    /// enumerations classify like the plain sweep verdicts, families are
    /// certified (each core refutes alone and is attributed), and repairs
    /// verify end to end through `Translation::{enumerate_type,repairs_for}`.
    #[test]
    fn orm_pipeline_enumerations_agree_and_repair(seed in 0u64..24) {
        let schema = generate(&GenConfig::small(seed));
        let t = orm_dl::translate(&schema);
        for (ty, _) in schema.object_types() {
            let plain = DlOutcome::from(t.type_satisfiable_cx(ty, &steps(ENUM_BUDGET)));
            let enumeration = t.enumerate_type_cx(ty, &steps(ENUM_BUDGET), 8);
            prop_assert_eq!(enumeration.verdict(), plain);
            // The cached route replays the identical family.
            prop_assert_eq!(&t.enumerate_type_cx(ty, &steps(ENUM_BUDGET), 8), &enumeration);
            let MusEnumeration::Unsat(family) = enumeration else { continue };
            let query = t.type_concept(ty);
            for core in &family.cores {
                prop_assert!(core_refutes_cx(&t.tbox, core, &query, &steps(ENUM_BUDGET)));
                prop_assert!(!t.core_origins(core).is_empty());
            }
            for repair in t.repairs_for_cx(&query, &steps(ENUM_BUDGET), &family) {
                prop_assert!(repair.verified);
                prop_assert!(
                    family.cores.iter().all(|c| c.axioms.iter().any(|a| repair.axioms.contains(a)))
                );
                prop_assert!(!t.repair_origins(&repair).is_empty());
            }
        }
    }
}

/// Known-ground-truth families from the generator's multi-contradiction
/// schemas: `k` independent exclusive pairs over one doomed type yield
/// exactly `k` three-axiom cores and `3^k` verified two-or-more-axiom
/// repairs (one culprit picked per contradiction).
#[test]
fn multi_contradiction_families_match_ground_truth() {
    for k in 0..4usize {
        let (schema, doomed) = multi_contradiction(k);
        let t = orm_dl::translate(&schema);
        let enumeration = t.enumerate_type_cx(doomed, &steps(200_000), 64);
        if k == 0 {
            assert_eq!(enumeration, MusEnumeration::Satisfiable);
            continue;
        }
        let MusEnumeration::Unsat(family) = enumeration else {
            panic!("k={k}: expected Unsat, got {enumeration:?}");
        };
        assert_eq!(family.len(), k, "k={k}: {family:?}");
        assert!(family.complete && !family.truncated);
        assert!(family.cores.iter().all(|c| c.minimal && c.len() == 3));
        let repairs = t.repairs_for_cx(&t.type_concept(doomed), &steps(200_000), &family);
        assert_eq!(repairs.len(), 3usize.pow(k as u32), "k={k}");
        assert!(repairs.iter().all(|r| r.verified && r.len() == k));
    }
}

/// The worked example from `docs/EXPLANATIONS.md`, pinned end to end:
/// `examples/schemas/fig1_university.orm` parses, diagnoses to exactly
/// the PhD-student clash, and the statements name the three culprits.
#[test]
fn fig1_sample_schema_diagnoses_as_documented() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../examples/schemas/fig1_university.orm"
    ))
    .expect("sample schema readable");
    let schema = orm_syntax::parse(&text).expect("sample schema parses");
    let diagnoses = orm_reasoner::diagnose_cx(&schema, &steps(200_000));
    assert_eq!(diagnoses.len(), 1, "only PhdStudent is doomed: {diagnoses:?}");
    let d = &diagnoses[0];
    assert!(d.core.minimal);
    assert_eq!(d.core.len(), 3);
    assert_eq!(d.statements.len(), 3, "statements: {:?}", d.statements);
    assert!(d.statements.iter().any(|s| s.contains("is a Student")));
    assert!(d
        .statements
        .iter()
        .any(|s| s.contains("is an Employee") || s.contains("is a Employee")));
    assert!(d.statements.iter().any(|s| s.contains("more than one of")));
}
