//! Incremental-vs-fresh agreement for the delta-aware verdict cache
//! (PR 4): across random interleaved sequences of TBox edits and
//! satisfiability/subsumption queries, a **persistent** `SatCache` /
//! `SatShards` must return verdicts identical to proving every query
//! from scratch against the TBox's current state — additions retain or
//! revalidate entries, destructive retractions clear wholesale, and
//! neither path may ever leak a stale verdict. This is the safety
//! property behind the editor-in-the-loop optimization (the per-entry
//! retention rules in `orm_dl::cache`); the per-rule unit tests live
//! next to the cache itself.

use orm_dl::concept::{Concept, RoleExpr};
use orm_dl::tableau::{satisfiable_cx, subsumes_cx};
use orm_dl::tbox::TBox;
use orm_dl::{SatCache, SatShards};
use orm_tests::steps;
use proptest::prelude::*;

const BUDGET: u64 = 150_000;
const ATOMS: usize = 4;
const ROLES: usize = 2;

/// One step of an editing script over a fixed small vocabulary. All
/// index operands are taken modulo the vocabulary size on application.
#[derive(Clone, Debug)]
enum Edit {
    /// `Aᵢ ⊑ Aⱼ`
    SubGci(usize, usize),
    /// `Aᵢ ⊓ Aⱼ ⊑ ⊥`
    ExclGci(usize, usize),
    /// `Aᵢ ⊑ ∃Rᵣ.⊤`
    ExistsGci(usize, usize),
    /// `Aᵢ ⊑ ∀Rᵣ.Aⱼ`
    ForallGci(usize, usize, usize),
    /// `Rᵣ ⊑ Rₛ`
    RoleIncl(usize, usize),
    /// `Rᵣ` disjoint `Rₛ`
    Disjoint(usize, usize),
    /// Retract the newest GCI (destructive; no-op on an axiom-free TBox).
    Retract,
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        ((0usize..ATOMS), (0usize..ATOMS)).prop_map(|(i, j)| Edit::SubGci(i, j)),
        ((0usize..ATOMS), (0usize..ATOMS)).prop_map(|(i, j)| Edit::ExclGci(i, j)),
        ((0usize..ATOMS), (0usize..ROLES)).prop_map(|(i, r)| Edit::ExistsGci(i, r)),
        ((0usize..ATOMS), (0usize..ROLES), (0usize..ATOMS))
            .prop_map(|(i, r, j)| Edit::ForallGci(i, r, j)),
        ((0usize..ROLES), (0usize..ROLES)).prop_map(|(r, s)| Edit::RoleIncl(r, s)),
        ((0usize..ROLES), (0usize..ROLES)).prop_map(|(r, s)| Edit::Disjoint(r, s)),
        Just(Edit::Retract),
    ]
}

/// The fixed vocabulary every script runs over (interned up front, so
/// edits are exactly the axiom mutations).
fn vocabulary() -> (TBox, Vec<Concept>, Vec<RoleExpr>) {
    let mut t = TBox::new();
    let atoms = (0..ATOMS).map(|i| Concept::Atomic(t.atom(format!("A{i}")))).collect();
    let roles = (0..ROLES).map(|i| RoleExpr::direct(t.role(format!("R{i}")))).collect();
    (t, atoms, roles)
}

/// Apply one edit; returns whether it was destructive. (The addition arms
/// discard the [`orm_dl::AxiomId`] the mutators hand back — these scripts
/// exercise cache retention, not provenance.)
fn apply(t: &mut TBox, atoms: &[Concept], roles: &[RoleExpr], edit: &Edit) -> bool {
    match *edit {
        Edit::SubGci(i, j) => {
            t.gci(atoms[i % ATOMS].clone(), atoms[j % ATOMS].clone());
        }
        Edit::ExclGci(i, j) => {
            t.gci(
                Concept::and([atoms[i % ATOMS].clone(), atoms[j % ATOMS].clone()]),
                Concept::Bottom,
            );
        }
        Edit::ExistsGci(i, r) => {
            t.gci(atoms[i % ATOMS].clone(), Concept::some(roles[r % ROLES]));
        }
        Edit::ForallGci(i, r, j) => {
            t.gci(
                atoms[i % ATOMS].clone(),
                Concept::ForAll(roles[r % ROLES], Box::new(atoms[j % ATOMS].clone())),
            );
        }
        Edit::RoleIncl(r, s) => {
            t.role_inclusion(roles[r % ROLES], roles[s % ROLES]);
        }
        Edit::Disjoint(r, s) => {
            t.disjoint(roles[r % ROLES], roles[s % ROLES]);
        }
        Edit::Retract => {
            if !t.gcis().is_empty() {
                let last = t.gcis().len() - 1;
                t.retract_gci(last);
                return true;
            }
            return false;
        }
    }
    false
}

/// The query battery an editor re-runs after each edit: per-atom
/// satisfiability plus the ordered subsumption pairs.
fn queries(atoms: &[Concept]) -> Vec<Concept> {
    let mut out: Vec<Concept> = atoms.to_vec();
    for a in atoms {
        for b in atoms {
            if a != b {
                out.push(Concept::and([a.clone(), Concept::not(b.clone())]));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After every step of a random edit script, the persistent caches
    /// (sequential and sharded) answer the whole battery exactly as
    /// from-scratch tableau runs against the current TBox do — and when
    /// the script is addition-only, the persistent caches never clear
    /// wholesale.
    #[test]
    fn interleaved_edits_agree_with_fresh(
        edits in prop::collection::vec(edit_strategy(), 1..10),
    ) {
        let (mut tbox, atoms, roles) = vocabulary();
        let battery = queries(&atoms);
        let mut cache = SatCache::new();
        let shards = SatShards::with_shards(4);
        let mut any_destructive = false;
        // Step 0 (no edits yet) primes both caches; each subsequent step
        // applies one edit and replays the battery.
        for step in 0..=edits.len() {
            if step > 0 {
                any_destructive |= apply(&mut tbox, &atoms, &roles, &edits[step - 1]);
            }
            for q in &battery {
                let fresh = satisfiable_cx(&tbox, q, &steps(BUDGET));
                prop_assert_eq!(
                    cache.satisfiable_cx(&tbox, q, &steps(BUDGET)), fresh,
                    "SatCache diverged from fresh run on {} at step {} of {:?}",
                    q, step, edits
                );
                prop_assert_eq!(
                    shards.satisfiable_cx(&tbox, q, &steps(BUDGET)), fresh,
                    "SatShards diverged from fresh run on {} at step {} of {:?}",
                    q, step, edits
                );
            }
            // Subsumption through the id-keyed entry point too.
            for a in &atoms {
                for b in &atoms {
                    if a == b {
                        continue;
                    }
                    let fresh = subsumes_cx(&tbox, b, a, &steps(BUDGET));
                    prop_assert_eq!(cache.subsumes_cx(&tbox, b, a, &steps(BUDGET)), fresh);
                    prop_assert_eq!(shards.subsumes_cx(&tbox, b, a, &steps(BUDGET)), fresh);
                }
            }
        }
        if !any_destructive {
            prop_assert_eq!(
                cache.stats().invalidations, 0,
                "an addition-only script wholesale-cleared the SatCache"
            );
            prop_assert_eq!(
                shards.stats().invalidations, 0,
                "an addition-only script wholesale-cleared a shard"
            );
        }
    }

    /// The end state agrees with a fresh-cache run of the *final* TBox:
    /// replaying the battery on a cache that lived through the whole
    /// script returns exactly what a cold cache computes.
    #[test]
    fn final_state_matches_cold_cache(
        edits in prop::collection::vec(edit_strategy(), 1..12),
    ) {
        let (mut tbox, atoms, roles) = vocabulary();
        let battery = queries(&atoms);
        let mut warm = SatCache::new();
        for edit in &edits {
            // Query between edits so the cache has entries to carry over.
            for q in battery.iter().take(3) {
                warm.satisfiable_cx(&tbox, q, &steps(BUDGET));
            }
            apply(&mut tbox, &atoms, &roles, edit);
        }
        let mut cold = SatCache::new();
        for q in &battery {
            prop_assert_eq!(
                warm.satisfiable_cx(&tbox, q, &steps(BUDGET)),
                cold.satisfiable_cx(&tbox, q, &steps(BUDGET)),
                "survivor entries diverged from a cold cache on {} after {:?}",
                q, edits
            );
        }
    }
}

/// Deterministic end-to-end check of the editor loop the proptests
/// randomize: a growing schema-like TBox whose battery is re-run after
/// each addition, with the cache visibly retaining work and one final
/// retraction clearing it.
#[test]
fn editor_loop_retains_then_clears() {
    let (mut tbox, atoms, roles) = vocabulary();
    let battery = queries(&atoms);
    let mut cache = SatCache::new();
    for q in &battery {
        cache.satisfiable_cx(&tbox, q, &steps(BUDGET));
    }
    let misses_after_population = cache.stats().misses;

    // Three monotone edits; every re-run battery answers from the cache
    // except the (few) entries the edits genuinely touch.
    tbox.gci(atoms[0].clone(), atoms[1].clone());
    tbox.gci(Concept::and([atoms[2].clone(), atoms[3].clone()]), Concept::Bottom);
    tbox.gci(atoms[1].clone(), Concept::some(roles[0]));
    for q in &battery {
        let cached = cache.satisfiable_cx(&tbox, q, &steps(BUDGET));
        assert_eq!(cached, satisfiable_cx(&tbox, q, &steps(BUDGET)), "stale verdict for {q}");
    }
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 0, "additions must not clear wholesale");
    assert!(stats.retained + stats.revalidated > 0, "no entry survived: {stats:?}");
    assert!(
        stats.misses < misses_after_population * 2,
        "the edit re-proved more than the whole battery: {stats:?}"
    );

    // The modeler undoes the exclusion: destructive, so the next query
    // rebuilds from a clean slate — and sees the un-doomed verdicts.
    tbox.retract_gci(1);
    for q in &battery {
        assert_eq!(
            cache.satisfiable_cx(&tbox, q, &steps(BUDGET)),
            satisfiable_cx(&tbox, q, &steps(BUDGET))
        );
    }
    assert_eq!(cache.stats().invalidations, 1);
}
