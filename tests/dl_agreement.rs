//! Agreement between the complete reasoners on the DL-mappable fragment
//! (no rings, no value constraints, no subtype cycles): the tableau and
//! the bounded model finder must never contradict each other, and both
//! must agree with the patterns' unsatisfiability claims.
//!
//! This file is also the **differential suite** for the trail-based
//! tableau rewrite (now with dependency-directed backjumping): on
//! generated schemas the optimized engine must return verdicts identical
//! to the retained classic clone-based engine (`orm_dl::classic`), and
//! its refutations must be confirmed by the bounded model search and the
//! nine pattern checkers on fault-injected schemas. The `Translation`
//! helpers additionally route through the sharded verdict cache
//! ([`orm_dl::SatShards`]), so the cached query path is differentially
//! pinned against the uncached one (including repeat passes that answer
//! from memory) — and the **parallel batteries** (`classify_par`,
//! `role_sweep_par`) are pinned verdict for verdict against their
//! sequential drivers across several thread counts, with shard-aggregated
//! cache stats required to equal the sequential totals.

use orm_dl::{translate, DlOutcome};
use orm_gen::generate;
use orm_reasoner::{role_satisfiability, type_satisfiability, Bounds};
use orm_tests::{mappable_config, steps, tiny_config};
use proptest::prelude::*;

const DL_BUDGET: u64 = 120_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// If the bounded finder produces a model populating a role, the DL
    /// must not call that role unsatisfiable — and vice versa: a DL
    /// refutation means the finder cannot find a model.
    #[test]
    fn finder_and_tableau_never_contradict(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let idx = schema.index();
        if schema.object_types().any(|(t, _)| idx.on_subtype_cycle(t)) {
            // Subtype loops are outside the mappable fragment (strictness).
            return Ok(());
        }
        let translation = translate(&schema);
        prop_assert!(translation.unmapped.is_empty(), "{:?}", translation.unmapped);

        for (role, _) in schema.roles() {
            let dl = DlOutcome::from(translation.role_satisfiable_cx(role, &steps(DL_BUDGET)));
            let finder = role_satisfiability(&schema, role, Bounds::small());
            match (dl, finder) {
                (DlOutcome::Unsat, outcome) => prop_assert!(
                    !outcome.is_sat(),
                    "DL refuted role {} but the finder found a model",
                    schema.role_label(role)
                ),
                (DlOutcome::Sat, outcome) => {
                    // The finder may fail to find a model within bounds even
                    // for satisfiable roles (no finite-model guarantee), so
                    // only a *definitive* mismatch in the other direction is
                    // checkable here: nothing to assert.
                    let _ = outcome;
                }
                (DlOutcome::ResourceLimit, _) => {}
            }
        }
        for (ty, _) in schema.object_types() {
            let dl = DlOutcome::from(translation.type_satisfiable_cx(ty, &steps(DL_BUDGET)));
            if dl == DlOutcome::Unsat {
                let finder = type_satisfiability(&schema, ty, Bounds::small());
                prop_assert!(
                    !finder.is_sat(),
                    "DL refuted type {} but the finder found a model",
                    schema.object_type(ty).name()
                );
            }
        }
    }

    /// Pattern findings restricted to the mappable fragment are confirmed
    /// by the DL tableau (not only by the bounded finder): two independent
    /// complete procedures agreeing with each pattern.
    #[test]
    fn patterns_confirmed_by_dl(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let idx = schema.index();
        if schema.object_types().any(|(t, _)| idx.on_subtype_cycle(t)) {
            return Ok(());
        }
        let translation = translate(&schema);
        prop_assert!(translation.unmapped.is_empty());
        let report = orm_core::validate(&schema);
        for finding in &report.findings {
            for &role in &finding.unsat_roles {
                let dl = DlOutcome::from(translation.role_satisfiable_cx(role, &steps(DL_BUDGET)));
                prop_assert!(
                    dl != DlOutcome::Sat,
                    "pattern {:?} flagged role {} but the DL says satisfiable",
                    finding.code,
                    schema.role_label(role)
                );
            }
            for &ty in &finding.unsat_types {
                let dl = DlOutcome::from(translation.type_satisfiable_cx(ty, &steps(DL_BUDGET)));
                prop_assert!(
                    dl != DlOutcome::Sat,
                    "pattern {:?} flagged type {} but the DL says satisfiable",
                    finding.code,
                    schema.object_type(ty).name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential: the trail-based engine and the retained classic
    /// clone-based engine return the same verdict for every role and
    /// object type of generated schemas (including unmappable constructs —
    /// both engines see the same TBox). Budget accounting differs between
    /// the engines, so a `ResourceLimit` on either side is inconclusive
    /// and skipped; definitive verdicts must be identical.
    #[test]
    fn trail_and_classic_engines_agree(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let translation = translate(&schema);
        for (role, _) in schema.roles() {
            let query = translation.role_concept(role);
            let new = DlOutcome::from(orm_dl::satisfiable_cx(&translation.tbox, &query, &steps(DL_BUDGET)));
            let old = orm_dl::classic::satisfiable(&translation.tbox, &query, DL_BUDGET);
            if new != DlOutcome::ResourceLimit && old != DlOutcome::ResourceLimit {
                prop_assert_eq!(
                    new,
                    old,
                    "engines disagree on role {} (seed {})",
                    schema.role_label(role),
                    seed
                );
            }
        }
        for (ty, _) in schema.object_types() {
            let query = translation.type_concept(ty);
            let new = DlOutcome::from(orm_dl::satisfiable_cx(&translation.tbox, &query, &steps(DL_BUDGET)));
            let old = orm_dl::classic::satisfiable(&translation.tbox, &query, DL_BUDGET);
            if new != DlOutcome::ResourceLimit && old != DlOutcome::ResourceLimit {
                prop_assert_eq!(
                    new,
                    old,
                    "engines disagree on type {} (seed {})",
                    schema.object_type(ty).name(),
                    seed
                );
            }
        }
    }

    /// Differential for the verdict cache: the `Translation` helpers
    /// (which consult the shared `SatCache`) must return exactly what the
    /// uncached `orm_dl::satisfiable` returns — on the first pass (cache
    /// misses that populate entries) and on a second pass answered from
    /// memory.
    #[test]
    fn cached_and_uncached_paths_agree(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let translation = translate(&schema);
        for pass in 0..2 {
            for (role, _) in schema.roles() {
                let cached = DlOutcome::from(translation.role_satisfiable_cx(role, &steps(DL_BUDGET)));
                let uncached = DlOutcome::from(orm_dl::satisfiable_cx(&translation.tbox,
                    &translation.role_concept(role), &steps(DL_BUDGET)));
                prop_assert_eq!(
                    cached,
                    uncached,
                    "cache diverged on role {} (seed {seed}, pass {pass})",
                    schema.role_label(role)
                );
            }
            for (ty, _) in schema.object_types() {
                let cached = DlOutcome::from(translation.type_satisfiable_cx(ty, &steps(DL_BUDGET)));
                let uncached = DlOutcome::from(orm_dl::satisfiable_cx(&translation.tbox,
                    &translation.type_concept(ty), &steps(DL_BUDGET)));
                prop_assert_eq!(
                    cached,
                    uncached,
                    "cache diverged on type {} (seed {seed}, pass {pass})",
                    schema.object_type(ty).name()
                );
            }
        }
        // The second pass must have been answered from memory.
        let stats = translation.cache_stats();
        prop_assert!(
            stats.hits >= stats.misses,
            "second pass was not served from the cache: {stats:?}"
        );
    }

    /// Classification is deterministic under the cache: a repeat run
    /// returns the identical pair set (served from memory), and each
    /// cached subsumption verdict matches the classic engine's.
    #[test]
    fn classification_stable_under_cache(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);
        let first = translation.classify_cx(&schema, &steps(DL_BUDGET));
        let second = translation.classify_cx(&schema, &steps(DL_BUDGET));
        prop_assert_eq!(&first, &second, "classification changed across cached runs (seed {})", seed);
        for &(sub, sup) in &first {
            let classic = orm_dl::classic::subsumes(
                &translation.tbox,
                &translation.type_concept(sup),
                &translation.type_concept(sub),
                DL_BUDGET,
            );
            if classic.is_some() {
                prop_assert_eq!(
                    classic,
                    Some(true),
                    "classic engine rejects cached subsumption pair (seed {})",
                    seed
                );
            }
        }
    }

    /// Differential for the parallel classification battery: on random
    /// schemas, `classify_par` at 1, 2 and 8 threads returns the pair set
    /// `classify` returns — same pairs, same order — from a cold cache
    /// *and* from a warm one (the warm run answers from shards populated
    /// by the parallel pass itself).
    #[test]
    fn classify_par_matches_sequential(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);
        let sequential = translation.classify_cx(&schema, &steps(DL_BUDGET));
        for threads in [1usize, 2, 8] {
            let cold = translation.clone();
            prop_assert_eq!(
                &cold.classify_par_cx(&schema, &steps(DL_BUDGET), threads).0,
                &sequential,
                "cold parallel classification diverged at {} threads (seed {})",
                threads,
                seed
            );
            prop_assert_eq!(
                &cold.classify_par_cx(&schema, &steps(DL_BUDGET), threads).0,
                &sequential,
                "warm parallel classification diverged at {} threads (seed {})",
                threads,
                seed
            );
        }
    }

    /// Differential for the parallel role sweep: verdicts and order match
    /// the sequential sweep at every thread count.
    #[test]
    fn role_sweep_par_matches_sequential(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);
        let sequential = translation.role_sweep_cx(&schema, &steps(DL_BUDGET));
        for threads in [1usize, 2, 8] {
            let cold = translation.clone();
            prop_assert_eq!(
                &cold.role_sweep_par_cx(&schema, &steps(DL_BUDGET), threads).0,
                &sequential,
                "parallel role sweep diverged at {} threads (seed {})",
                threads,
                seed
            );
        }
    }

    /// The sharded cache dedups parallel work exactly once per distinct
    /// root label set: aggregated across shards, a parallel battery's
    /// miss count — and therefore its hit+miss total — equals the
    /// sequential battery's, no matter how the threads interleave.
    #[test]
    fn shard_stats_aggregate_to_sequential_totals(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);
        translation.classify_cx(&schema, &steps(DL_BUDGET));
        translation.role_sweep_cx(&schema, &steps(DL_BUDGET));
        let seq = translation.cache_stats();
        for threads in [2usize, 8] {
            let par = translation.clone();
            par.classify_par_cx(&schema, &steps(DL_BUDGET), threads);
            par.role_sweep_par_cx(&schema, &steps(DL_BUDGET), threads);
            let stats = par.cache_stats();
            prop_assert_eq!(
                stats.misses, seq.misses,
                "a parallel battery re-proved a cached key at {} threads (seed {seed})",
                threads
            );
            prop_assert_eq!(
                stats.hits + stats.misses,
                seq.hits + seq.misses,
                "hit+miss totals diverged at {} threads (seed {seed})",
                threads
            );
        }
    }

    /// Differential over derived subsumption: classification through the
    /// trail-based engine matches the classic engine pair by pair.
    #[test]
    fn subsumption_agrees_between_engines(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let translation = translate(&schema);
        let types: Vec<_> = schema.object_types().map(|(t, _)| t).collect();
        for &sub in &types {
            for &sup in &types {
                let new = orm_dl::subsumes_cx(&translation.tbox,
                    &translation.type_concept(sup),
                    &translation.type_concept(sub), &steps(DL_BUDGET)).ok().flatten();
                let old = orm_dl::classic::subsumes(
                    &translation.tbox,
                    &translation.type_concept(sup),
                    &translation.type_concept(sub),
                    DL_BUDGET,
                );
                if let (Some(n), Some(o)) = (new, old) {
                    prop_assert_eq!(n, o, "subsumption disagreement (seed {})", seed);
                }
            }
        }
    }
}

/// Fault-injected schemas, one per paper pattern: every element the
/// pattern checkers flag must be refuted by the bounded model search, and
/// — when the schema stays inside the mappable fragment — by *both*
/// tableau engines. Zero disagreements is the acceptance bar of the
/// engine rewrite.
#[test]
fn injected_faults_confirmed_by_finder_and_both_engines() {
    use orm_gen::faults::{inject, FaultKind};
    use orm_gen::{generate_clean, GenConfig};

    for (i, fault) in FaultKind::ALL.into_iter().enumerate() {
        let clean = generate_clean(&GenConfig::sized(11 + i as u64, 6));
        let schema = inject(&clean, fault, 0);
        let report = orm_core::validate(&schema);
        assert!(report.has_unsat(), "fault {fault:?} did not trigger any pattern");
        let translation = translate(&schema);
        let mappable = translation.unmapped.is_empty();
        for finding in &report.findings {
            for &role in &finding.unsat_roles {
                let finder = role_satisfiability(&schema, role, Bounds::small());
                assert!(
                    !finder.is_sat(),
                    "{fault:?}: finder found a model for flagged role {}",
                    schema.role_label(role)
                );
                if mappable {
                    let query = translation.role_concept(role);
                    let new = DlOutcome::from(orm_dl::satisfiable_cx(
                        &translation.tbox,
                        &query,
                        &steps(DL_BUDGET),
                    ));
                    let old = orm_dl::classic::satisfiable(&translation.tbox, &query, DL_BUDGET);
                    assert_ne!(
                        new,
                        DlOutcome::Sat,
                        "{fault:?}: trail engine says Sat for flagged role {}",
                        schema.role_label(role)
                    );
                    assert_ne!(
                        old,
                        DlOutcome::Sat,
                        "{fault:?}: classic engine says Sat for flagged role {}",
                        schema.role_label(role)
                    );
                }
            }
            for &ty in &finding.unsat_types {
                let finder = type_satisfiability(&schema, ty, Bounds::small());
                assert!(
                    !finder.is_sat(),
                    "{fault:?}: finder found a model for flagged type {}",
                    schema.object_type(ty).name()
                );
                if mappable {
                    let query = translation.type_concept(ty);
                    let new = DlOutcome::from(orm_dl::satisfiable_cx(
                        &translation.tbox,
                        &query,
                        &steps(DL_BUDGET),
                    ));
                    let old = orm_dl::classic::satisfiable(&translation.tbox, &query, DL_BUDGET);
                    assert_ne!(
                        new,
                        DlOutcome::Sat,
                        "{fault:?}: trail engine says Sat for flagged type {}",
                        schema.object_type(ty).name()
                    );
                    assert_ne!(
                        old,
                        DlOutcome::Sat,
                        "{fault:?}: classic engine says Sat for flagged type {}",
                        schema.object_type(ty).name()
                    );
                }
            }
        }
    }
}

/// The figures of the mappable fragment, checked against the DL one by one.
#[test]
fn mappable_figures_agree_with_dl() {
    use orm_core::fixtures;
    for fixture in fixtures::all() {
        let translation = translate(&fixture.schema);
        if !translation.unmapped.is_empty() {
            continue; // FIG5/6/7 (values), FIG11/12 (rings), FIG13 (loop)
        }
        let report = orm_core::validate(&fixture.schema);
        for finding in &report.findings {
            for &role in &finding.unsat_roles {
                assert_eq!(
                    DlOutcome::from(translation.role_satisfiable_cx(role, &steps(DL_BUDGET))),
                    DlOutcome::Unsat,
                    "{}: DL disagrees on role {}",
                    fixture.id,
                    fixture.schema.role_label(role)
                );
            }
            for &ty in &finding.unsat_types {
                assert_eq!(
                    DlOutcome::from(translation.type_satisfiable_cx(ty, &steps(DL_BUDGET))),
                    DlOutcome::Unsat,
                    "{}: DL disagrees on type {}",
                    fixture.id,
                    fixture.schema.object_type(ty).name()
                );
            }
        }
    }
}
