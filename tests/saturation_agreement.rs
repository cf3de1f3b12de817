//! Three-way agreement for the graph-saturation engine: saturation vs the
//! trail tableau vs the classic bounded model finder.
//!
//! On the **DL-expressible overlap** (no rings, no value constraints, no
//! subtype cycles) every decided saturation verdict must agree with the
//! tableau's — 100%, no exceptions; a tableau `ResourceLimit` vouches for
//! nothing and is skipped. Every saturation `Unsat` must additionally be
//! confirmed by the bounded finder, and every saturation `Sat` ships a
//! concrete witness that is re-certified here through
//! [`orm_population::check`] under the default strict semantics.
//!
//! **Beyond the overlap**, the suite pins known-verdict ground truths per
//! ring-constraint kind: every single ring kind admits a verified model,
//! and a battery of incompatible combinations (plus the acyclic+mandatory
//! trap and a value-starved frequency) is `Unsat` *with a `beyond_dl`
//! refutation* while the tableau — whose translation reports the deciding
//! constructs as unmapped — cannot refute them. These are exactly the
//! cases the saturation engine exists for.
//!
//! The memoized query path (one engine asked twice) and the parallel
//! sweeps (`type_sweep_par` / `role_sweep_par` over `fan_out_cx`) are
//! differentially pinned against cold sequential drivers.
//!
//! **One rule set.** The engine refutes with `orm_core`'s doom analysis, so
//! on generated schemas, the paper's fixtures and the example schemas it
//! refutes exactly what `validate_all` reports unsatisfiable, and every
//! refutation origin is a seed finding of that report.

use orm_core::{fixtures, validate_all, CheckCode, Severity};
use orm_dl::{translate, DlOutcome, ExecCx, SaturationEngine, SaturationOutcome};
use orm_gen::faults::{inject_all, FaultKind};
use orm_gen::{frequency_value_scenario, generate, ring_scenario, GenConfig};
use orm_model::{Constraint, Mandatory, RingKind, Schema};
use orm_population::{check, CheckOptions, Population};
use orm_reasoner::{diagnose_saturation, role_satisfiability, type_satisfiability, Bounds};
use orm_tests::{mappable_config, steps, tiny_config};
use proptest::prelude::*;
use std::collections::BTreeSet;

const DL_BUDGET: u64 = 120_000;

/// Certify a saturation witness against the population checker directly.
/// A `Sat` whose witness fails here would be a soundness bug in the engine.
fn certify(schema: &Schema, model: &Population) {
    let violations = check(schema, model, CheckOptions::default());
    assert!(violations.is_empty(), "saturation witness is not conformant: {violations:?}");
}

/// Checks that the saturation engine refutes exactly the roles and types
/// `validate_all` reports unsatisfiable, and that every origin of every
/// refutation is the identity (code and culprits) of a non-E3
/// unsatisfiable finding in that report, so its constraints come from a
/// seed finding. Returns what differs.
fn one_rule_set(schema: &Schema) -> Result<(), String> {
    let report = validate_all(schema);
    let seeds: Vec<(CheckCode, &[orm_model::Element])> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Unsatisfiable && f.code != CheckCode::E3)
        .map(|f| (f.code, f.culprits.as_slice()))
        .collect();
    let engine = SaturationEngine::new(schema);
    let cx = ExecCx::unlimited();
    let check_origins = |outcome: SaturationOutcome, what: &str| -> Result<bool, String> {
        let SaturationOutcome::Unsat(refutation) = outcome else { return Ok(false) };
        for origin in &refutation.origins {
            if !seeds.contains(&(origin.code, origin.culprits.as_slice())) {
                return Err(format!("{what}: origin {origin:?} is no seed finding"));
            }
        }
        Ok(true)
    };
    let mut types = BTreeSet::new();
    for (ty, ot) in schema.object_types() {
        if check_origins(engine.check_type(ty, &cx), ot.name())? {
            types.insert(ty);
        }
    }
    let mut roles = BTreeSet::new();
    for (role, _) in schema.roles() {
        if check_origins(engine.check_role(role, &cx), schema.role_label(role))? {
            roles.insert(role);
        }
    }
    if types != report.unsat_types() || roles != report.unsat_roles() {
        return Err(format!(
            "saturation refutes types {types:?} and roles {roles:?}, validate_all reports \
             types {:?} and roles {:?}",
            report.unsat_types(),
            report.unsat_roles()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One rule set on generated schemas: tiny, small and 8-type medium
    /// configs with up to three planted faults, DL-expressible or not.
    #[test]
    fn saturation_refutes_exactly_what_validate_all_reports(
        seed in any::<u64>(),
        size in 0usize..3,
        faults in proptest::collection::vec(0usize..12, 0..4),
    ) {
        let config = match size {
            0 => tiny_config(seed),
            1 => GenConfig::small(seed),
            _ => GenConfig { n_types: 8, n_facts: 8, ..GenConfig::medium(seed) },
        };
        let mut kinds: Vec<FaultKind> = FaultKind::ALL.to_vec();
        kinds.extend(FaultKind::BEYOND_DL.iter().filter(|k| !FaultKind::ALL.contains(k)));
        let planted: Vec<FaultKind> = faults.iter().map(|i| kinds[*i]).collect();
        let schema = inject_all(&generate(&config), &planted);
        let verdict = one_rule_set(&schema);
        prop_assert!(verdict.is_ok(), "seed {seed}, faults {planted:?}: {verdict:?}");
    }

    /// DL-expressible overlap: decided saturation verdicts agree with the
    /// tableau on every role and type, refutations never claim to be
    /// beyond the DL, `Unsat` is confirmed by the bounded finder, and
    /// `Sat` witnesses certify.
    #[test]
    fn saturation_and_tableau_agree_on_mappable(seed in any::<u64>()) {
        let schema = generate(&mappable_config(seed));
        let idx = schema.index();
        if schema.object_types().any(|(t, _)| idx.on_subtype_cycle(t)) {
            // Subtype loops are outside the mappable fragment.
            return Ok(());
        }
        let translation = translate(&schema);
        prop_assert!(translation.unmapped.is_empty(), "{:?}", translation.unmapped);
        let engine = SaturationEngine::new(&schema);
        let cx = ExecCx::unlimited();

        for (role, _) in schema.roles() {
            match engine.check_role(role, &cx) {
                SaturationOutcome::Sat(model) => {
                    certify(&schema, &model);
                    prop_assert!(model.role_populated(&schema, role));
                    prop_assert!(
                        DlOutcome::from(translation.role_satisfiable_cx(role, &steps(DL_BUDGET))) != DlOutcome::Unsat,
                        "tableau refuted role {} but saturation certified a model",
                        schema.role_label(role)
                    );
                }
                SaturationOutcome::Unsat(refutation) => {
                    prop_assert!(
                        !refutation.beyond_dl,
                        "mappable-fragment refutation claims beyond-DL: {refutation:?}"
                    );
                    prop_assert!(
                        DlOutcome::from(translation.role_satisfiable_cx(role, &steps(DL_BUDGET))) != DlOutcome::Sat,
                        "saturation refuted role {} but the tableau says Sat",
                        schema.role_label(role)
                    );
                    prop_assert!(
                        !role_satisfiability(&schema, role, Bounds::small()).is_sat(),
                        "saturation refuted role {} but the finder found a model",
                        schema.role_label(role)
                    );
                }
                _ => {}
            }
        }
        for (ty, _) in schema.object_types() {
            match engine.check_type(ty, &cx) {
                SaturationOutcome::Sat(model) => {
                    certify(&schema, &model);
                    prop_assert!(model.type_populated(ty));
                    prop_assert!(
                        DlOutcome::from(translation.type_satisfiable_cx(ty, &steps(DL_BUDGET))) != DlOutcome::Unsat,
                        "tableau refuted type {} but saturation certified a model",
                        schema.object_type(ty).name()
                    );
                }
                SaturationOutcome::Unsat(refutation) => {
                    prop_assert!(!refutation.beyond_dl);
                    prop_assert!(
                        DlOutcome::from(translation.type_satisfiable_cx(ty, &steps(DL_BUDGET))) != DlOutcome::Sat,
                        "saturation refuted type {} but the tableau says Sat",
                        schema.object_type(ty).name()
                    );
                    prop_assert!(
                        !type_satisfiability(&schema, ty, Bounds::small()).is_sat(),
                        "saturation refuted type {} but the finder found a model",
                        schema.object_type(ty).name()
                    );
                }
                _ => {}
            }
        }
    }

    /// Full construct mix (rings, values, frequencies included): every
    /// saturation `Unsat` is confirmed by the bounded finder, and every
    /// `Sat` witness certifies. The finder knows nothing of the DL
    /// translation, so this covers exactly the fragment the tableau
    /// cannot see.
    #[test]
    fn finder_confirms_saturation_on_full_mix(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let engine = SaturationEngine::new(&schema);
        let cx = ExecCx::unlimited();
        for (role, _) in schema.roles() {
            match engine.check_role(role, &cx) {
                SaturationOutcome::Sat(model) => certify(&schema, &model),
                SaturationOutcome::Unsat(_) => prop_assert!(
                    !role_satisfiability(&schema, role, Bounds::small()).is_sat(),
                    "saturation refuted role {} but the finder found a model (seed {seed})",
                    schema.role_label(role)
                ),
                _ => {}
            }
        }
        for (ty, _) in schema.object_types() {
            match engine.check_type(ty, &cx) {
                SaturationOutcome::Sat(model) => certify(&schema, &model),
                SaturationOutcome::Unsat(_) => prop_assert!(
                    !type_satisfiability(&schema, ty, Bounds::small()).is_sat(),
                    "saturation refuted type {} but the finder found a model (seed {seed})",
                    schema.object_type(ty).name()
                ),
                _ => {}
            }
        }
    }

    /// Memoized vs cold: one engine asked twice answers exactly like a cold
    /// engine on both passes, and the second pass is served from the memo
    /// without charging a single proof.
    #[test]
    fn cached_and_uncached_saturation_agree(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let warm = SaturationEngine::new(&schema);
        for pass in 0..2 {
            let cx = ExecCx::unlimited();
            let cold = SaturationEngine::new(&schema);
            for (role, _) in schema.roles() {
                prop_assert_eq!(
                    warm.check_role(role, &cx),
                    cold.check_role(role, &ExecCx::unlimited()),
                    "memo diverged on role {} (seed {seed}, pass {pass})",
                    schema.role_label(role)
                );
            }
            for (ty, _) in schema.object_types() {
                prop_assert_eq!(
                    warm.check_type(ty, &cx),
                    cold.check_type(ty, &ExecCx::unlimited()),
                    "memo diverged on type {} (seed {seed}, pass {pass})",
                    schema.object_type(ty).name()
                );
            }
            if pass == 1 {
                prop_assert_eq!(cx.meter().proofs(), 0, "second pass re-proved (seed {seed})");
            }
        }
    }

    /// Sequential vs `fan_out_cx` sweeps: verdict for verdict, order for
    /// order, at several thread counts, from cold caches each time.
    #[test]
    fn sequential_and_parallel_sweeps_agree(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let cx = ExecCx::unlimited();
        let sequential = SaturationEngine::new(&schema);
        let seq_types = sequential.type_sweep(&cx);
        let seq_roles = sequential.role_sweep(&cx);
        for threads in [1usize, 2, 8] {
            let par = SaturationEngine::new(&schema);
            let types = par.type_sweep_par(threads, &cx);
            prop_assert!(types.is_complete(), "type sweep incomplete at {threads} threads");
            for (i, got) in types.results.iter().enumerate() {
                let got = got.as_ref().expect("complete batch");
                prop_assert_eq!(
                    got.verdict(),
                    seq_types[i].1.verdict(),
                    "parallel type sweep diverged at {} threads (seed {seed})",
                    threads
                );
            }
            let roles = par.role_sweep_par(threads, &cx);
            prop_assert!(roles.is_complete(), "role sweep incomplete at {threads} threads");
            for (i, got) in roles.results.iter().enumerate() {
                let got = got.as_ref().expect("complete batch");
                prop_assert_eq!(
                    got.verdict(),
                    seq_roles[i].1.verdict(),
                    "parallel role sweep diverged at {} threads (seed {seed})",
                    threads
                );
            }
        }
    }

    /// An interrupted run returns the interrupt, never a verdict — and
    /// fills no memo slot, so the next uncancelled check proves afresh.
    #[test]
    fn interrupted_runs_never_vouch(seed in any::<u64>()) {
        let schema = generate(&tiny_config(seed));
        let engine = SaturationEngine::new(&schema);
        let cancelled = ExecCx::unlimited();
        cancelled.cancel();
        for (role, _) in schema.roles() {
            prop_assert!(matches!(engine.check_role(role, &cancelled), SaturationOutcome::Cancelled));
            let cx = ExecCx::unlimited();
            let outcome = engine.check_role(role, &cx);
            prop_assert_eq!(cx.meter().proofs(), u64::from(outcome.is_decided()));
        }
        for (ty, _) in schema.object_types() {
            prop_assert!(matches!(engine.check_type(ty, &cancelled), SaturationOutcome::Cancelled));
            let cx = ExecCx::unlimited();
            let outcome = engine.check_type(ty, &cx);
            prop_assert_eq!(cx.meter().proofs(), u64::from(outcome.is_decided()));
        }
        prop_assert_eq!(cancelled.meter().proofs(), 0, "a cancelled run charged a proof");
    }
}

/// Every single ring kind admits a verified model on the canonical
/// reflexive-fact scenario: `Sat` with a certifying witness for the fact
/// type's roles and the player type, even though the translation reports
/// the ring as unmapped.
#[test]
fn single_ring_kinds_have_verified_models() {
    for kind in RingKind::ALL {
        let schema = ring_scenario(&[kind]);
        let translation = translate(&schema);
        assert!(!translation.unmapped.is_empty(), "{kind:?}: ring unexpectedly mapped");
        let engine = SaturationEngine::new(&schema);
        let cx = ExecCx::unlimited();
        for (role, _) in schema.roles() {
            match engine.check_role(role, &cx) {
                SaturationOutcome::Sat(model) => {
                    certify(&schema, &model);
                    assert!(model.role_populated(&schema, role));
                }
                other => panic!("{kind:?}: expected Sat for a lone ring kind, got {other:?}"),
            }
        }
    }
}

/// The headline gap the saturation engine closes: ring-constraint
/// unsatisfiability the DL translation cannot express. Five pinned
/// scenarios (four ring, one value-starved frequency), each `Unsat` with
/// a `beyond_dl` refutation while the tableau — blind to the unmapped
/// constructs — cannot refute the same element.
#[test]
fn beyond_dl_unsat_pins_saturation_decides_where_tableau_cannot() {
    let mut scenarios: Vec<(&str, Schema)> = vec![
        ("acyclic+symmetric", ring_scenario(&[RingKind::Acyclic, RingKind::Symmetric])),
        ("asymmetric+symmetric", ring_scenario(&[RingKind::Asymmetric, RingKind::Symmetric])),
        (
            "antisymmetric+symmetric+intransitive",
            ring_scenario(&[RingKind::Antisymmetric, RingKind::Symmetric, RingKind::Intransitive]),
        ),
    ];
    // The acyclic+mandatory trap (Extension 5): not an incompatible kind
    // table entry — the constraint *pair* is what dooms the roles.
    let mut trap = ring_scenario(&[RingKind::Acyclic]);
    let r1 = {
        let (_, ft) = trap.fact_types().next().expect("one fact");
        ft.first()
    };
    trap.add_constraint(Constraint::Mandatory(Mandatory { roles: vec![r1] }));
    scenarios.push(("acyclic+mandatory trap", trap));
    // Value starvation (Pattern 4 shape): two admissible values, minimum
    // of three partners — unsat only through the unmapped value constraint.
    scenarios.push(("value-starved frequency", frequency_value_scenario(2, 3, Some(5))));

    let mut ring_unsat_beyond_dl = 0usize;
    for (name, schema) in &scenarios {
        let translation = translate(schema);
        assert!(!translation.unmapped.is_empty(), "{name}: nothing unmapped");
        let engine = SaturationEngine::new(schema);
        let cx = ExecCx::unlimited();
        let mut saw_unsat = false;
        for (role, _) in schema.roles() {
            match engine.check_role(role, &cx) {
                SaturationOutcome::Unsat(refutation) => {
                    saw_unsat = true;
                    assert!(refutation.beyond_dl, "{name}: refutation not beyond DL");
                    assert!(!refutation.origins.is_empty(), "{name}: refutation names no origin");
                    assert_ne!(
                        DlOutcome::from(translation.role_satisfiable_cx(role, &steps(DL_BUDGET))),
                        DlOutcome::Unsat,
                        "{name}: the tableau refuted role {} on its own",
                        schema.role_label(role)
                    );
                }
                SaturationOutcome::Sat(model) => certify(schema, &model),
                other => panic!("{name}: undecided outcome {other:?}"),
            }
        }
        assert!(saw_unsat, "{name}: no role was refuted");
        if name.contains("acyclic") || name.contains("symmetric") {
            ring_unsat_beyond_dl += 1;
        }
    }
    assert!(
        ring_unsat_beyond_dl >= 3,
        "fewer than three ring-unsat scenarios decided beyond the DL"
    );
}

/// One rule set on every paper fixture and every example schema.
#[test]
fn saturation_refutes_exactly_what_validate_all_reports_on_fixtures_and_examples() {
    for fixture in fixtures::all() {
        one_rule_set(&fixture.schema).unwrap_or_else(|e| panic!("{}: {e}", fixture.id));
    }
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples/schemas");
    for name in ["faulty_flight.orm", "fig1_university.orm", "library.orm"] {
        let text = std::fs::read_to_string(dir.join(name)).expect("example schema");
        let schema = orm_syntax::parse(&text).expect("example schema parses");
        one_rule_set(&schema).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Fig. 8: the exclusion between `r1` and `r3` contradicts the predicate
/// subset `(r1, r2) ⊆ (r3, r4)`. Pattern 6 refutes `r1` and `r2`, the
/// tableau can too (set comparisons are in the DL fragment), and the
/// diagnosis lists both roles.
#[test]
fn fig8_predicate_subset_is_refuted_by_pattern_6() {
    let schema = fixtures::fig8().schema;
    let engine = SaturationEngine::new(&schema);
    let cx = ExecCx::unlimited();
    for name in ["r1", "r2"] {
        let role = schema.role_by_name(name).expect("fixture role");
        let SaturationOutcome::Unsat(refutation) = engine.check_role(role, &cx) else {
            panic!("{name} is not refuted");
        };
        assert!(refutation.origins.iter().any(|o| o.code == CheckCode::P6), "{refutation:?}");
        assert!(!refutation.beyond_dl);
    }
    let diagnosed: Vec<String> =
        diagnose_saturation(&schema, &cx).into_iter().map(|d| d.label).collect();
    assert!(diagnosed.contains(&"r1".to_owned()) && diagnosed.contains(&"r2".to_owned()));
}
