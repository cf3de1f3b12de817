//! Differential suite for the compiled bulk-conformance path (PR 6).
//!
//! The contract under test: a compiled [`CheckPlan`] executing over the
//! columnar population reports **exactly** the violation sequence the
//! per-violation validator ([`orm_population::check`]) reports — same
//! violations, same order, same rendered details — on arbitrary
//! generated schemas × random populations (clean and fault-injected),
//! under both default and permissive check options. A deterministic
//! companion pins plan invalidation: schema edits and TBox edit sessions
//! each stale the plan, and the recompiled plan agrees again.

use orm_gen::populate::{bulk_workload, populate_random, PopConfig};
use orm_population::{check, CheckOptions, CheckPlan, Population};
use orm_reasoner::{check_bulk, BulkChecker};
use orm_tests::steps;
use orm_tests::tiny_config;
use proptest::prelude::*;

/// Rule budget for plan certification; generated schemas are tiny.
const BUDGET: u64 = 200_000;

/// Assert the compiled plan reproduces the validator's violation
/// sequence verbatim on this schema × population × options.
fn assert_plan_agrees(schema: &orm_model::Schema, pop: &Population, options: CheckOptions) {
    let expected = check(schema, pop, options);
    let translation = orm_dl::translate(schema);
    let plan = CheckPlan::compile(schema, &translation, &steps(BUDGET), options);
    let got = plan.execute(schema, pop);
    assert_eq!(
        expected,
        got,
        "compiled plan diverged from the per-violation validator \
         (options {options:?}, population size {})",
        pop.size()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (possibly fault-injected) schemas × random conformity-leaning
    /// populations: the compiled plan and the validator agree exactly,
    /// under both option sets.
    #[test]
    fn compiled_plan_matches_validator(seed in any::<u64>()) {
        let config = tiny_config(seed);
        let schema = orm_gen::generate(&config);
        let pop = populate_random(&schema, &PopConfig::sized(seed, 60));
        assert_plan_agrees(&schema, &pop, CheckOptions::default());
        assert_plan_agrees(&schema, &pop, CheckOptions::permissive());
    }

    /// The empty population conforms to everything the validator lets
    /// through — and both checkers agree on it.
    #[test]
    fn compiled_plan_matches_on_empty_population(seed in any::<u64>()) {
        let schema = orm_gen::generate(&tiny_config(seed));
        assert_plan_agrees(&schema, &Population::new(), CheckOptions::default());
    }
}

/// The bulk workload with injected faults: plan and validator agree
/// exactly, every fault surfaces, and the one-shot `check_bulk` entry
/// point reports the same sequence.
#[test]
fn bulk_workload_differential() {
    let w = bulk_workload(2_000, 12, 9);
    let expected = check(&w.schema, &w.population, CheckOptions::default());
    assert!(
        expected.len() >= w.faults_injected,
        "each of the {} faults yields at least one violation, got {}",
        w.faults_injected,
        expected.len()
    );
    assert_plan_agrees(&w.schema, &w.population, CheckOptions::default());
    let got = check_bulk(&w.schema, &w.population, &steps(BUDGET), CheckOptions::default());
    assert_eq!(expected, got, "check_bulk diverged from the validator");
}

/// A clean bulk workload certifies Sat and reports nothing.
#[test]
fn clean_workload_certifies_and_conforms() {
    let w = bulk_workload(1_000, 0, 5);
    let mut checker = BulkChecker::with_context(&w.schema, &steps(BUDGET), CheckOptions::default());
    let violations = checker.check(&w.schema, &w.population);
    assert_eq!(violations, vec![]);
    let plan = checker.plan().expect("plan compiled by check");
    assert!(plan.certified_sat(), "the order schema is satisfiable");
    assert!(plan.unsat_types().is_empty());
}

/// Plan invalidation: a schema edit bumps the revision and stales the
/// plan; a TBox edit session bumps the cache stamp and stales it again.
/// Each recompile agrees with the validator on the post-edit schema.
#[test]
fn plan_invalidation_across_edits() {
    let w = bulk_workload(400, 6, 3);
    let mut schema = w.schema;
    let mut checker = BulkChecker::with_context(&schema, &steps(BUDGET), CheckOptions::default());

    let first = checker.check(&schema, &w.population);
    assert_eq!(first, check(&schema, &w.population, CheckOptions::default()));
    let plan = checker.plan().expect("plan compiled");
    assert!(plan.is_current(&schema, checker.translation()));
    let rev0 = plan.schema_revision();
    let ops0 = plan.op_count();

    // Re-checking without edits reuses the compiled plan as-is.
    let second = checker.check(&schema, &w.population);
    assert_eq!(first, second);
    assert_eq!(checker.plan().expect("still compiled").schema_revision(), rev0);

    // A schema edit (dropping one constraint) stales the plan...
    let (doomed, _) = schema.constraints().next().expect("workload has constraints");
    schema.remove_constraint(doomed).expect("constraint exists");
    assert!(schema.revision() > rev0);
    assert!(!checker.plan().expect("old plan").is_current(&schema, checker.translation()));
    // ...and the recompiled plan tracks the new revision, drops the
    // constraint's ops, and agrees with the validator again.
    let relaxed = checker.check(&schema, &w.population);
    let replanned = checker.plan().expect("recompiled");
    assert_eq!(replanned.schema_revision(), schema.revision());
    assert!(replanned.op_count() < ops0);
    assert_eq!(relaxed, check(&schema, &w.population, CheckOptions::default()));

    // A TBox edit session bumps the cache stamp: the plan is stale even
    // though the schema revision is unchanged.
    let rev_after = schema.revision();
    let (premium, _) = schema
        .object_types()
        .find(|(_, ot)| ot.name() == "PremiumCustomer")
        .expect("workload type");
    let (courier, _) =
        schema.object_types().find(|(_, ot)| ot.name() == "Courier").expect("workload type");
    checker.edit().add_type_exclusion(premium, courier);
    assert_eq!(schema.revision(), rev_after);
    assert!(!checker.plan().expect("old plan").is_current(&schema, checker.translation()));
    let after_tbox_edit = checker.check(&schema, &w.population);
    assert!(checker.plan().expect("recompiled").is_current(&schema, checker.translation()));
    assert_eq!(after_tbox_edit, check(&schema, &w.population, CheckOptions::default()));
}

/// A checker bound to a pre-cancelled context compiles without proving
/// anything: the plan certifies nothing, the interrupted proofs leave no
/// cache entry behind, and the compiled constraint checks still report
/// the validator's exact violation sequence.
#[test]
fn cancelled_context_compiles_an_uncertified_plan() {
    let w = bulk_workload(400, 6, 3);
    let cancelled = orm_dl::ExecCx::unlimited();
    cancelled.cancel();
    let mut checker = BulkChecker::with_context(&w.schema, &cancelled, CheckOptions::default());
    let got = checker.check(&w.schema, &w.population);
    assert_eq!(got, check(&w.schema, &w.population, CheckOptions::default()));
    let plan = checker.plan().expect("plan compiled by check");
    assert!(!plan.certified_sat(), "an interrupted sweep certified the schema");
    assert!(plan.unsat_types().is_empty());
    let translation = checker.translation();
    assert!(translation.cache_stats().cancelled > 0, "the sweep ignored the cancellation");
    assert_eq!(translation.shards().len(), 0, "an interrupted proof left a cache entry");
}

/// The certification sweep charges the checker's own context: after a
/// normal compile its meter shows the tableau steps the sweep spent.
#[test]
fn compile_charges_the_checker_context() {
    let w = bulk_workload(200, 0, 5);
    let mut checker = BulkChecker::with_context(&w.schema, &steps(BUDGET), CheckOptions::default());
    checker.plan_for(&w.schema);
    assert!(checker.plan().is_some_and(|p| p.certified_sat()));
    assert!(checker.context().meter().steps() > 0, "the compile sweep was not metered");
    assert!(checker.context().meter().proofs() > 0);
}

/// Chain length for the long-ring tests: far deeper than a recursive
/// depth-first search survives on a test thread's default stack.
const LONG_CHAIN: i64 = 50_000;

/// One type under an acyclic ring, populated with the chain
/// `0 → 1 → … → LONG_CHAIN`, closed back to `0` when `closed`.
fn long_chain(closed: bool) -> (orm_model::Schema, Population) {
    let mut b = orm_model::SchemaBuilder::new("chain");
    let node = b.entity_type("Node").expect("fresh");
    let next = b.fact_type("precedes", node, node).expect("fresh");
    b.ring(next, [orm_model::RingKind::Acyclic]).expect("ring players match");
    let schema = b.finish();
    let mut pop = Population::new();
    for i in 0..=LONG_CHAIN {
        pop.add_instance(node, orm_model::Value::int(i));
    }
    for i in 0..LONG_CHAIN {
        pop.add_fact(next, orm_model::Value::int(i), orm_model::Value::int(i + 1));
    }
    if closed {
        pop.add_fact(next, orm_model::Value::int(LONG_CHAIN), orm_model::Value::int(0));
    }
    (schema, pop)
}

/// A long acyclic chain is a model: the checker answers without
/// overflowing the stack, and the compiled plan agrees.
#[test]
fn long_acyclic_chain_conforms() {
    let (schema, pop) = long_chain(false);
    assert_eq!(check(&schema, &pop, CheckOptions::default()), vec![]);
    assert_plan_agrees(&schema, &pop, CheckOptions::default());
}

/// The same chain closed into one long cycle: the checker and the
/// compiled plan report the same single ring violation, witness and all.
#[test]
fn long_cycle_reports_one_ring_violation() {
    let (schema, pop) = long_chain(true);
    let violations = check(&schema, &pop, CheckOptions::default());
    assert_eq!(violations.len(), 1, "one cycle, one violation");
    let orm_population::Violation::Ring { kind, witness, .. } = &violations[0] else {
        panic!("expected a ring violation, got {:?}", violations[0]);
    };
    assert_eq!(*kind, orm_model::RingKind::Acyclic);
    assert!(witness.starts_with("cycle through 0 -> 1 -> 2 -> "), "{}", &witness[..40]);
    assert!(witness.ends_with(&format!("-> {LONG_CHAIN} -> 0")));
    assert_plan_agrees(&schema, &pop, CheckOptions::default());
}
