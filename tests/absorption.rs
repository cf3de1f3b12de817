//! The absorbed trail engine: verdicts, decisiveness, stack use and
//! metering.
//!
//! * **Differential.** Random TBoxes mixing every absorbable GCI shape
//!   (`A ⊑ D`, `A ⊓ B ⊑ ⊥`, `∃R.⊤ ⊑ D`, `⊤ ⊑ ≤n R`,
//!   `∃R.⊤ ⊓ ∃S.⊤ ⊑ ⊥`) plus an internalized residue get the same
//!   definitive verdicts from the absorbed engine as from the fully
//!   internalized [`orm_dl::classic`] baseline.
//! * **Decisiveness.** Clean generated schemas decide every type inside a
//!   2,000-step budget, the budget the end-to-end benchmark gives a proof.
//! * **No abort.** A default [`ReasonerService`] answers every type of
//!   clean generated schemas with an unlimited context on a thread with a
//!   2 MiB stack: the search keeps its choice points on the heap.
//! * **Honest metering.** One proof never meters more steps than its
//!   budget allows.

use orm_dl::concept::{Concept, RoleExpr};
use orm_dl::exec::CHECK_INTERVAL;
use orm_dl::tbox::TBox;
use orm_dl::{satisfiable_cx, DlOutcome, ExecCx, SearchOutcome};
use orm_gen::{generate_clean, GenConfig};
use orm_model::Schema;
use orm_serve::{ReasonerService, ServiceConfig};
use proptest::prelude::*;

const ATOMS: u64 = 4;
const ROLES: u64 = 2;

/// A small concept from a random code: what the right-hand sides of the
/// generated GCIs are made of.
fn small_concept(code: u64) -> Concept {
    let atom = Concept::Atomic((code / 8 % ATOMS) as u32);
    let other = Concept::Atomic((code / 32 % ATOMS) as u32);
    let role = role_of(code / 128);
    match code % 8 {
        0 => atom,
        1 => Concept::not(atom),
        2 => Concept::or([atom, other]),
        3 => Concept::Exists(role, Box::new(atom)),
        4 => Concept::ForAll(role, Box::new(atom)),
        5 => Concept::AtMost(1, role),
        6 => Concept::AtLeast(2, role),
        _ => Concept::and([atom, Concept::some(role)]),
    }
}

fn role_of(code: u64) -> RoleExpr {
    let name = (code % ROLES) as u32;
    if (code / ROLES).is_multiple_of(2) {
        RoleExpr::direct(name)
    } else {
        RoleExpr::inv_of(name)
    }
}

/// A TBox over `ATOMS` atoms and `ROLES` roles, one GCI per code, cycling
/// through the absorbable shapes, a residue shape and role axioms.
fn random_tbox(codes: &[u64]) -> TBox {
    let mut t = TBox::new();
    for a in 0..ATOMS {
        t.atom(format!("A{a}"));
    }
    for r in 0..ROLES {
        t.role(format!("R{r}"));
    }
    for &code in codes {
        let (shape, rest) = (code % 8, code / 8);
        let atom = |k: u64| Concept::Atomic((k % ATOMS) as u32);
        match shape {
            0 | 1 => {
                t.gci(atom(rest), small_concept(rest / ATOMS));
            }
            2 => {
                t.gci(Concept::and([atom(rest), atom(rest / ATOMS)]), Concept::Bottom);
            }
            3 => {
                t.gci(Concept::some(role_of(rest)), small_concept(rest / 4));
            }
            4 => {
                t.gci(Concept::Top, Concept::AtMost((rest % 3) as u32, role_of(rest / 3)));
            }
            5 => {
                let (r, s) = (role_of(rest), role_of(rest / 4));
                t.gci(Concept::and([Concept::some(r), Concept::some(s)]), Concept::Bottom);
            }
            6 => {
                // Residue: stays internalized in both engines.
                t.gci(Concept::Top, Concept::or([atom(rest), small_concept(rest / ATOMS)]));
            }
            _ => {
                if rest.is_multiple_of(2) {
                    t.role_inclusion(role_of(rest / 2), role_of(rest / 8));
                } else {
                    t.disjoint(role_of(rest / 2), role_of(rest / 8));
                }
            }
        }
    }
    t
}

fn queries() -> Vec<Concept> {
    let mut out: Vec<Concept> = (0..ATOMS as u32).map(Concept::Atomic).collect();
    for r in 0..ROLES as u32 {
        out.push(Concept::some(RoleExpr::direct(r)));
        out.push(Concept::some(RoleExpr::inv_of(r)));
    }
    out.push(Concept::and([Concept::Atomic(0), Concept::Atomic(1)]));
    out
}

const DIFF_BUDGET: u64 = 20_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Absorption changes how the engine reaches a verdict, never the
    /// verdict: a `ResourceLimit` on either side is inconclusive, every
    /// definitive pair must agree.
    #[test]
    fn absorbed_and_classic_engines_agree(codes in prop::collection::vec(any::<u64>(), 1..7)) {
        let tbox = random_tbox(&codes);
        for query in queries() {
            let absorbed = DlOutcome::from(satisfiable_cx(&tbox, &query, &ExecCx::with_steps(DIFF_BUDGET)));
            let classic = orm_dl::classic::satisfiable(&tbox, &query, DIFF_BUDGET);
            if absorbed != DlOutcome::ResourceLimit && classic != DlOutcome::ResourceLimit {
                prop_assert_eq!(absorbed, classic, "engines disagree on {} (codes {:?})", query, codes);
            }
        }
    }
}

/// Every GCI shape the random generator emits is absorbed, except the one
/// it means to leave as residue.
#[test]
fn generator_exercises_every_rule_kind() {
    let codes: Vec<u64> = (0..8).map(|shape| shape + 8).collect();
    let shapes = random_tbox(&codes).absorbed().shapes();
    assert!(shapes.unfolded >= 1 && shapes.disjoint >= 1 && shapes.domain >= 3, "{shapes:?}");
    assert_eq!(shapes.residue, 1, "{shapes:?}");
}

/// A nine-type, nine-fact clean schema whose proofs used to starve at
/// 20,000 steps and overflow a test thread's stack.
fn seed_18() -> Schema {
    generate_clean(&GenConfig { n_types: 9, n_facts: 9, ..GenConfig::medium(18) })
}

/// A clean schema of 4–16 types, as in the end-to-end benchmark's corpus.
fn clean(seed: u64) -> Schema {
    let n = 4 + (seed % 13) as usize;
    generate_clean(&GenConfig { n_types: n, n_facts: n, ..GenConfig::medium(seed) })
}

/// The translation emits only absorbable shapes: nothing is internalized.
#[test]
fn orm_translations_leave_no_residue() {
    for seed in 0..40 {
        let t = orm_dl::translate(&clean(seed));
        assert_eq!(t.tbox.absorbed().shapes().residue, 0, "seed {seed}");
    }
}

/// Forty clean schemas (394 type proofs) decide every type at 2,000
/// steps, and so do three clean 100-type schemas.
#[test]
fn clean_schemas_decide_within_the_benchmark_budget() {
    let schemas = (0..40).map(clean).chain((0..3).map(|seed| {
        generate_clean(&GenConfig { n_types: 100, n_facts: 100, ..GenConfig::medium(seed) })
    }));
    for schema in schemas {
        let t = orm_dl::translate(&schema);
        for (ty, verdict) in t.type_sweep_cx(&schema, &ExecCx::with_steps(2_000)) {
            assert_eq!(
                verdict,
                SearchOutcome::Sat,
                "{}: clean type {} undecided",
                schema.name(),
                schema.object_type(ty).name()
            );
        }
    }
}

/// The seed-18 schema decides all nine types at 20,000 steps on a plain
/// test thread (it used to overflow the stack there).
#[test]
fn seed_18_decides_on_a_test_thread() {
    let schema = seed_18();
    let t = orm_dl::translate(&schema);
    for (ty, _) in schema.object_types() {
        let verdict = t.type_satisfiable_cx(ty, &ExecCx::with_steps(20_000));
        assert_eq!(verdict, SearchOutcome::Sat, "type {}", schema.object_type(ty).name());
    }
}

/// Check every type of `schema` through a default service with an
/// unlimited context, on a thread with a 2 MiB stack.
fn check_all_types_on_a_small_stack(schema: Schema) -> Vec<SearchOutcome> {
    std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(move || {
            let service = ReasonerService::new(&schema, ServiceConfig::default());
            schema
                .object_types()
                .map(|(ty, _)| service.check_type(ty, &ExecCx::unlimited()).expect("admitted"))
                .collect()
        })
        .expect("spawn")
        .join()
        .expect("the service aborted")
}

#[test]
fn seed_18_service_check_does_not_abort() {
    let verdicts = check_all_types_on_a_small_stack(seed_18());
    assert!(verdicts.iter().all(|v| *v == SearchOutcome::Sat), "{verdicts:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A default service never aborts on a clean schema, and decides it.
    #[test]
    fn service_checks_never_abort(seed in any::<u64>()) {
        let verdicts = check_all_types_on_a_small_stack(clean(seed));
        prop_assert!(verdicts.iter().all(|v| *v == SearchOutcome::Sat), "seed {}: {:?}", seed, verdicts);
    }
}

/// The pigeonhole principle PHP(n + 1, n) over one node: `n + 1`
/// residual disjunctions (each pigeon sits in some hole) against told
/// disjointness (no hole holds two pigeons). Unsatisfiable, and
/// exponentially hard for a tableau — a proof that runs out of budget
/// with many choice points open.
fn pigeonhole(n: u32) -> TBox {
    let mut t = TBox::new();
    let sits = |t: &mut TBox, p: u32, h: u32| Concept::Atomic(t.atom(format!("P{p}H{h}")));
    for p in 0..=n {
        let holes: Vec<Concept> = (0..n).map(|h| sits(&mut t, p, h)).collect();
        t.gci(Concept::Top, Concept::or(holes));
    }
    for h in 0..n {
        for p in 0..=n {
            for q in p + 1..=n {
                let pair = Concept::and([sits(&mut t, p, h), sits(&mut t, q, h)]);
                t.gci(pair, Concept::Bottom);
            }
        }
    }
    t
}

/// Only granted steps are metered: the refusals met while the search
/// unwinds after the budget ran out cost nothing.
#[test]
fn one_proof_never_meters_past_its_budget() {
    let tbox = pigeonhole(7);
    for budget in [1, 10, 100, 1_000, 5_000] {
        let cx = ExecCx::with_steps(budget);
        assert_eq!(satisfiable_cx(&tbox, &Concept::Top, &cx), SearchOutcome::BudgetExhausted);
        let metered = cx.meter().steps();
        assert!(metered <= budget + CHECK_INTERVAL, "{metered} steps metered on a {budget} budget");
    }
    // A decided proof meters what it spent, under any budget.
    let small = pigeonhole(3);
    let cx = ExecCx::with_steps(1_000_000);
    assert_eq!(satisfiable_cx(&small, &Concept::Top, &cx), SearchOutcome::Unsat);
    assert!(cx.meter().steps() > 0);
}
