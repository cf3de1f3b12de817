//! Patterns vs complete reasoning (paper §4's discussion).
//!
//! Runs three engines over the same schemas:
//!
//! 1. the **patterns** (fast, incomplete),
//! 2. the **DL tableau** over the [JF05]-style translation (complete on the
//!    mappable fragment, exponential),
//! 3. the **bounded model finder** (complete within bounds, covers every
//!    constraint including rings/values).
//!
//! and prints agreement plus wall-clock cost — the "both approaches
//! complement each other" conclusion, measured.
//!
//! Run with `cargo run --release -p orm-examples --example complete_vs_patterns`.

use orm_core::{fixtures, validate};
use orm_dl::{translate, ExecCx, SearchOutcome};
use orm_gen::{faults::FaultKind, generate_clean, GenConfig};
use orm_reasoner::{concept_satisfiability, strong_satisfiability, Bounds, Outcome};
use std::time::Instant;

fn main() {
    println!(
        "{:<28} {:>9} {:>11} {:>9} {:>11} {:>9} {:>11}",
        "schema", "patterns", "time", "DL", "time", "finder", "time"
    );

    // The paper's figures first.
    for fixture in fixtures::all() {
        run_row(fixture.id, &fixture.schema);
    }

    // Then synthetic clean/faulty pairs of growing size.
    for size in [8usize, 12, 16] {
        let clean = generate_clean(&GenConfig::sized(1, size));
        run_row(&format!("clean(size≈{size})"), &clean);
        let faulty = orm_gen::faults::inject(&clean, FaultKind::P7, 0);
        run_row(&format!("faulty(size≈{size})"), &faulty);
    }

    println!(
        "\nReading: `unsat` means some role/type is provably unpopulatable; `unsat≤b` \
         is the bounded finder's refutation within its domain bounds (genuine for the \
         figure-sized contradictions, a bound artifact on larger random schemas); \
         `sat*` marks DL verdicts on schemas with constructs outside the DL fragment \
         (rings, values, strict subtyping — the DLR gap of paper footnote 10); \
         `budget` means the engine's resource limit struck first. The growth of the \
         DL/finder columns against the flat patterns column is the paper's §4 claim."
    );
}

fn run_row(name: &str, schema: &orm_model::Schema) {
    let t0 = Instant::now();
    let report = validate(schema);
    let patterns_verdict = if report.has_unsat() { "unsat" } else { "sat" };
    let patterns_time = t0.elapsed();

    let t0 = Instant::now();
    let translation = translate(schema);
    let mut dl_unsat = false;
    let mut dl_budget = false;
    let cx = ExecCx::with_steps(200_000);
    let verdicts = translation.role_sweep_cx(schema, &cx).into_iter().map(|(_, v)| v);
    for verdict in
        verdicts.chain(translation.type_sweep_cx(schema, &cx).into_iter().map(|(_, v)| v))
    {
        match verdict {
            SearchOutcome::Unsat => dl_unsat = true,
            SearchOutcome::Sat => {}
            _ => dl_budget = true,
        }
    }
    let dl_verdict = if dl_unsat {
        "unsat"
    } else if dl_budget {
        "budget"
    } else if translation.unmapped.is_empty() {
        "sat"
    } else {
        "sat*"
    };
    let dl_time = t0.elapsed();

    // The paper: strong satisfiability when the schema has roles, concept
    // satisfiability otherwise.
    let t0 = Instant::now();
    let outcome = if schema.fact_type_count() > 0 {
        strong_satisfiability(schema, Bounds::default())
    } else {
        concept_satisfiability(schema, Bounds::default())
    };
    let finder_verdict = match outcome {
        Outcome::Satisfiable(_) => "sat",
        Outcome::UnsatWithinBounds => "unsat≤b",
        Outcome::BudgetExhausted => "budget",
    };
    let finder_time = t0.elapsed();

    println!(
        "{:<28} {:>9} {:>11.2?} {:>9} {:>11.2?} {:>9} {:>11.2?}",
        name, patterns_verdict, patterns_time, dl_verdict, dl_time, finder_verdict, finder_time
    );
}
