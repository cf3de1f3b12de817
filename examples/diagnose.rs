//! Diagnosis walkthrough: from a bare "unsatisfiable" verdict to the
//! named, verbalized constraints that cause it — the paper's interactive
//! scenario with the explanation pipeline of `docs/EXPLANATIONS.md`.
//!
//! Run with `cargo run -p orm-examples --example diagnose`.

use orm_dl::ExecCx;
use orm_examples::banner;
use orm_model::SchemaBuilder;
use orm_reasoner::{diagnose_cx, diagnose_with_cx, InteractiveSession};

fn main() {
    let cx = ExecCx::with_steps(500_000);
    banner("Fig. 1: the PhD student paradox, diagnosed");

    let mut b = SchemaBuilder::new("university");
    let person = b.entity_type("Person").expect("fresh name");
    let student = b.entity_type("Student").expect("fresh name");
    let employee = b.entity_type("Employee").expect("fresh name");
    let phd = b.entity_type("PhdStudent").expect("fresh name");
    b.subtype(student, person).expect("valid link");
    b.subtype(employee, person).expect("valid link");
    b.subtype(phd, student).expect("valid link");
    b.subtype(phd, employee).expect("valid link");
    b.exclusive_types([student, employee]).expect("valid constraint");
    let schema = b.finish();

    // One call: sweep, enumerate the minimal-unsat-core family per
    // doomed element, map every core to ORM constraints, verbalize, and
    // rank the verified "drop one of: …" repairs.
    let diagnoses = diagnose_cx(&schema, &cx);
    assert_eq!(diagnoses.len(), 1, "exactly PhdStudent is doomed");
    for d in &diagnoses {
        println!("{d}");
    }

    banner("Two independent contradictions, one element");

    // Merge Fig. 1 with a second exclusion cycle over the same PhD type:
    // the diagnosis now carries a two-core family, and every ranked
    // repair breaks BOTH contradictions at once (each is re-proved to
    // restore satisfiability, newest culprit edit ranked first).
    let mut b = SchemaBuilder::new("university2");
    let person = b.entity_type("Person").expect("fresh name");
    let student = b.entity_type("Student").expect("fresh name");
    let employee = b.entity_type("Employee").expect("fresh name");
    let tenured = b.entity_type("Tenured").expect("fresh name");
    let temp = b.entity_type("Temporary").expect("fresh name");
    let phd = b.entity_type("PhdStudent").expect("fresh name");
    for sup in [student, employee, tenured, temp] {
        b.subtype(sup, person).expect("valid link");
    }
    for sup in [student, employee, tenured, temp] {
        b.subtype(phd, sup).expect("valid link");
    }
    b.exclusive_types([student, employee]).expect("valid constraint");
    b.exclusive_types([tenured, temp]).expect("valid constraint");
    let schema = b.finish();

    let diagnoses = diagnose_cx(&schema, &cx);
    assert_eq!(diagnoses.len(), 1, "exactly PhdStudent is doomed");
    let d = &diagnoses[0];
    assert_eq!(d.family.len(), 2, "both contradictions enumerated");
    assert!(d.family.complete, "provably all of them");
    assert!(d.repairs.iter().all(|r| r.set.verified), "every repair re-proved Sat");
    println!("{d}");

    banner("Fig. 4a: a doomed role, diagnosed mid-session");

    // The same pipeline over a live editing session: the modeler adds the
    // two clashing constraints interactively, and the warm shards carry
    // both the verdicts and the cores across edits.
    let mut b = SchemaBuilder::new("fig4a");
    let a = b.entity_type("A").expect("fresh name");
    let x = b.entity_type("X").expect("fresh name");
    let y = b.entity_type("Y").expect("fresh name");
    let f1 = b.fact_type("f1", a, x).expect("fresh name");
    let f2 = b.fact_type("f2", a, y).expect("fresh name");
    let r1 = b.schema().fact_type(f1).first();
    let r3 = b.schema().fact_type(f2).first();
    let schema = b.finish();

    let mut session = InteractiveSession::new(&schema);
    assert!(diagnose_with_cx(&schema, session.translation(), &cx).is_empty());
    println!("before the edits: nothing to diagnose");

    session.edit().add_mandatory(a, &[r1]);
    session.edit().add_role_exclusion(r1, r3);
    for d in diagnose_with_cx(&schema, session.translation(), &cx) {
        println!("{d}");
    }

    // The sharded cache kept every verdict it could across the edits and
    // stored the cores beside them — the stats line is the `Display`
    // impl, not hand-formatting.
    println!("\ncache after the session: {}", session.cache_stats());

    println!("\nDone. docs/EXPLANATIONS.md documents the pipeline end to end.");
}
