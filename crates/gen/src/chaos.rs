//! # Fault-injection harness for the reasoning service
//!
//! Drives a [`ReasonerService`] the way a hostile day in production
//! would: many concurrent editor sessions, each running a deterministic
//! edit/query script seasoned with injected faults —
//!
//! * **cancellations at metered step counts**
//!   ([`ExecCx::cancel_after_steps`] — deterministic, unlike wall-clock
//!   races),
//! * **deadline storms** (batches of requests whose deadlines are
//!   already hopeless or trip mid-proof),
//! * **starved budgets** (requests degraded to a handful of steps),
//! * **worker panics** (poisoned items inside the parallel fan-out, and
//!   poisoned sessions inside the service's lock-critical sections),
//! * **snapshot sabotage** (mid-write truncations and bit-flips of the
//!   persisted cache blob),
//! * **saturation-engine storms** (the graph-saturation engine re-checked
//!   under pre-cancelled, pre-expired and starved contexts, warm- and
//!   cold-cache, against its own sequential unlimited reference).
//!
//! After the storm, every *decided* verdict the service ever returned is
//! compared against a fresh sequential reference pass over the same
//! schema. The contract under every injected fault: **zero wrong
//! verdicts, zero hangs, zero cross-session poisoning** — a faulted
//! request may come back `Cancelled`, `DeadlineExceeded`,
//! `BudgetExhausted` or shed ([`Overloaded`]), but never with a verdict
//! the reference pass refutes, and never taking a sibling session down
//! with it.
//!
//! Mid-storm edits are *tautological* subtype additions (`T ⊑ T`): they
//! exercise the write lock, the TBox delta log and the cache's
//! revalidation machinery without changing any satisfiability verdict,
//! so the sequential reference stays sound for the whole run.
//!
//! Everything is deterministic in [`ChaosConfig::seed`] except thread
//! interleaving; the report's *floors* (at least one shed, downgrade,
//! isolated panic, …) are guaranteed by dedicated waves rather than by
//! racing, so the exit gates of the bench battery never flake.

use crate::GenConfig;
use orm_dl::par::fan_out_cx;
use orm_dl::{CacheStats, ExecCx, SaturationEngine, SaturationOutcome, SearchOutcome};
use orm_model::{ObjectTypeId, RoleId, Schema};
use orm_serve::{Overloaded, ReasonerService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// Markers carried by the panic payloads this harness injects on purpose.
const INJECTED_PANIC_MARKERS: [&str; 2] = ["chaos-poisoned", "poisoned item"];

/// Whether a panic message is one of the harness's own injected faults.
fn is_injected_panic(message: &str) -> bool {
    INJECTED_PANIC_MARKERS.iter().any(|marker| message.contains(marker))
}

/// Install, once per process, a panic hook that drops the panics this
/// harness injects and forwards every other panic to the hook installed
/// before it — a real failure still prints. The injected panics are still
/// caught and counted (`panics_isolated`); only their stderr noise goes.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !is_injected_panic(message) {
                previous(info);
            }
        }));
    });
}

/// Shape of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed; equal seeds give equal schemas and scripts.
    pub seed: u64,
    /// Concurrent sessions in the storm phase.
    pub sessions: usize,
    /// Script steps per session.
    pub steps_per_session: usize,
    /// Full step budget (also the reference pass's budget).
    pub budget: u64,
    /// Shape of the generated schema under test.
    pub gen: GenConfig,
    /// Admission thresholds for the primary service under storm.
    pub service: ServiceConfig,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC0A5,
            sessions: 64,
            steps_per_session: 6,
            budget: 100_000,
            gen: GenConfig::medium(0xC0A5),
            service: ServiceConfig {
                max_inflight: 8,
                soft_inflight: 3,
                full_steps: 100_000,
                degraded_steps: 500,
                min_deadline: Duration::from_micros(50),
            },
        }
    }
}

/// What the storm did and how the service held up.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Sessions driven concurrently.
    pub sessions: usize,
    /// Query attempts across all phases.
    pub queries: usize,
    /// Requests that came back with any outcome (not shed).
    pub served: usize,
    /// Requests refused at admission ([`Overloaded`]).
    pub shed: usize,
    /// Requests admitted at a degraded budget (from the services' meters).
    pub downgraded: u64,
    /// Served requests that ended in an honest interrupt
    /// (`Cancelled` / `DeadlineExceeded` / `BudgetExhausted`).
    pub interrupted: usize,
    /// Served requests that returned a definitive `Sat`/`Unsat`.
    pub decided: usize,
    /// Decided verdicts that contradict the sequential reference pass —
    /// the headline number; anything nonzero is a soundness bug.
    pub disagreements: usize,
    /// Tautological edits applied mid-storm.
    pub edits: usize,
    /// Panics injected and contained (fan-out items + poisoned
    /// sessions) without taking a sibling or the service down.
    pub panics_isolated: usize,
    /// Sabotaged snapshot blobs rejected by restore.
    pub corrupt_rejected: usize,
    /// Clean snapshot restores that succeeded.
    pub restores: usize,
    /// Entries installed by the clean restore.
    pub restored_entries: usize,
    /// Decided verdicts re-checked against the reference *after* the
    /// clean restore (all must agree; disagreements count above).
    pub post_restore_checked: usize,
    /// Saturation-engine checks run in the saturation storm phase.
    pub saturation_runs: usize,
    /// Saturation checks that ended in an honest interrupt
    /// (`Cancelled` / `DeadlineExceeded` / `BudgetExhausted`).
    pub saturation_interrupted: usize,
    /// Saturation verdicts contradicting the sequential unlimited
    /// saturation reference — like [`disagreements`](Self::disagreements),
    /// anything nonzero is a soundness bug.
    pub saturation_disagreements: usize,
    /// Cache counters merged across every service the harness touched.
    pub stats: CacheStats,
}

/// The deterministic reference: every type and role verdict from a
/// fresh, sequential, full-budget pass over its own translation.
struct Reference {
    types: Vec<(ObjectTypeId, SearchOutcome)>,
    roles: Vec<(RoleId, SearchOutcome)>,
}

impl Reference {
    fn compute(schema: &Schema, budget: u64) -> Reference {
        let t = orm_dl::translate(schema);
        let cx = ExecCx::with_steps(budget);
        Reference { types: t.type_sweep_cx(schema, &cx), roles: t.role_sweep_cx(schema, &cx) }
    }

    /// Does `got` contradict the reference? Only definitive verdicts on
    /// both sides can disagree; an undecided reference vouches for
    /// nothing.
    fn contradicts(expected: SearchOutcome, got: SearchOutcome) -> bool {
        matches!(
            (expected, got),
            (SearchOutcome::Sat, SearchOutcome::Unsat) | (SearchOutcome::Unsat, SearchOutcome::Sat)
        )
    }
}

/// Saturation-engine analogue of [`Reference::contradicts`]: only a
/// `Sat`/`Unsat` pair on the same target can disagree; an undecided
/// reference (`BudgetExhausted` on a graph past its node cap) vouches
/// for nothing.
/// One target of the saturation storm: a type or a role probe.
#[derive(Clone, Copy)]
enum SaturationProbe {
    Type(ObjectTypeId),
    Role(RoleId),
}

fn saturation_contradicts(expected: &SaturationOutcome, got: &SaturationOutcome) -> bool {
    matches!(
        (expected, got),
        (SaturationOutcome::Sat(_), SaturationOutcome::Unsat(_))
            | (SaturationOutcome::Unsat(_), SaturationOutcome::Sat(_))
    )
}

/// One session's verdict observations, judged after the storm.
struct Observation {
    type_verdicts: Vec<(usize, SearchOutcome)>,
    role_verdicts: Vec<(usize, SearchOutcome)>,
    served: usize,
    shed: usize,
    interrupted: usize,
    edits: usize,
}

fn run_session(
    service: &ReasonerService,
    reference: &Reference,
    budget: u64,
    mut rng: StdRng,
    steps: usize,
) -> Observation {
    let mut obs = Observation {
        type_verdicts: Vec::new(),
        role_verdicts: Vec::new(),
        served: 0,
        shed: 0,
        interrupted: 0,
        edits: 0,
    };
    for _ in 0..steps {
        let flavor = rng.gen_range(0u32..10);
        if flavor == 9 {
            // Tautological edit: exercises the write lock and the delta
            // machinery, provably changes no verdict.
            let (ty, _) = reference.types[rng.gen_range(0..reference.types.len())];
            service.edit(|e| e.add_subtype(ty, ty));
            obs.edits += 1;
            continue;
        }
        let cx = match flavor {
            // Injected cancellation at a metered step count: trips once
            // the *service-wide* meter advances a little further.
            6 => ExecCx::unlimited()
                .cancel_after_steps(service.meter().steps() + rng.gen_range(1..512)),
            // Deadline storm: hopeless or trips mid-proof.
            7 => ExecCx::unlimited().with_timeout(Duration::from_micros(rng.gen_range(0..400))),
            // Starved budget: an honest BudgetExhausted at worst.
            8 => ExecCx::with_steps(rng.gen_range(1..32)),
            _ => ExecCx::with_steps(budget),
        };
        let on_role = rng.gen_bool(0.4) && !reference.roles.is_empty();
        let outcome = if on_role {
            let i = rng.gen_range(0..reference.roles.len());
            service.check_role(reference.roles[i].0, &cx).map(|v| (i, true, v))
        } else {
            let i = rng.gen_range(0..reference.types.len());
            service.check_type(reference.types[i].0, &cx).map(|v| (i, false, v))
        };
        match outcome {
            Err(Overloaded) => obs.shed += 1,
            Ok((i, is_role, verdict)) => {
                obs.served += 1;
                match verdict {
                    SearchOutcome::Sat | SearchOutcome::Unsat => {
                        if is_role {
                            obs.role_verdicts.push((i, verdict));
                        } else {
                            obs.type_verdicts.push((i, verdict));
                        }
                    }
                    _ => obs.interrupted += 1,
                }
            }
        }
    }
    obs
}

/// Run the full battery against `cfg`'s schema-independent script. See
/// the [module docs](self) for the phases and the contract.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    silence_injected_panics();
    let schema = crate::generate(&cfg.gen);
    let reference = Reference::compute(&schema, cfg.budget);
    let mut report = ChaosReport { sessions: cfg.sessions, ..ChaosReport::default() };

    // -- Phase 1: concurrent storm over one service -----------------------
    let service = ReasonerService::new(&schema, cfg.service);
    let observations: Vec<Observation> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|i| {
                let rng = StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                let (service, reference) = (&service, &reference);
                scope.spawn(move || {
                    run_session(service, reference, cfg.budget, rng, cfg.steps_per_session)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread poisoned")).collect()
    });
    for obs in observations {
        report.queries += obs.served + obs.shed;
        report.served += obs.served;
        report.shed += obs.shed;
        report.interrupted += obs.interrupted;
        report.edits += obs.edits;
        for (i, got) in obs.type_verdicts {
            report.decided += 1;
            report.disagreements += usize::from(Reference::contradicts(reference.types[i].1, got));
        }
        for (i, got) in obs.role_verdicts {
            report.decided += 1;
            report.disagreements += usize::from(Reference::contradicts(reference.roles[i].1, got));
        }
    }

    // -- Phase 2: guaranteed admission floors -----------------------------
    // Thread interleaving on a small box may never organically exceed the
    // storm thresholds, so the shed/downgrade floors the exit gate
    // asserts are produced by dedicated drain/degrade services over the
    // same schema (their stats are merged into the report).
    let drain = ReasonerService::new(&schema, ServiceConfig { max_inflight: 0, ..cfg.service });
    let ty0 = reference.types[0].0;
    assert_eq!(drain.check_type(ty0, &ExecCx::with_steps(cfg.budget)), Err(Overloaded));
    report.queries += 1;
    report.shed += 1;

    let degrade = ReasonerService::new(
        &schema,
        ServiceConfig { soft_inflight: 0, degraded_steps: 1, ..cfg.service },
    );
    let degraded_verdict = degrade
        .check_type(ty0, &ExecCx::with_steps(cfg.budget))
        .expect("degraded request must be admitted");
    report.queries += 1;
    report.served += 1;
    match degraded_verdict {
        SearchOutcome::Sat | SearchOutcome::Unsat => {
            report.decided += 1;
            report.disagreements +=
                usize::from(Reference::contradicts(reference.types[0].1, degraded_verdict));
        }
        _ => report.interrupted += 1,
    }

    // -- Phase 3: worker panics stay contained ----------------------------
    // Poisoned items inside the parallel fan-out: siblings keep their
    // verdicts, the batch reports the panics, nothing propagates.
    let type_ids: Vec<usize> = (0..reference.types.len()).collect();
    let cx = ExecCx::with_steps(cfg.budget);
    let batch = fan_out_cx(&type_ids, 4, &cx, |_, &i| {
        assert!(i % 5 != 3, "chaos-poisoned item {i}");
        service.check_type(reference.types[i].0, &ExecCx::with_steps(cfg.budget))
    });
    let expected_poisoned = type_ids.iter().filter(|&&i| i % 5 == 3).count() as u64;
    assert_eq!(batch.stats.panicked, expected_poisoned, "panic isolation miscounted");
    assert_eq!(batch.interrupt, None, "injected panics cancelled the batch");
    for (i, result) in batch.results.iter().enumerate() {
        match result {
            None => assert!(i % 5 == 3, "sibling of a poisoned item lost its verdict"),
            Some(Ok(v @ (SearchOutcome::Sat | SearchOutcome::Unsat))) => {
                report.decided += 1;
                report.served += 1;
                report.queries += 1;
                report.disagreements +=
                    usize::from(Reference::contradicts(reference.types[i].1, *v));
            }
            Some(Ok(_)) => {
                report.interrupted += 1;
                report.served += 1;
                report.queries += 1;
            }
            Some(Err(Overloaded)) => {
                report.shed += 1;
                report.queries += 1;
            }
        }
    }
    report.panics_isolated += expected_poisoned as usize;

    // Poisoned sessions inside the service's lock-critical sections: a
    // panicking reader and a panicking writer must leave the service
    // serving correct verdicts to everyone else.
    for _ in 0..2 {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            service.with_translation(|_| panic!("chaos-poisoned read session"))
        }));
        assert!(caught.is_err());
        report.panics_isolated += 1;
    }
    let caught =
        catch_unwind(AssertUnwindSafe(|| service.edit(|_| panic!("chaos-poisoned edit session"))));
    assert!(caught.is_err());
    report.panics_isolated += 1;
    let after_poison = service
        .check_type(ty0, &ExecCx::with_steps(cfg.budget))
        .expect("service died with a poisoned session");
    report.queries += 1;
    report.served += 1;
    if matches!(after_poison, SearchOutcome::Sat | SearchOutcome::Unsat) {
        report.decided += 1;
        report.disagreements +=
            usize::from(Reference::contradicts(reference.types[0].1, after_poison));
    } else {
        report.interrupted += 1;
    }

    // -- Phase 4: snapshot sabotage ---------------------------------------
    // The storm service's TBox has grown by a nondeterministic
    // interleaving of session edits, so *its* snapshot could only ever
    // restore into a process that replayed the same log — exactly what
    // the provenance gate enforces. The persistence phases therefore use
    // a deterministically warmed service over the pristine schema.
    let persist = ReasonerService::new(&schema, cfg.service);
    let full = ExecCx::with_steps(cfg.budget);
    persist.type_sweep(&schema, &full).expect("idle service shed a sweep");
    persist.role_sweep(&schema, &full).expect("idle service shed a sweep");
    let blob = persist.snapshot();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xDEAD));
    let mut saboteurs: Vec<Vec<u8>> = vec![
        blob[..blob.len() / 3].to_vec(), // torn write: tail lost
        blob[..8].to_vec(),              // torn write: header only
        Vec::new(),                      // empty file
    ];
    for _ in 0..4 {
        let mut flipped = blob.clone();
        let pos = rng.gen_range(0..flipped.len());
        flipped[pos] ^= 1 << rng.gen_range(0..8);
        saboteurs.push(flipped);
    }
    let mut sabotage_stats = CacheStats::default();
    let mut sabotage_downgrades = 0;
    for bad in &saboteurs {
        let victim = ReasonerService::new(&schema, cfg.service);
        if victim.restore(bad).is_err() {
            report.corrupt_rejected += 1;
            // A rejected restore degrades to a cold start that still
            // answers correctly.
            let verdict = victim
                .check_type(ty0, &ExecCx::with_steps(cfg.budget))
                .expect("cold victim refused a query");
            if matches!(verdict, SearchOutcome::Sat | SearchOutcome::Unsat) {
                report.decided += 1;
                report.disagreements +=
                    usize::from(Reference::contradicts(reference.types[0].1, verdict));
            }
            report.queries += 1;
            report.served += 1;
        }
        // (A flip the checksum cannot see — e.g. inside ignored padding —
        // does not exist in this format; but if a flip happened to keep
        // the blob valid *and* installable, decided verdicts are still
        // checked below by the clean-restore sweep.)
        sabotage_stats = sabotage_stats.merge(victim.stats());
        sabotage_downgrades += victim.meter().downgrades();
    }

    // -- Phase 5: clean warm restart --------------------------------------
    let restarted = ReasonerService::new(&schema, cfg.service);
    let restored = restarted.restore(&blob).expect("clean snapshot rejected");
    report.restores += 1;
    report.restored_entries = restored.entries;
    for (i, (ty, expected)) in reference.types.iter().enumerate() {
        let verdict = restarted
            .check_type(*ty, &ExecCx::with_steps(cfg.budget))
            .expect("restored service refused a query");
        report.queries += 1;
        report.served += 1;
        if matches!(verdict, SearchOutcome::Sat | SearchOutcome::Unsat) {
            report.decided += 1;
            report.post_restore_checked += 1;
            report.disagreements +=
                usize::from(Reference::contradicts(reference.types[i].1, verdict));
        } else {
            report.interrupted += 1;
            assert_eq!(
                *expected,
                SearchOutcome::BudgetExhausted,
                "restored service starved where the reference decided"
            );
        }
    }
    // Additions on top of the restored state revalidate against the
    // delta log instead of clearing — the warm restart survives the
    // first post-restart edit.
    restarted.edit(|e| e.add_subtype(ty0, ty0));
    restarted
        .check_type(ty0, &ExecCx::with_steps(cfg.budget))
        .expect("restored service refused a post-edit query");
    report.queries += 1;
    report.served += 1;
    assert_eq!(
        restarted.stats().invalidations,
        0,
        "a post-restore addition cleared the restored shards"
    );

    // -- Phase 6: saturation-engine storm ---------------------------------
    // The third engine gets its own storm over the same schema. The DL
    // reference above is useless here — `generate` schemas carry ring,
    // value and frequency constructs the translation reports as unmapped —
    // so decided verdicts are judged against a fresh sequential unlimited
    // saturation pass instead. Two storm passes: one on the reference
    // engine itself (every memo hit must reproduce the recorded verdict)
    // and one on a cold engine (every verdict recomputed). All injected
    // interrupts are metered or pre-expired, never wall-clock races, so
    // the storm's counters are exactly reproducible from the seed.
    let sat_ref_engine = SaturationEngine::new(&schema);
    let unlimited = ExecCx::unlimited();
    let sat_ref_types = sat_ref_engine.type_sweep(&unlimited);
    let sat_ref_roles = sat_ref_engine.role_sweep(&unlimited);
    let cold = SaturationEngine::new(&schema);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5A70));
    for (pass, engine) in [&sat_ref_engine, &cold].into_iter().enumerate() {
        let typed = sat_ref_types.iter().map(|(ty, e)| (SaturationProbe::Type(*ty), e));
        let roled = sat_ref_roles.iter().map(|(r, e)| (SaturationProbe::Role(*r), e));
        for (i, (probe, expected)) in typed.chain(roled).enumerate() {
            let flavor = (i + pass) % 4;
            let cx = match flavor {
                // Already-cancelled context: must interrupt before any
                // memo probe or verdict.
                0 => {
                    let cx = ExecCx::unlimited();
                    cx.cancel();
                    cx
                }
                // Pre-expired deadline: ditto, deterministically.
                1 => ExecCx::unlimited().with_timeout(Duration::ZERO),
                // Starved metered budget: an honest BudgetExhausted at
                // worst.
                2 => ExecCx::with_steps(rng.gen_range(1..24)),
                _ => ExecCx::unlimited(),
            };
            let got = match probe {
                SaturationProbe::Type(ty) => engine.check_type(ty, &cx),
                SaturationProbe::Role(r) => engine.check_role(r, &cx),
            };
            report.saturation_runs += 1;
            match flavor {
                0 => assert!(
                    matches!(got, SaturationOutcome::Cancelled),
                    "pre-cancelled saturation check returned {got:?}"
                ),
                1 => assert!(
                    matches!(got, SaturationOutcome::DeadlineExceeded),
                    "pre-expired saturation check returned {got:?}"
                ),
                _ => {}
            }
            match &got {
                SaturationOutcome::Sat(_) | SaturationOutcome::Unsat(_) => {
                    report.saturation_disagreements +=
                        usize::from(saturation_contradicts(expected, &got));
                }
                _ => report.saturation_interrupted += 1,
            }
        }
    }

    // Merge every service's counters into the report.
    report.stats = service
        .stats()
        .merge(drain.stats())
        .merge(degrade.stats())
        .merge(persist.stats())
        .merge(sabotage_stats)
        .merge(restarted.stats());
    report.downgraded = [&service, &drain, &degrade, &persist, &restarted]
        .iter()
        .map(|s| s.meter().downgrades())
        .sum::<u64>()
        + sabotage_downgrades;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_injected_panics_are_silenced() {
        assert!(is_injected_panic("chaos-poisoned item 3"));
        assert!(is_injected_panic("poisoned item 13"));
        assert!(!is_injected_panic("index out of bounds"));
    }

    /// The full battery at a smaller scale than the bench runs it: every
    /// injected fault class fires, and the contract holds.
    #[test]
    fn chaos_battery_holds_the_contract() {
        let cfg = ChaosConfig {
            sessions: 8,
            steps_per_session: 3,
            gen: GenConfig::small(7),
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg);
        assert_eq!(report.disagreements, 0, "wrong verdict under fault injection: {report:?}");
        assert_eq!(
            report.saturation_disagreements, 0,
            "wrong saturation verdict under fault injection: {report:?}"
        );
        assert!(report.saturation_runs >= 1, "the saturation storm never ran");
        assert!(report.saturation_interrupted >= 1, "no saturation check was interrupted");
        assert!(report.shed >= 1, "no request was ever shed");
        assert!(report.downgraded >= 1, "no request was ever downgraded");
        assert!(report.panics_isolated >= 1, "no panic was injected");
        assert!(report.corrupt_rejected >= 1, "no sabotage was rejected");
        assert_eq!(report.restores, 1);
        assert!(report.restored_entries >= 1, "storm left nothing to snapshot");
        assert!(report.post_restore_checked >= 1);
        assert_eq!(report.stats.corrupt_rejected as usize, report.corrupt_rejected);
        assert!(report.stats.restores >= 1);
        assert!(report.stats.snapshots >= 1);
        assert_eq!(report.queries, report.served + report.shed);
    }

    /// Determinism in everything the exit gate asserts: two runs with
    /// the same seed produce the same floors (thread interleaving may
    /// shift organic shed counts, so only the guaranteed floors and the
    /// single-threaded phases are compared exactly).
    #[test]
    fn chaos_floors_are_deterministic() {
        let cfg = ChaosConfig {
            sessions: 2,
            steps_per_session: 2,
            budget: 30_000,
            gen: GenConfig::small(11),
            ..ChaosConfig::default()
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.disagreements, b.disagreements);
        assert_eq!(a.panics_isolated, b.panics_isolated);
        assert_eq!(a.corrupt_rejected, b.corrupt_rejected);
        assert_eq!(a.restored_entries, b.restored_entries);
        assert_eq!(a.saturation_runs, b.saturation_runs);
        assert_eq!(a.saturation_interrupted, b.saturation_interrupted);
        assert_eq!(a.saturation_disagreements, b.saturation_disagreements);
    }
}
