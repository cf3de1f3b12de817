//! Regenerates every table and figure of the paper in one run; the output
//! is the source for EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p orm-bench --bin experiments`.
//!
//! `experiments tableau [out.json] [budget]` runs only the tableau-engine
//! comparison (trail-based vs classic clone-based, the cached
//! classification sweep, the parallel battery and the incremental-edit
//! workload) and **appends** the measurements as a new entry in
//! `BENCH_tableau.json`'s `runs` array — the perf trajectory grows run
//! over run rather than being overwritten (a legacy single-object file
//! is migrated into `runs[0]` on the first append). The optional third
//! argument reduces the per-query rule budget (the CI smoke setting);
//! trajectory runs use the default. The file format and the acceptance
//! thresholds are documented in `docs/BENCH.md`.

use orm_core::ring::euler::implies;
use orm_core::ring::table::{all_compatible, compatible, maximal_compatible, render_table};
use orm_core::{fixtures, validate, CheckCode, Validator, ValidatorSettings};
use orm_dl::translate;
use orm_gen::{faults, generate_clean, GenConfig};
use orm_model::{RingKind, RingKinds};
use orm_reasoner::{concept_satisfiability, strong_satisfiability, Bounds, Outcome};
use std::collections::BTreeSet;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("tableau") {
        let out = args.get(2).map(String::as_str).unwrap_or("BENCH_tableau.json");
        // Optional third argument: the rule budget per query. CI smoke
        // runs pass a reduced budget; the default is the ample
        // `tableau_scenarios::BUDGET` every recorded trajectory run uses.
        let budget = args
            .get(3)
            .map(|s| s.parse().expect("budget must be an integer"))
            .unwrap_or(orm_bench::tableau_scenarios::BUDGET);
        tableau_bench(out, budget);
        return;
    }

    heading("FIG1-FIG14 — the paper's worked examples");
    figures();

    heading("FIG9 — set-comparison implications");
    fig9();

    heading("FIG12 — ring-constraint Euler diagram, executable");
    fig12();

    heading("TAB1 — compatible ring-constraint combinations");
    tab1();

    heading("SEC3 — unsat-relevance of formation rules and RIDL rules");
    sec3();

    heading("FIG15 — validator settings (DogmaModeler toggles)");
    fig15();

    heading("PERF — patterns vs complete reasoning (paper §4)");
    perf();

    heading("CCFORM — interactive-detection case study (paper §4)");
    println!(
        "Simulated by `cargo run -p orm-examples --example customer_complaints`: three\n\
         lawyer-style mistakes are introduced and caught interactively (Patterns 1, 3/6\n\
         and 4/7), then fixed, mirroring the paper's reported experience."
    );

    heading("BEYOND — incompleteness instances found by cross-validation");
    beyond();
}

/// The first recorded `trail_ms` of `scenario` in an existing bench file
/// (i.e. the value from the oldest run — the PR 1 baseline once the file
/// has history). The file format is ours, so a substring scan suffices.
fn first_trail_ms(content: &str, scenario: &str) -> Option<f64> {
    let pos = content.find(&format!("\"name\": \"{scenario}\""))?;
    let rest = &content[pos..];
    let tpos = rest.find("\"trail_ms\": ")?;
    let rest = &rest[tpos + "\"trail_ms\": ".len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Splice `new_run` into `previous` (the current bench file contents, if
/// any), producing the whole new file: a `runs` array that grows by one
/// entry per invocation. A legacy single-object file (the PR 1 format)
/// becomes `runs[0]`.
fn append_run(previous: Option<&str>, new_run: &str) -> String {
    match previous {
        Some(old) if old.contains("\"runs\"") => {
            let cut = old.rfind(']').expect("runs array closes");
            let head = old[..cut].trim_end();
            format!("{head},\n{new_run}\n  ]\n}}\n")
        }
        Some(old) if !old.trim().is_empty() => {
            let legacy = old.trim();
            format!(
                "{{\n  \"bench\": \"tableau_hotpath\",\n  \"runs\": [\n{legacy},\n{new_run}\n  ]\n}}\n"
            )
        }
        _ => format!("{{\n  \"bench\": \"tableau_hotpath\",\n  \"runs\": [\n{new_run}\n  ]\n}}\n"),
    }
}

/// Best-of-`reps` wall-clock comparison of the two tableau engines on the
/// hotpath scenarios plus the cached classification sweep, **appended**
/// as a new run to the JSON perf trajectory (see `docs/BENCH.md`).
///
/// Acceptance bars recorded per run: ≥5× trail-vs-classic on the
/// `⊔`-heavy family, ≥5× cached-vs-uncached on the classification sweep,
/// ≥5× delta-aware-vs-wholesale on the incremental-edit workload, and —
/// once the file has history — the merge-heavy trail times against the
/// oldest run's (the backjumping gain; threshold 2×).
fn tableau_bench(out_path: &str, budget: u64) {
    use orm_bench::tableau_scenarios::{
        all, classify_battery, classify_sweep, explain_battery, incremental_edit,
    };

    fn best_secs<F: FnMut() -> orm_dl::DlOutcome>(reps: u32, mut f: F) -> (f64, orm_dl::DlOutcome) {
        let mut best = f64::MAX;
        let mut verdict = orm_dl::DlOutcome::ResourceLimit;
        for _ in 0..reps {
            let t0 = Instant::now();
            verdict = f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, verdict)
    }

    let previous = std::fs::read_to_string(out_path).ok();

    heading("TABLEAU — trail-based engine vs classic clone-based baseline");
    println!(
        "{:<18} {:>12} {:>12} {:>9}  verdicts agree",
        "scenario", "classic_ms", "trail_ms", "speedup"
    );
    let mut rows = String::new();
    let mut or_heavy_min_speedup = f64::MAX;
    let mut merge_gain_min: Option<f64> = None;
    let mut all_agree = true;
    // Every engine call below runs under a context granting each proof
    // `budget` steps.
    let cx = orm_dl::ExecCx::with_steps(budget);
    for s in all() {
        let (trail, v_new) = best_secs(5, || orm_dl::satisfiable_cx(&s.tbox, &s.query, &cx).into());
        let (classic, v_old) =
            best_secs(5, || orm_dl::classic::satisfiable(&s.tbox, &s.query, budget));
        let speedup = classic / trail.max(1e-9);
        // Budget accounting differs between the engines, so on *reduced*
        // budgets (the CI smoke argument) a one-sided `ResourceLimit` is
        // inconclusive rather than a disagreement — the same rule the
        // differential suites apply. At the default ample budget the
        // scenarios are sized to finish, so an engine hitting the limit
        // there *is* a regression and the strict check stays in force.
        let reduced_budget = budget < orm_bench::tableau_scenarios::BUDGET;
        let agree = v_new == v_old
            || (reduced_budget
                && (v_new == orm_dl::DlOutcome::ResourceLimit
                    || v_old == orm_dl::DlOutcome::ResourceLimit));
        all_agree &= agree;
        if s.kind == "or_fanout" {
            or_heavy_min_speedup = or_heavy_min_speedup.min(speedup);
        }
        if s.kind == "merge_heavy" {
            if let Some(baseline) = previous.as_deref().and_then(|c| first_trail_ms(c, &s.name)) {
                let gain = baseline / (trail * 1e3).max(1e-9);
                merge_gain_min = Some(merge_gain_min.map_or(gain, |g: f64| g.min(gain)));
            }
        }
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>8.1}x  {}",
            s.name,
            classic * 1e3,
            trail * 1e3,
            speedup,
            if agree { "yes" } else { "NO" }
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "        {{\"name\": \"{}\", \"kind\": \"{}\", \"classic_ms\": {:.4}, \
             \"trail_ms\": {:.4}, \"speedup\": {:.2}, \"verdict\": \"{:?}\", \
             \"verdicts_agree\": {}}}",
            s.name,
            s.kind,
            classic * 1e3,
            trail * 1e3,
            speedup,
            v_new,
            agree
        ));
    }

    // Classification sweep: the same query battery answered by re-proving
    // everything vs through one SatCache.
    let sweep = classify_sweep(12, 8);
    let run_uncached = || {
        let mut verdicts = Vec::new();
        for _ in 0..sweep.passes {
            for q in &sweep.queries {
                verdicts.push(orm_dl::satisfiable_cx(&sweep.tbox, q, &cx));
            }
        }
        verdicts
    };
    let run_cached = || {
        let mut cache = orm_dl::SatCache::new();
        let mut verdicts = Vec::new();
        for _ in 0..sweep.passes {
            for q in &sweep.queries {
                verdicts.push(cache.satisfiable_cx(&sweep.tbox, q, &cx));
            }
        }
        (verdicts, cache.stats())
    };
    let mut uncached = f64::MAX;
    let mut cached = f64::MAX;
    let mut verdicts_uncached = Vec::new();
    let mut verdicts_cached = Vec::new();
    let mut sweep_stats = orm_dl::CacheStats::default();
    for _ in 0..3 {
        let t0 = Instant::now();
        verdicts_uncached = run_uncached();
        uncached = uncached.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let (v, stats) = run_cached();
        cached = cached.min(t0.elapsed().as_secs_f64());
        verdicts_cached = v;
        sweep_stats = stats;
    }
    let sweep_agree = verdicts_uncached == verdicts_cached;
    all_agree &= sweep_agree;
    let sweep_speedup = uncached / cached.max(1e-9);
    println!(
        "\n{}: {} queries × {} passes — uncached {:.3} ms, cached {:.3} ms \
         ({:.1}x; {sweep_stats}), verdicts agree: {}",
        sweep.name,
        sweep.queries.len(),
        sweep.passes,
        uncached * 1e3,
        cached * 1e3,
        sweep_speedup,
        if sweep_agree { "yes" } else { "NO" }
    );
    if let Some(gain) = merge_gain_min {
        println!(
            "merge-heavy trail gain vs oldest recorded run: {gain:.1}x (backjumping threshold 2.0x)"
        );
    }

    // Parallel classification battery: the full Translation-level
    // classify matrix, sequential vs fanned out over a scoped pool.
    // Every rep runs on a *fresh clone* (cold sharded cache) so both
    // drivers prove every pair rather than replaying hits.
    let battery = classify_battery(14, 6);
    let translation = translate(&battery.schema);
    // At least 4 workers (the acceptance bar's thread count), more when
    // the machine offers them (clamped by `default_threads`).
    let par_threads = orm_dl::par::default_threads().max(4);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut seq_secs = f64::MAX;
    let mut par_secs = f64::MAX;
    let mut seq_pairs = Vec::new();
    let mut par_pairs = Vec::new();
    for _ in 0..3 {
        let cold = translation.clone();
        let t0 = Instant::now();
        seq_pairs = cold.classify_cx(&battery.schema, &cx);
        seq_secs = seq_secs.min(t0.elapsed().as_secs_f64());
        let cold = translation.clone();
        let t0 = Instant::now();
        par_pairs = cold.classify_par_cx(&battery.schema, &cx, par_threads).0;
        par_secs = par_secs.min(t0.elapsed().as_secs_f64());
    }
    let pairs_agree = seq_pairs == par_pairs;
    all_agree &= pairs_agree;
    let par_speedup = seq_secs / par_secs.max(1e-9);
    let pair_count = battery.types * (battery.types - 1);
    println!(
        "\n{}: {} types, {} subsumption pairs — sequential {:.3} ms, parallel({} threads) \
         {:.3} ms ({:.2}x on {} hardware thread(s)), pair sets agree: {}",
        battery.name,
        battery.types,
        pair_count,
        seq_secs * 1e3,
        par_threads,
        par_secs * 1e3,
        par_speedup,
        hardware_threads,
        if pairs_agree { "yes" } else { "NO" }
    );

    // Work-stealing scheduler battery (PR 7): the same classification
    // matrix driven through the ExecCx-aware entry points. Measures the
    // seq-vs-par bar through the new scheduler, steal traffic under the
    // striped deques, deterministic cancellation latency (the shared
    // meter trips the token at an exact step count — no wall-clock
    // racing), and the expired-deadline no-op guarantee. Cache and
    // scheduler counters are emitted in their stable serialized form.
    let mut sched_seq_secs = f64::MAX;
    let mut sched_par_secs = f64::MAX;
    let mut sched_seq_pairs = Vec::new();
    let mut sched_par_pairs = Vec::new();
    let mut sched_stats = orm_dl::par::SchedStats::default();
    let mut sched_cache_json = String::new();
    for _ in 0..3 {
        let cold = translation.clone();
        let t0 = Instant::now();
        sched_seq_pairs = cold.classify_cx(&battery.schema, &cx);
        sched_seq_secs = sched_seq_secs.min(t0.elapsed().as_secs_f64());
        let cold = translation.clone();
        let t0 = Instant::now();
        let (pairs, stats) = cold.classify_par_cx(&battery.schema, &cx, par_threads);
        sched_par_secs = sched_par_secs.min(t0.elapsed().as_secs_f64());
        sched_par_pairs = pairs;
        sched_stats = stats;
        sched_cache_json = cold.cache_stats().to_json();
    }
    let sched_pairs_agree = sched_seq_pairs == seq_pairs && sched_par_pairs == seq_pairs;
    all_agree &= sched_pairs_agree;
    let sched_speedup = sched_seq_secs / sched_par_secs.max(1e-9);
    let sched_seq_ms = sched_seq_secs * 1e3;
    let sched_par_ms = sched_par_secs * 1e3;
    let sched_stats_json = sched_stats.to_json();
    let sched_types = battery.types;

    // Deterministic cancellation: trip the token mid-matrix and time the
    // full unwind of the cancelled call. Interrupted proofs record
    // nothing, so the same warm shards must then converge to the
    // sequential truth on an uncancelled rerun.
    let cancel_translation = translation.clone();
    let cancelling = orm_dl::ExecCx::with_steps(budget).cancel_after_steps(2_000);
    let t0 = Instant::now();
    let (_, cancel_stats) =
        cancel_translation.classify_par_cx(&battery.schema, &cancelling, par_threads);
    let cancel_latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cancel_executed = cancel_stats.executed;
    let cancel_skipped = cancel_stats.skipped;
    let (after_cancel, _) = cancel_translation.classify_par_cx(&battery.schema, &cx, par_threads);
    let cancel_agrees = after_cancel == seq_pairs;
    all_agree &= cancel_agrees;

    // A context whose deadline already passed must execute nothing: the
    // upfront check fires before any proof is attempted.
    let expired = orm_dl::ExecCx::with_steps(budget)
        .with_deadline(Instant::now() - std::time::Duration::from_millis(1));
    let (_, deadline_stats) =
        translation.clone().classify_par_cx(&battery.schema, &expired, par_threads);
    let deadline_noop = deadline_stats.executed == 0;
    all_agree &= deadline_noop;
    println!(
        "\nscheduler_battery: {} types, {} pairs — cx sequential {:.3} ms, \
         work-stealing({} workers) {:.3} ms ({:.2}x), {} stolen of {} executed; \
         cancel latency {:.3} ms ({} executed / {} skipped, warm rerun agrees: {}), \
         expired deadline no-op: {}",
        sched_types,
        pair_count,
        sched_seq_ms,
        sched_stats.workers,
        sched_par_ms,
        sched_speedup,
        sched_stats.stolen,
        sched_stats.executed,
        cancel_latency_ms,
        cancel_executed,
        cancel_skipped,
        if cancel_agrees { "yes" } else { "NO" },
        if deadline_noop { "yes" } else { "NO" }
    );
    println!("  sched_stats: {sched_stats_json}");
    println!("  cache_stats: {sched_cache_json}");

    // Incremental TBox revalidation (PR 4): the classification battery
    // replayed after each of a series of single-GCI edits. "Wholesale"
    // empties the cache after every edit (the pre-PR 4 stamp-mismatch
    // behavior, emulated by an explicit clear); "delta-aware" keeps one
    // persistent cache whose entries survive via the retention rules.
    // Both modes share an untimed population round, then the post-edit
    // rounds are timed; verdict streams must match round for round.
    let inc = incremental_edit(10, 6);
    let run_rounds = |delta_aware: bool| {
        let mut run = inc.populate(&cx);
        let t0 = Instant::now();
        let verdicts = run.edit_rounds(&inc, delta_aware, &cx);
        (t0.elapsed().as_secs_f64(), verdicts, run.stats())
    };
    let mut wholesale_secs = f64::MAX;
    let mut delta_secs = f64::MAX;
    let mut wholesale_verdicts = Vec::new();
    let mut delta_verdicts = Vec::new();
    let mut inc_stats = orm_dl::CacheStats::default();
    for _ in 0..3 {
        let (secs, verdicts, _) = run_rounds(false);
        wholesale_secs = wholesale_secs.min(secs);
        wholesale_verdicts = verdicts;
        let (secs, verdicts, stats) = run_rounds(true);
        delta_secs = delta_secs.min(secs);
        delta_verdicts = verdicts;
        inc_stats = stats;
    }
    let inc_agree = wholesale_verdicts == delta_verdicts;
    all_agree &= inc_agree;
    let inc_speedup = wholesale_secs / delta_secs.max(1e-9);
    // The workload is pointless unless the retention rules actually
    // engaged: both monotone-kept Unsat entries and witness-revalidated
    // Sat entries must appear.
    let inc_retention_engaged = inc_stats.retained > 0 && inc_stats.revalidated > 0;
    println!(
        "\n{}: {} queries × {} edit rounds — wholesale {:.3} ms, delta-aware {:.3} ms \
         ({:.1}x; {inc_stats}), verdicts agree: {}",
        inc.name,
        inc.queries.len(),
        inc.edits.len(),
        wholesale_secs * 1e3,
        delta_secs * 1e3,
        inc_speedup,
        if inc_agree { "yes" } else { "NO" }
    );

    // Unsat-core diagnosis (PR 5): the plain sweep finds the doomed
    // elements, then each gets a minimal unsat core extracted and mapped
    // to ORM origins. Extraction is timed cold (fresh shards) and warm
    // (cores cached beside verdicts); the acceptance checks — every core
    // sound, minimal and fully attributed — are verified untimed.
    //
    // This section always runs at the full default budget, ignoring the
    // smoke reduction: minimality certification needs every probe to
    // reach a definitive verdict (a probe dying on a reduced budget
    // honestly clears `minimal`, which would make the smoke gate flap on
    // a knob that exists only to shrink the engine-comparison scenarios).
    let explain_budget = orm_bench::tableau_scenarios::BUDGET;
    let explain_cx = orm_dl::ExecCx::with_steps(explain_budget);
    let exp = explain_battery(8);
    let exp_translation = translate(&exp.schema);
    let unsat_types: Vec<_> = exp
        .schema
        .object_types()
        .map(|(ty, _)| ty)
        .filter(|&ty| {
            exp_translation.type_satisfiable_cx(ty, &explain_cx) == orm_dl::SearchOutcome::Unsat
        })
        .collect();
    let unsat_roles: Vec<_> = exp
        .schema
        .roles()
        .map(|(r, _)| r)
        .filter(|&r| {
            exp_translation.role_satisfiable_cx(r, &explain_cx) == orm_dl::SearchOutcome::Unsat
        })
        .collect();
    let unsat_elements = unsat_types.len() + unsat_roles.len();
    let extract = |t: &orm_dl::Translation| -> Vec<(orm_dl::Concept, orm_dl::Explanation)> {
        let mut out = Vec::new();
        for &ty in &unsat_types {
            out.push((t.type_concept(ty), t.explain_type_cx(ty, &explain_cx)));
        }
        for &r in &unsat_roles {
            out.push((t.role_concept(r), t.explain_role_cx(r, &explain_cx)));
        }
        out
    };
    let mut explain_cold = f64::MAX;
    let mut explain_warm = f64::MAX;
    let mut explained = Vec::new();
    for _ in 0..3 {
        let cold = exp_translation.clone();
        let t0 = Instant::now();
        explained = extract(&cold);
        explain_cold = explain_cold.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let replay = extract(&cold);
        explain_warm = explain_warm.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            explained.iter().map(|(_, e)| e.core().map(|c| c.axioms.clone())).collect::<Vec<_>>(),
            replay.iter().map(|(_, e)| e.core().map(|c| c.axioms.clone())).collect::<Vec<_>>(),
            "warm explanation replay diverged from cold extraction"
        );
    }
    // Warm-start delta (PR 6): the cold extraction above routes through
    // the sharded cache, whose seed pool lets each element's extraction
    // probe the previous elements' certified cores first. The fully
    // *unseeded* baseline runs the same extractions directly against the
    // engine, pool-less — the delta is what cross-element seeding buys.
    // Verdict shape must agree (every element yields a core both ways);
    // core *contents* may legitimately differ, minimal cores aren't
    // unique.
    let mut explain_unseeded = f64::MAX;
    let mut unseeded_cores = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        let tbox = &exp_translation.tbox;
        unseeded_cores = unsat_types
            .iter()
            .map(|&ty| exp_translation.type_concept(ty))
            .chain(unsat_roles.iter().map(|&r| exp_translation.role_concept(r)))
            .filter(|q| {
                matches!(
                    orm_dl::explain_unsat_cx(tbox, q, &explain_cx),
                    orm_dl::Explanation::Unsat(_)
                )
            })
            .count();
        explain_unseeded = explain_unseeded.min(t0.elapsed().as_secs_f64());
    }
    let seeding_agrees = unseeded_cores == unsat_elements;
    // Verification (untimed).
    let tbox = &exp_translation.tbox;
    let (cores_extracted, cores_sound, cores_minimal, origins_mapped, mean_core) = {
        let mut sound = true;
        let mut minimal = true;
        let mut mapped = true;
        let mut sizes = Vec::new();
        let mut extracted = explained.len() == unsat_elements && !explained.is_empty();
        for (query, explanation) in &explained {
            let Some(core) = explanation.core() else {
                extracted = false;
                continue;
            };
            sizes.push(core.len());
            sound &= orm_dl::explain::core_refutes_cx(tbox, core, query, &explain_cx);
            minimal &= core.minimal;
            for i in 0..core.len() {
                let mut weakened = core.axioms.clone();
                weakened.remove(i);
                minimal &= orm_dl::satisfiable_cx(&tbox.restrict_to(&weakened), query, &explain_cx)
                    == orm_dl::SearchOutcome::Sat;
            }
            mapped &= !exp_translation.core_origins(core).is_empty();
        }
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
        (extracted, sound, minimal, mapped, mean)
    };
    let explain_ok =
        cores_extracted && cores_sound && cores_minimal && origins_mapped && seeding_agrees;
    all_agree &= explain_ok;
    println!(
        "\n{}: {} unsat elements ({} types, {} roles) — extraction {:.3} ms unseeded, \
         {:.3} ms cold (pool-seeded), {:.3} ms warm; mean core size {:.1}; \
         sound {} / minimal {} / ORM-attributed {} / seeding agrees {}",
        exp.name,
        unsat_elements,
        unsat_types.len(),
        unsat_roles.len(),
        explain_unseeded * 1e3,
        explain_cold * 1e3,
        explain_warm * 1e3,
        mean_core,
        if cores_sound { "yes" } else { "NO" },
        if cores_minimal { "yes" } else { "NO" },
        if origins_mapped { "yes" } else { "NO" },
        if seeding_agrees { "yes" } else { "NO" }
    );

    // MUS enumeration (this PR): the same doomed battery, but every
    // element now gets its WHOLE family of minimal unsat cores
    // (MARCO-style worklist over `restrict_to` probes) plus the verified
    // hitting-set repairs over the family. Cold routes through the
    // sharded cache so cross-element seed-pool reuse keeps the all-MUS
    // sweep within the 2×-of-single-core bar; warm replays the cached
    // families. Runs at the full budget for the same reason as the
    // explain section above.
    let enum_limit = 8usize;
    let enumerate_all =
        |t: &orm_dl::Translation| -> Vec<(orm_dl::Concept, orm_dl::MusEnumeration)> {
            let mut out = Vec::new();
            for &ty in &unsat_types {
                out.push((t.type_concept(ty), t.enumerate_type_cx(ty, &explain_cx, enum_limit)));
            }
            for &r in &unsat_roles {
                out.push((t.role_concept(r), t.enumerate_role_cx(r, &explain_cx, enum_limit)));
            }
            out
        };
    let family_shape = |runs: &[(orm_dl::Concept, orm_dl::MusEnumeration)]| -> Vec<Option<Vec<Vec<orm_dl::AxiomId>>>> {
        runs.iter()
            .map(|(_, e)| e.family().map(|f| f.cores.iter().map(|c| c.axioms.clone()).collect()))
            .collect()
    };
    let mut enum_cold = f64::MAX;
    let mut enum_warm = f64::MAX;
    let mut enumerated = Vec::new();
    for _ in 0..3 {
        let cold = exp_translation.clone();
        let t0 = Instant::now();
        enumerated = enumerate_all(&cold);
        enum_cold = enum_cold.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let replay = enumerate_all(&cold);
        enum_warm = enum_warm.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            family_shape(&enumerated),
            family_shape(&replay),
            "warm family replay diverged from cold enumeration"
        );
    }
    // Verification (untimed): every family
    // found, every core certified sound + minimal and pairwise
    // ⊆-incomparable, every family provably complete on this battery,
    // every ranked repair independently re-proved to restore Sat, and
    // the cached route agreeing with a direct engine enumeration.
    let (
        families_found,
        family_cores_certified,
        families_complete,
        repairs_verified,
        uncached_agrees,
        mean_family,
        total_cores,
        total_repairs,
    ) = {
        let subset = |a: &[orm_dl::AxiomId], b: &[orm_dl::AxiomId]| a.iter().all(|x| b.contains(x));
        let mut certified = true;
        let mut complete = true;
        let mut repairs_ok = true;
        let mut uncached = true;
        let mut sizes = Vec::new();
        let mut n_repairs = 0usize;
        let mut found = enumerated.len() == unsat_elements && !enumerated.is_empty();
        for (query, enumeration) in &enumerated {
            let Some(family) = enumeration.family() else {
                found = false;
                continue;
            };
            sizes.push(family.len());
            complete &= family.complete && !family.truncated;
            for (i, core) in family.cores.iter().enumerate() {
                certified &= core.minimal
                    && orm_dl::explain::core_refutes_cx(tbox, core, query, &explain_cx);
                for j in 0..core.len() {
                    let mut weakened = core.axioms.clone();
                    weakened.remove(j);
                    certified &=
                        orm_dl::satisfiable_cx(&tbox.restrict_to(&weakened), query, &explain_cx)
                            == orm_dl::SearchOutcome::Sat;
                }
                for other in &family.cores[i + 1..] {
                    certified &= !subset(&core.axioms, &other.axioms)
                        && !subset(&other.axioms, &core.axioms);
                }
            }
            let repairs = exp_translation.repairs_for_cx(query, &explain_cx, family);
            repairs_ok &= !repairs.is_empty();
            n_repairs += repairs.len();
            for repair in &repairs {
                repairs_ok &= repair.verified
                    && family
                        .cores
                        .iter()
                        .all(|c| c.axioms.iter().any(|a| repair.axioms.contains(a)));
                let keep: Vec<orm_dl::AxiomId> =
                    tbox.axiom_ids().filter(|a| !repair.axioms.contains(a)).collect();
                repairs_ok &= orm_dl::satisfiable_cx(&tbox.restrict_to(&keep), query, &explain_cx)
                    == orm_dl::SearchOutcome::Sat;
            }
            // Cached-vs-uncached: a direct engine enumeration of the
            // same query yields the same family as a set.
            if let orm_dl::MusEnumeration::Unsat(direct) =
                orm_dl::enumerate_mus_cx(tbox, query, &explain_cx, enum_limit)
            {
                let canon = |f: &orm_dl::MusFamily| {
                    let mut cores: Vec<Vec<orm_dl::AxiomId>> =
                        f.cores.iter().map(|c| c.axioms.clone()).collect();
                    cores.sort();
                    cores
                };
                uncached &= canon(family) == canon(&direct);
            } else {
                uncached = false;
            }
        }
        let total: usize = sizes.iter().sum();
        let mean = total as f64 / sizes.len().max(1) as f64;
        (found, certified, complete, repairs_ok, uncached, mean, total, n_repairs)
    };
    // Deterministic two-MUS pin: the compact two-contradiction scenario
    // has exactly-known ground truth — one doomed type, two independent
    // 3-axiom cores, nine verified 2-axiom repairs. The enumerator must
    // reproduce it exactly (family complete, never truncated at this
    // limit).
    let pin = orm_bench::tableau_scenarios::enumeration_battery();
    let pin_translation = translate(&pin.schema);
    let mut two_mus_pinned = false;
    for (ty, _) in pin.schema.object_types() {
        if pin_translation.type_satisfiable_cx(ty, &explain_cx) != orm_dl::SearchOutcome::Unsat {
            continue;
        }
        if let orm_dl::MusEnumeration::Unsat(family) =
            pin_translation.enumerate_type_cx(ty, &explain_cx, enum_limit)
        {
            let repairs = pin_translation.repairs_for_cx(
                &pin_translation.type_concept(ty),
                &explain_cx,
                &family,
            );
            two_mus_pinned = family.len() == 2
                && family.complete
                && !family.truncated
                && family.cores.iter().all(|c| c.minimal && c.len() == 3)
                && repairs.len() == 9
                && repairs.iter().all(|r| r.verified && r.len() == 2);
        }
    }

    let any_truncated = enumerated.iter().any(|(_, e)| e.family().is_some_and(|f| f.truncated));
    let enum_within_2x = enum_cold <= 2.0 * explain_cold;
    let enum_warm_fast = enum_warm <= 1e-3;
    let enumeration_ok = families_found
        && family_cores_certified
        && families_complete
        && repairs_verified
        && uncached_agrees
        && two_mus_pinned;
    all_agree &= enumeration_ok;
    println!(
        "{} (enumeration): {} cores across {} families (mean {:.1}), {} verified repairs — \
         {:.3} ms cold (limit {enum_limit}, ≤2× single-core: {}), {:.3} ms warm (≤1 ms: {}); \
         certified {} / complete {} / repairs re-proved {} / cached=uncached {}",
        exp.name,
        total_cores,
        unsat_elements,
        mean_family,
        total_repairs,
        enum_cold * 1e3,
        if enum_within_2x { "yes" } else { "NO" },
        enum_warm * 1e3,
        if enum_warm_fast { "yes" } else { "NO" },
        if family_cores_certified { "yes" } else { "NO" },
        if families_complete { "yes" } else { "NO" },
        if repairs_verified { "yes" } else { "NO" },
        if uncached_agrees { "yes" } else { "NO" }
    );
    println!(
        "{}: two independent contradictions, one doomed type — exact family + \
         nine verified repairs reproduced: {}",
        pin.name,
        if two_mus_pinned { "yes" } else { "NO" }
    );

    // Bulk conformance (PR 6): a large, almost-clean population of the
    // order-processing schema, checked by the per-violation validator vs
    // a compiled `CheckPlan` over the columnar population. The violation
    // multisets must be identical; the compiled run carries a 20× bar at
    // the comparison size, and the large compiled-only run a wall budget.
    // The smoke setting shrinks the populations the same way it shrinks
    // the engine scenarios; the trajectory file records the sizes used.
    // The smoke comparison size stays large enough that the validator's
    // quadratic mandatory scan dominates — below ~20k rows the measured
    // ratio collapses toward fixed costs and the 2× exit gate would sit
    // within runner noise.
    let reduced_budget = budget < orm_bench::tableau_scenarios::BUDGET;
    let (bulk_rows, large_rows) =
        if reduced_budget { (20_000, 100_000) } else { (100_000, 1_000_000) };
    let bulk = orm_bench::tableau_scenarios::bulk_conformance(bulk_rows, 24);
    let bulk_options = orm_population::CheckOptions::default();
    let t0 = Instant::now();
    let per_violation =
        orm_population::check(&bulk.workload.schema, &bulk.workload.population, bulk_options);
    let bulk_interp_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let bulk_translation = translate(&bulk.workload.schema);
    let bulk_plan = orm_population::CheckPlan::compile(
        &bulk.workload.schema,
        &bulk_translation,
        &explain_cx,
        bulk_options,
    );
    let bulk_compile_secs = t0.elapsed().as_secs_f64();
    let mut bulk_exec_secs = f64::MAX;
    let mut compiled = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        compiled = bulk_plan.execute(&bulk.workload.schema, &bulk.workload.population);
        bulk_exec_secs = bulk_exec_secs.min(t0.elapsed().as_secs_f64());
    }
    let multiset = |vs: &[orm_population::Violation]| {
        let mut keys: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
        keys.sort();
        keys
    };
    let bulk_agree = multiset(&per_violation) == multiset(&compiled);
    all_agree &= bulk_agree;
    let bulk_speedup = bulk_interp_secs / bulk_exec_secs.max(1e-9);
    println!(
        "\n{}: {} tuples, {} faults injected, {} violations found — per-violation \
         {:.1} ms, compile {:.1} ms + execute {:.1} ms ({:.1}x, bar 20x), \
         plan certified Sat: {}, violation multisets agree: {}",
        bulk.name,
        bulk.rows,
        bulk.workload.faults_injected,
        compiled.len(),
        bulk_interp_secs * 1e3,
        bulk_compile_secs * 1e3,
        bulk_exec_secs * 1e3,
        bulk_speedup,
        if bulk_plan.certified_sat() { "yes" } else { "NO" },
        if bulk_agree { "yes" } else { "NO" }
    );
    // The large population runs compiled-only (the per-violation
    // validator's mandatory scan is quadratic — the very cost the plan
    // removes) against a wall budget.
    const LARGE_BUDGET_SECS: f64 = 60.0;
    let large = orm_bench::tableau_scenarios::bulk_conformance(large_rows, 48);
    let t0 = Instant::now();
    let large_plan = orm_population::CheckPlan::compile(
        &large.workload.schema,
        &translate(&large.workload.schema),
        &explain_cx,
        bulk_options,
    );
    let large_violations = large_plan.execute(&large.workload.schema, &large.workload.population);
    let large_secs = t0.elapsed().as_secs_f64();
    let large_within_budget = large_secs <= LARGE_BUDGET_SECS;
    let large_found_faults = large_violations.len() >= large.workload.faults_injected;
    all_agree &= large_found_faults;
    println!(
        "{}: {} tuples compiled-only — {:.1} ms, {} violations from {} faults, \
         within {:.0} s budget: {}",
        large.name,
        large.rows,
        large_secs * 1e3,
        large_violations.len(),
        large.workload.faults_injected,
        LARGE_BUDGET_SECS,
        if large_within_budget { "yes" } else { "NO" }
    );

    // Fault-tolerant service battery (PR 9): the chaos harness storms a
    // `ReasonerService` with concurrent sessions mixing full-budget
    // queries, deadline storms, starved budgets, metered cancellations
    // and mid-storm edits, then injects worker panics, sabotages
    // snapshot blobs and performs a clean warm restart — every decided
    // verdict checked against a fresh sequential reference. The
    // contract gates are deterministic (the harness forces each fault
    // class to fire); only the warm-restart timing bar lives outside
    // the exit gate.
    let chaos_cfg = orm_gen::chaos::ChaosConfig {
        sessions: if reduced_budget { 16 } else { 64 },
        steps_per_session: if reduced_budget { 3 } else { 6 },
        gen: if reduced_budget { GenConfig::small(0xC0A5) } else { GenConfig::medium(0xC0A5) },
        ..Default::default()
    };
    let t0 = Instant::now();
    let chaos = orm_gen::chaos::run_chaos(&chaos_cfg);
    let chaos_secs = t0.elapsed().as_secs_f64();
    let chaos_throughput = chaos.served as f64 / chaos_secs.max(1e-9);
    let chaos_shed_rate = chaos.shed as f64 / (chaos.queries.max(1)) as f64;
    let chaos_stats_json = chaos.stats.to_json();
    let service_contract = chaos.disagreements == 0
        && chaos.shed >= 1
        && chaos.downgraded >= 1
        && chaos.panics_isolated >= 1
        && chaos.corrupt_rejected >= 1
        && chaos.restores >= 1
        && chaos.restored_entries >= 1
        && chaos.post_restore_checked >= 1;

    // Warm restart vs cold re-prove, measured on the diagnosis
    // battery (always at the full budget, like the explain section):
    // the expensive part of a restart is re-deriving the doomed
    // elements' minimal unsat cores — each cold extraction re-runs the
    // deletion-minimization probes, while the snapshot stores the
    // certified cores beside the Unsat verdicts and replays them as
    // hits. "Cold" is a fresh translation proving the type + role
    // sweeps and extracting every core from scratch; "warm" restores
    // the snapshot first and must answer the same workload from hits
    // alone (zero misses), verdict for verdict and core for core.
    let persist = translate(&exp.schema);
    persist.type_sweep_cx(&exp.schema, &explain_cx);
    persist.role_sweep_cx(&exp.schema, &explain_cx);
    extract(&persist);
    let blob = persist.snapshot();
    let snapshot_bytes = blob.len();
    let core_shape =
        |runs: &[(orm_dl::Concept, orm_dl::Explanation)]| -> Vec<Option<Vec<orm_dl::AxiomId>>> {
            runs.iter().map(|(_, e)| e.core().map(|c| c.axioms.clone())).collect()
        };
    let mut cold_reprove_secs = f64::MAX;
    let mut warm_restart_secs = f64::MAX;
    let mut warm_misses = u64::MAX;
    let mut restored_entries = 0usize;
    let mut restart_agrees = true;
    for _ in 0..3 {
        let cold = translate(&exp.schema);
        let t0 = Instant::now();
        let cold_types = cold.type_sweep_cx(&exp.schema, &explain_cx);
        let cold_roles = cold.role_sweep_cx(&exp.schema, &explain_cx);
        let cold_cores = extract(&cold);
        cold_reprove_secs = cold_reprove_secs.min(t0.elapsed().as_secs_f64());
        let warm = translate(&exp.schema);
        let t0 = Instant::now();
        let report = warm.restore(&blob).expect("clean snapshot restores");
        let warm_types = warm.type_sweep_cx(&exp.schema, &explain_cx);
        let warm_roles = warm.role_sweep_cx(&exp.schema, &explain_cx);
        let warm_cores = extract(&warm);
        warm_restart_secs = warm_restart_secs.min(t0.elapsed().as_secs_f64());
        restored_entries = report.entries;
        warm_misses = warm.cache_stats().misses;
        restart_agrees &= warm_types == cold_types
            && warm_roles == cold_roles
            && core_shape(&warm_cores) == core_shape(&cold_cores);
    }
    let warm_no_misses = warm_misses == 0;
    let warm_restart_gain = cold_reprove_secs / warm_restart_secs.max(1e-9);
    let warm_restart_met = warm_restart_gain >= 5.0;
    let service_ok = service_contract && restart_agrees && warm_no_misses && restored_entries > 0;
    all_agree &= service_ok;
    println!(
        "\nservice_battery: {} sessions × {} steps — {} queries ({} served / {} shed, \
         shed rate {:.2}), {} downgraded, {} decided vs reference with {} disagreements; \
         {} panics isolated, {} corrupt snapshots rejected, {} restores \
         ({} entries, {} verdicts re-checked); {:.0} served/s over {:.1} s",
        chaos.sessions,
        chaos_cfg.steps_per_session,
        chaos.queries,
        chaos.served,
        chaos.shed,
        chaos_shed_rate,
        chaos.downgraded,
        chaos.decided,
        chaos.disagreements,
        chaos.panics_isolated,
        chaos.corrupt_rejected,
        chaos.restores,
        chaos.restored_entries,
        chaos.post_restore_checked,
        chaos_throughput,
        chaos_secs
    );
    println!(
        "  warm restart: snapshot {} bytes, {} entries restored — cold re-prove {:.3} ms, \
         warm restart {:.3} ms ({:.1}x, bar 5x: {}), warm misses {} (none: {}), \
         verdicts agree: {}",
        snapshot_bytes,
        restored_entries,
        cold_reprove_secs * 1e3,
        warm_restart_secs * 1e3,
        warm_restart_gain,
        if warm_restart_met { "yes" } else { "NO" },
        warm_misses,
        if warm_no_misses { "yes" } else { "NO" },
        if restart_agrees { "yes" } else { "NO" }
    );
    println!("  service_stats: {chaos_stats_json}");

    // Saturation battery (PR 10): the graph-saturation model finder — the
    // third engine — swept over a fault-injected schema whose dooms lie
    // beyond the DL translation. Records sequential vs fan-out sweep
    // times, cold extraction vs cache-served replay, tableau agreement on
    // the shared fragment, external certification of every Sat witness
    // through `orm_population::check`, and the pinned ring scenarios only
    // the saturation engine can refute (the tableau's translation drops
    // the rings). Always at full strength: the saturation engine carries
    // its own internal caps, so the smoke budget knob does not apply.
    use orm_dl::{SaturationEngine, SaturationOutcome};
    let sat_base = generate_clean(&GenConfig::sized(0x5A70, 8));
    let sat_schema = faults::inject_all(&sat_base, &faults::FaultKind::BEYOND_DL);
    let sat_cx = orm_dl::ExecCx::unlimited();
    let sat_translation = translate(&sat_schema);
    let verdicts_match = |a: &[SaturationOutcome], b: &[SaturationOutcome]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.verdict() == y.verdict())
    };
    let mut sat_seq_secs = f64::MAX;
    let mut sat_cached_secs = f64::MAX;
    let mut sat_cached_agree = true;
    let mut seq_type_outcomes: Vec<(orm_model::ObjectTypeId, SaturationOutcome)> = Vec::new();
    let mut seq_role_outcomes: Vec<(orm_model::RoleId, SaturationOutcome)> = Vec::new();
    for _ in 0..3 {
        let cold = SaturationEngine::new(&sat_schema);
        let t0 = Instant::now();
        let t_sweep = cold.type_sweep(&sat_cx);
        let r_sweep = cold.role_sweep(&sat_cx);
        sat_seq_secs = sat_seq_secs.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let t_replay = cold.type_sweep(&sat_cx);
        let r_replay = cold.role_sweep(&sat_cx);
        sat_cached_secs = sat_cached_secs.min(t0.elapsed().as_secs_f64());
        let outcomes =
            |v: &[(orm_model::ObjectTypeId, SaturationOutcome)]| -> Vec<SaturationOutcome> {
                v.iter().map(|(_, o)| o.clone()).collect()
            };
        let role_outcomes =
            |v: &[(orm_model::RoleId, SaturationOutcome)]| -> Vec<SaturationOutcome> {
                v.iter().map(|(_, o)| o.clone()).collect()
            };
        sat_cached_agree &= verdicts_match(&outcomes(&t_sweep), &outcomes(&t_replay))
            && verdicts_match(&role_outcomes(&r_sweep), &role_outcomes(&r_replay));
        seq_type_outcomes = t_sweep;
        seq_role_outcomes = r_sweep;
    }
    let mut sat_par_secs = f64::MAX;
    let mut sat_par_agree = true;
    for _ in 0..3 {
        let par = SaturationEngine::new(&sat_schema);
        let t0 = Instant::now();
        let t_batch = par.type_sweep_par(par_threads, &sat_cx);
        let r_batch = par.role_sweep_par(par_threads, &sat_cx);
        sat_par_secs = sat_par_secs.min(t0.elapsed().as_secs_f64());
        sat_par_agree &= t_batch.is_complete()
            && r_batch.is_complete()
            && t_batch.results.iter().zip(&seq_type_outcomes).all(|(got, (_, want))| {
                got.as_ref().is_some_and(|g| g.verdict() == want.verdict())
            })
            && r_batch.results.iter().zip(&seq_role_outcomes).all(|(got, (_, want))| {
                got.as_ref().is_some_and(|g| g.verdict() == want.verdict())
            });
    }
    // Judge the sequential outcomes: tableau agreement on the shared
    // fragment, external witness certification, coverage closure.
    let certify_witness = |model: &orm_population::Population| -> bool {
        orm_population::check(&sat_schema, model, orm_population::CheckOptions::default())
            .is_empty()
    };
    let (mut sat_sat, mut sat_unsat, mut sat_unknown, mut sat_beyond) = (0usize, 0, 0, 0);
    let mut sat_certified = true;
    let mut sat_tableau_agree = true;
    for (ty, outcome) in &seq_type_outcomes {
        match outcome {
            SaturationOutcome::Sat(model) => {
                sat_sat += 1;
                sat_certified &= certify_witness(model);
                sat_tableau_agree &= sat_translation.type_satisfiable_cx(*ty, &explain_cx)
                    != orm_dl::SearchOutcome::Unsat;
            }
            SaturationOutcome::Unsat(refutation) => {
                sat_unsat += 1;
                if refutation.beyond_dl {
                    sat_beyond += 1;
                } else {
                    sat_tableau_agree &= sat_translation.type_satisfiable_cx(*ty, &explain_cx)
                        != orm_dl::SearchOutcome::Sat;
                }
            }
            _ => sat_unknown += 1,
        }
    }
    for (role, outcome) in &seq_role_outcomes {
        match outcome {
            SaturationOutcome::Sat(model) => {
                sat_sat += 1;
                sat_certified &= certify_witness(model);
                sat_tableau_agree &= sat_translation.role_satisfiable_cx(*role, &explain_cx)
                    != orm_dl::SearchOutcome::Unsat;
            }
            SaturationOutcome::Unsat(refutation) => {
                sat_unsat += 1;
                if refutation.beyond_dl {
                    sat_beyond += 1;
                } else {
                    sat_tableau_agree &= sat_translation.role_satisfiable_cx(*role, &explain_cx)
                        != orm_dl::SearchOutcome::Sat;
                }
            }
            _ => sat_unknown += 1,
        }
    }
    // The pinned ring scenarios: each must be refuted beyond the DL while
    // the tableau cannot refute the same roles (its translation drops the
    // ring). Three incompatible-kind combinations plus the
    // acyclic+mandatory trap.
    let ring_pin_schemas: Vec<orm_model::Schema> = {
        use RingKind::*;
        let mut pins = vec![
            orm_gen::ring_scenario(&[Acyclic, Symmetric]),
            orm_gen::ring_scenario(&[Asymmetric, Symmetric]),
            orm_gen::ring_scenario(&[Antisymmetric, Symmetric, Intransitive]),
        ];
        let mut trap = orm_gen::ring_scenario(&[Acyclic]);
        let r1 = trap.fact_types().next().map(|(_, ft)| ft.first()).expect("one fact");
        trap.add_constraint(orm_model::Constraint::Mandatory(orm_model::Mandatory {
            roles: vec![r1],
        }));
        pins.push(trap);
        pins
    };
    let mut ring_unsat_beyond_dl = 0usize;
    for pin_schema in &ring_pin_schemas {
        let engine = SaturationEngine::new(pin_schema);
        let pin_translation = translate(pin_schema);
        let mut ok = !pin_translation.unmapped.is_empty();
        let mut refuted = false;
        for (role, _) in pin_schema.roles() {
            match engine.check_role(role, &sat_cx) {
                SaturationOutcome::Unsat(refutation) => {
                    refuted = true;
                    ok &= refutation.beyond_dl
                        && pin_translation.role_satisfiable_cx(role, &explain_cx)
                            != orm_dl::SearchOutcome::Unsat;
                }
                _ => ok = false,
            }
        }
        ring_unsat_beyond_dl += usize::from(ok && refuted);
    }
    let sat_elements = seq_type_outcomes.len() + seq_role_outcomes.len();
    let sat_decided = sat_sat + sat_unsat;
    let sat_agreement = sat_tableau_agree && sat_par_agree && sat_cached_agree;
    let sat_coverage_closed = sat_unknown == 0;
    let saturation_ok = sat_agreement
        && sat_coverage_closed
        && sat_certified
        && sat_beyond >= 1
        && ring_unsat_beyond_dl >= 3;
    all_agree &= saturation_ok;
    let sat_seq_ms = sat_seq_secs * 1e3;
    let sat_par_ms = sat_par_secs * 1e3;
    let sat_cached_ms = sat_cached_secs * 1e3;
    println!(
        "\nsaturation_battery: {} elements — {} Sat / {} Unsat ({} beyond DL) / {} unknown; \
         sequential {:.3} ms, fan-out({} threads) {:.3} ms, cache-served replay {:.3} ms; \
         ring pins beyond the DL: {} of {} (bar 3); \
         agreement {} / coverage closed {} / witnesses certified {}",
        sat_elements,
        sat_sat,
        sat_unsat,
        sat_beyond,
        sat_unknown,
        sat_seq_ms,
        par_threads,
        sat_par_ms,
        sat_cached_ms,
        ring_unsat_beyond_dl,
        ring_pin_schemas.len(),
        if sat_agreement { "yes" } else { "NO" },
        if sat_coverage_closed { "yes" } else { "NO" },
        if sat_certified { "yes" } else { "NO" }
    );

    // The parallel-speedup bar (2× at 4 threads) is only *applicable* on
    // hardware that can actually run 2+ threads at once; on a single-core
    // machine the honest measurement is ≈1× and says nothing about the
    // fan-out. The measured figure is recorded either way.
    let par_bar_applicable = hardware_threads >= 2;
    let acceptance_met = or_heavy_min_speedup >= 5.0
        && sweep_speedup >= 5.0
        && inc_speedup >= 5.0
        && inc_retention_engaged
        && merge_gain_min.is_none_or(|g| g >= 2.0)
        && (!par_bar_applicable || par_speedup >= 2.0)
        && (!par_bar_applicable || sched_speedup >= 2.0)
        && bulk_speedup >= 20.0
        && large_within_budget
        && enum_within_2x
        && enum_warm_fast
        && warm_restart_met
        && all_agree;
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let merge_gain_json = merge_gain_min.map_or("null".to_owned(), |g| format!("{g:.2}"));
    // Field accesses can't interpolate inline; bind the chaos report's
    // numbers to locals for the JSON block below.
    let chaos_sessions = chaos.sessions;
    let chaos_steps = chaos_cfg.steps_per_session;
    let chaos_queries = chaos.queries;
    let chaos_served = chaos.served;
    let chaos_shed = chaos.shed;
    let chaos_downgrades = chaos.downgraded;
    let chaos_decided = chaos.decided;
    let chaos_interrupted = chaos.interrupted;
    let chaos_edits = chaos.edits;
    let chaos_disagreements = chaos.disagreements;
    let chaos_zero_disagreements = chaos.disagreements == 0;
    let chaos_panics = chaos.panics_isolated;
    let chaos_corrupt = chaos.corrupt_rejected;
    let chaos_restores = chaos.restores;
    let chaos_restored = chaos.restored_entries;
    let chaos_post_restore = chaos.post_restore_checked;
    let chaos_sat_runs = chaos.saturation_runs;
    let chaos_sat_interrupted = chaos.saturation_interrupted;
    let chaos_sat_disagreements = chaos.saturation_disagreements;
    let chaos_ms = chaos_secs * 1e3;
    let cold_reprove_ms = cold_reprove_secs * 1e3;
    let warm_restart_ms = warm_restart_secs * 1e3;
    let new_run = format!(
        "    {{\n      \"unix_time\": {unix_time},\n      \"budget\": {budget},\n      \
         \"scenarios\": [\n{rows}\n      ],\n      \
         \"classify_sweep\": {{\"name\": \"{}\", \"queries\": {}, \"passes\": {}, \
         \"uncached_ms\": {:.4}, \"cached_ms\": {:.4}, \"speedup\": {:.2}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"verdicts_agree\": {}}},\n      \
         \"classify_par\": {{\"name\": \"{}\", \"types\": {}, \"pairs\": {}, \
         \"threads\": {par_threads}, \"hardware_threads\": {hardware_threads}, \
         \"seq_ms\": {:.4}, \"par_ms\": {:.4}, \"speedup\": {par_speedup:.2}, \
         \"par_bar_applicable\": {par_bar_applicable}, \
         \"pairs_agree\": {pairs_agree}}},\n      \
         \"incremental_edit\": {{\"name\": \"{}\", \"queries\": {}, \"rounds\": {}, \
         \"wholesale_ms\": {:.4}, \"delta_ms\": {:.4}, \"speedup\": {inc_speedup:.2}, \
         \"retained\": {}, \"revalidated\": {}, \"evicted\": {}, \
         \"verdicts_agree\": {inc_agree}}},\n      \
         \"explain\": {{\"name\": \"{}\", \"unsat_elements\": {unsat_elements}, \
         \"unsat_types\": {}, \"unsat_roles\": {}, \
         \"cold_unseeded_ms\": {:.4}, \"seeding_agrees\": {seeding_agrees}, \
         \"cold_ms\": {:.4}, \"warm_ms\": {:.4}, \"mean_core_size\": {mean_core:.2}, \
         \"cores_extracted\": {cores_extracted}, \"cores_sound\": {cores_sound}, \
         \"cores_minimal\": {cores_minimal}, \"origins_mapped\": {origins_mapped}}},\n      \
         \"enumeration\": {{\"name\": \"{}\", \"limit\": {enum_limit}, \
         \"unsat_elements\": {unsat_elements}, \"total_cores\": {total_cores}, \
         \"mean_family_size\": {mean_family:.2}, \"total_repairs\": {total_repairs}, \
         \"cold_ms\": {:.4}, \"warm_ms\": {:.4}, \
         \"single_core_cold_ms\": {:.4}, \
         \"cold_within_2x_single\": {enum_within_2x}, \"warm_under_1ms\": {enum_warm_fast}, \
         \"families_found\": {families_found}, \"families_complete\": {families_complete}, \
         \"any_truncated\": {}, \
         \"cores_certified\": {family_cores_certified}, \
         \"repairs_verified\": {repairs_verified}, \
         \"cached_uncached_agree\": {uncached_agrees}, \
         \"two_mus_pinned\": {two_mus_pinned}}},\n      \
         \"bulk_conformance\": {{\"name\": \"{}\", \"rows\": {}, \
         \"faults_injected\": {}, \"violations_found\": {}, \
         \"per_violation_ms\": {:.4}, \"compile_ms\": {:.4}, \"execute_ms\": {:.4}, \
         \"speedup\": {bulk_speedup:.2}, \"bulk_speedup_threshold\": 20.0, \
         \"certified_sat\": {}, \"verdicts_agree\": {bulk_agree}, \
         \"large_rows\": {}, \"large_faults\": {}, \"large_violations\": {}, \
         \"large_execute_ms\": {:.4}, \"large_budget_ms\": {:.0}, \
         \"large_within_budget\": {large_within_budget}}},\n      \
         \"scheduler_battery\": {{\"name\": \"scheduler_battery\", \
         \"types\": {sched_types}, \"pairs\": {pair_count}, \
         \"threads\": {par_threads}, \"hardware_threads\": {hardware_threads}, \
         \"seq_ms\": {sched_seq_ms:.4}, \"par_ms\": {sched_par_ms:.4}, \
         \"speedup\": {sched_speedup:.2}, \
         \"par_bar_applicable\": {par_bar_applicable}, \
         \"sched_stats\": {sched_stats_json}, \
         \"cache_stats\": {sched_cache_json}, \
         \"cancel_latency_ms\": {cancel_latency_ms:.4}, \
         \"cancel_executed\": {cancel_executed}, \
         \"cancel_skipped\": {cancel_skipped}, \
         \"cancel_agrees\": {cancel_agrees}, \
         \"deadline_noop\": {deadline_noop}, \
         \"pairs_agree\": {sched_pairs_agree}}},\n      \
         \"service_battery\": {{\"name\": \"service_battery\", \
         \"sessions\": {chaos_sessions}, \"steps_per_session\": {chaos_steps}, \
         \"queries\": {chaos_queries}, \"served\": {chaos_served}, \
         \"shed\": {chaos_shed}, \"shed_rate\": {chaos_shed_rate:.4}, \
         \"downgrades\": {chaos_downgrades}, \"decided\": {chaos_decided}, \
         \"interrupted\": {chaos_interrupted}, \"edits\": {chaos_edits}, \
         \"disagreements\": {chaos_disagreements}, \
         \"zero_disagreements\": {chaos_zero_disagreements}, \
         \"panics_isolated\": {chaos_panics}, \
         \"corrupt_rejected\": {chaos_corrupt}, \
         \"restores\": {chaos_restores}, \
         \"restored_entries\": {chaos_restored}, \
         \"post_restore_checked\": {chaos_post_restore}, \
         \"throughput_per_s\": {chaos_throughput:.1}, \
         \"elapsed_ms\": {chaos_ms:.1}, \
         \"service_contract_met\": {service_contract}, \
         \"snapshot_bytes\": {snapshot_bytes}, \
         \"restart_restored_entries\": {restored_entries}, \
         \"cold_reprove_ms\": {cold_reprove_ms:.4}, \
         \"warm_restart_ms\": {warm_restart_ms:.4}, \
         \"warm_restart_speedup\": {warm_restart_gain:.2}, \
         \"warm_restart_threshold\": 5.0, \
         \"warm_restart_met\": {warm_restart_met}, \
         \"warm_misses\": {warm_misses}, \"warm_no_misses\": {warm_no_misses}, \
         \"restart_agrees\": {restart_agrees}, \
         \"saturation_runs\": {chaos_sat_runs}, \
         \"saturation_interrupted\": {chaos_sat_interrupted}, \
         \"saturation_disagreements\": {chaos_sat_disagreements}, \
         \"service_stats\": {chaos_stats_json}}},\n      \
         \"saturation_battery\": {{\"name\": \"saturation_battery\", \
         \"elements\": {sat_elements}, \"decided\": {sat_decided}, \
         \"sat\": {sat_sat}, \"unsat\": {sat_unsat}, \"unknown\": {sat_unknown}, \
         \"beyond_dl_unsat\": {sat_beyond}, \
         \"ring_unsat_beyond_dl\": {ring_unsat_beyond_dl}, \
         \"ring_unsat_beyond_dl_bar\": 3, \
         \"threads\": {par_threads}, \
         \"seq_ms\": {sat_seq_ms:.4}, \"par_ms\": {sat_par_ms:.4}, \
         \"uncached_ms\": {sat_seq_ms:.4}, \"cached_ms\": {sat_cached_ms:.4}, \
         \"agreement\": {sat_agreement}, \
         \"coverage_closed\": {sat_coverage_closed}, \
         \"certified\": {sat_certified}, \
         \"saturation_ok\": {saturation_ok}}},\n      \
         \"or_heavy_speedup_min\": {or_heavy_min_speedup:.2},\n      \
         \"merge_heavy_trail_gain_min\": {merge_gain_json},\n      \
         \"acceptance_threshold\": 5.0,\n      \
         \"merge_gain_threshold\": 2.0,\n      \
         \"par_speedup_threshold\": 2.0,\n      \
         \"incremental_speedup_threshold\": 5.0,\n      \
         \"acceptance_met\": {acceptance_met}\n    }}",
        sweep.name,
        sweep.queries.len(),
        sweep.passes,
        uncached * 1e3,
        cached * 1e3,
        sweep_speedup,
        sweep_stats.hits,
        sweep_stats.misses,
        sweep_agree,
        battery.name,
        battery.types,
        pair_count,
        seq_secs * 1e3,
        par_secs * 1e3,
        inc.name,
        inc.queries.len(),
        inc.edits.len(),
        wholesale_secs * 1e3,
        delta_secs * 1e3,
        inc_stats.retained,
        inc_stats.revalidated,
        inc_stats.evicted,
        exp.name,
        unsat_types.len(),
        unsat_roles.len(),
        explain_unseeded * 1e3,
        explain_cold * 1e3,
        explain_warm * 1e3,
        exp.name,
        enum_cold * 1e3,
        enum_warm * 1e3,
        explain_cold * 1e3,
        any_truncated,
        bulk.name,
        bulk.rows,
        bulk.workload.faults_injected,
        compiled.len(),
        bulk_interp_secs * 1e3,
        bulk_compile_secs * 1e3,
        bulk_exec_secs * 1e3,
        bulk_plan.certified_sat(),
        large.rows,
        large.workload.faults_injected,
        large_violations.len(),
        large_secs * 1e3,
        LARGE_BUDGET_SECS * 1e3,
    );
    let json = append_run(previous.as_deref(), &new_run);
    std::fs::write(out_path, &json).expect("write bench json");
    println!(
        "\n⊔-heavy minimum speedup: {or_heavy_min_speedup:.1}x, sweep speedup: \
         {sweep_speedup:.1}x, incremental speedup: {inc_speedup:.1}x (thresholds 5.0x) \
         — acceptance {}; appended run to {out_path}",
        if acceptance_met { "MET" } else { "NOT MET" }
    );
    // Non-zero exit so the CI smoke step actually gates — but only on
    // signals robust to noisy shared runners: verdict disagreement
    // (including a sequential/parallel classification mismatch, a
    // delta-aware/wholesale stream mismatch, and any diagnosis core that
    // fails its soundness/minimality/attribution verification — all
    // folded into `all_agree`) is deterministic, as is a
    // retention machinery that never engages; a collapse below 2× on the
    // ⊔-heavy engine speedup, the sweep's cached-vs-uncached ratio or the
    // incremental-edit ratio means the engine or a cache regressed
    // catastrophically. The full 5×/2× acceptance figures — the parallel
    // speedup among them, which depends on the runner's core count —
    // live in the JSON, not the exit code, so timing jitter or a small
    // machine cannot turn mainline CI red.
    if !all_agree
        || !inc_retention_engaged
        || or_heavy_min_speedup < 2.0
        || sweep_speedup < 2.0
        || inc_speedup < 2.0
        || bulk_speedup < 2.0
    {
        std::process::exit(1);
    }
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn figures() {
    println!(
        "{:<8} {:<12} {:<26} {:<20} match",
        "figure", "patterns", "unsat roles", "unsat types"
    );
    let mut all_match = true;
    for fixture in fixtures::all() {
        let report = validate(&fixture.schema);
        let fired: Vec<String> = report.findings.iter().map(|f| format!("{:?}", f.code)).collect();
        let expected: BTreeSet<CheckCode> = fixture.expect_codes.iter().copied().collect();
        let got: BTreeSet<CheckCode> = report.findings.iter().map(|f| f.code).collect();

        let roles: Vec<&str> =
            report.unsat_roles().iter().map(|r| fixture.schema.role_label(*r)).collect();
        let mut role_str = roles.join(",");
        let joint: Vec<&str> = report
            .joint_unsat_groups()
            .iter()
            .flat_map(|g| g.iter().map(|r| fixture.schema.role_label(*r)))
            .collect();
        if !joint.is_empty() {
            role_str = format!("joint:{}", joint.join(","));
        }
        let types: Vec<&str> =
            report.unsat_types().iter().map(|t| fixture.schema.object_type(*t).name()).collect();

        let roles_match = {
            let want: BTreeSet<&str> = fixture.expect_unsat_roles.iter().copied().collect();
            let got: BTreeSet<&str> = roles.iter().copied().collect();
            let want_joint: BTreeSet<&str> =
                fixture.expect_joint_unsat_roles.iter().copied().collect();
            let got_joint: BTreeSet<&str> = joint.iter().copied().collect();
            want == got && want_joint == got_joint
        };
        let ok = got == expected && roles_match;
        all_match &= ok;
        println!(
            "{:<8} {:<12} {:<26} {:<20} {}",
            fixture.id,
            if fired.is_empty() { "-".to_owned() } else { fired.join(",") },
            if role_str.is_empty() { "-".to_owned() } else { role_str },
            if types.is_empty() { "-".to_owned() } else { types.join(",") },
            if ok { "yes" } else { "NO" }
        );
    }
    println!("\nall figures match the paper's claims: {}", if all_match { "YES" } else { "NO" });
}

fn fig9() {
    println!(
        "Implications encoded in the set-path graph and verified against the\n\
         population semantics by the orm-core test suite:\n\
         - subset/equality between predicates  =>  positionwise subset between roles\n\
         - equality                            =>  subset in both directions\n\
         - exclusion between single roles      =>  exclusion between their predicates\n\
         - role-level subsets do NOT imply predicate-level subsets\n\
         (tests: orm-core setpath::tests, patterns::p6 tests `projection_*`)"
    );
}

fn fig12() {
    use RingKind::*;
    println!("semantic implication matrix over domains of size <= 3 (row => column):\n");
    print!("{:>5}", "");
    for col in RingKind::ALL {
        print!("{:>5}", col.abbrev());
    }
    println!();
    for row in RingKind::ALL {
        print!("{:>5}", row.abbrev());
        for col in RingKind::ALL {
            let holds = implies(RingKinds::only(row), RingKinds::only(col), 3);
            print!("{:>5}", if holds { "yes" } else { "." });
        }
        println!();
    }
    println!(
        "\npaper's Fig. 12 claims verified semantically:\n\
         - acyclic => asymmetric => antisymmetric & irreflexive : {}\n\
         - intransitive => irreflexive                          : {}\n\
         - antisymmetric & irreflexive == asymmetric            : {}\n\
         - acyclic and symmetric are incompatible               : {}",
        implies(
            RingKinds::only(Acyclic),
            RingKinds::from_iter([Asymmetric, Antisymmetric, Irreflexive]),
            3
        ),
        implies(RingKinds::only(Intransitive), RingKinds::only(Irreflexive), 3),
        implies(RingKinds::from_iter([Antisymmetric, Irreflexive]), RingKinds::only(Asymmetric), 3)
            && implies(
                RingKinds::only(Asymmetric),
                RingKinds::from_iter([Antisymmetric, Irreflexive]),
                3
            ),
        !compatible(RingKinds::from_iter([Acyclic, Symmetric])),
    );
}

fn tab1() {
    let compatible_count = all_compatible().iter().filter(|k| !k.is_empty()).count();
    println!("{}", render_table());
    println!(
        "{compatible_count} of 63 non-empty combinations are compatible; the maximal ones are:"
    );
    for m in maximal_compatible() {
        println!("  {m}");
    }
    println!(
        "\npaper's example incompatible unions, re-derived: (sym,it)+(ans) -> {}, \
         (sym,it)+(it,ac) -> {}, (ans,it)+(ir,sym) -> {}",
        compatible(RingKinds::from_iter([
            RingKind::Symmetric,
            RingKind::Intransitive,
            RingKind::Antisymmetric
        ])),
        compatible(RingKinds::from_iter([
            RingKind::Symmetric,
            RingKind::Intransitive,
            RingKind::Acyclic
        ])),
        compatible(RingKinds::from_iter([
            RingKind::Antisymmetric,
            RingKind::Intransitive,
            RingKind::Irreflexive,
            RingKind::Symmetric
        ])),
    );
    println!(
        "cross-check: verdicts equal brute-force relation enumeration over domains of \
         size 2 and 3, and equal strong satisfiability of one-fact probe schemas \
         (tests: ring::table, tests/cross_validation.rs)."
    );
}

fn sec3() {
    println!("{:<6} {:<55} relevant", "rule", "statement");
    let rows: Vec<(CheckCode, &str)> = vec![
        (CheckCode::Fr1, "never use FC(1-1); use uniqueness"),
        (CheckCode::Fr2, "no FC spanning a whole predicate"),
        (CheckCode::Fr3, "no FC on a sequence exactly spanned by a UC"),
        (CheckCode::Fr4, "no UC spanned by a longer UC"),
        (CheckCode::Fr5, "no exclusion on mandatory roles (= Pattern 3)"),
        (CheckCode::Fr6, "no exclusion across subtype-related players"),
        (CheckCode::Fr7, "FC bound vs other-role cardinalities (=> Pattern 4)"),
        (CheckCode::V1, "RIDL validity: isolated object type"),
        (CheckCode::V2, "RIDL validity: fact type without uniqueness"),
        (CheckCode::V3, "RIDL validity: value type playing no role"),
        (CheckCode::S1, "subset constraint may not be superfluous"),
        (CheckCode::S2, "subset constraints may not loop"),
        (CheckCode::S3, "equality constraint may not be superfluous"),
        (CheckCode::S4, "exclusion arguments may not share a subset"),
    ];
    for (code, statement) in rows {
        println!(
            "{:<6} {:<55} {}",
            format!("{code:?}"),
            statement,
            if code.is_unsat_relevant() { "yes" } else { "no (guideline)" }
        );
    }
    println!(
        "\nmatches the paper's §3 analysis: only rule 5 and S4 detect unsatisfiability;\n\
         Fig. 14 (violates rule 6, satisfiable) is verified by the model finder."
    );
}

fn fig15() {
    let fixture = fixtures::fig3();
    let with = Validator::new().validate(&fixture.schema);
    let without =
        Validator::with_settings(ValidatorSettings::patterns_only().without(CheckCode::P2))
            .validate(&fixture.schema);
    println!(
        "FIG3 with all patterns: {} finding(s); with Pattern 2 unticked: {} finding(s)",
        with.findings.len(),
        without.findings.len()
    );
    println!(
        "available toggles: {}",
        CheckCode::all().map(|c| format!("{c:?}")).collect::<Vec<_>>().join(", ")
    );
}

fn perf() {
    println!("{:<14} {:>12} {:>14} {:>14}", "schema", "patterns", "dl_tableau", "model_finder");
    for size in [6usize, 9, 12] {
        let clean = generate_clean(&GenConfig::sized(5, size));
        let faulty = faults::inject(&clean, faults::FaultKind::P7, 0);
        for (label, schema) in [("clean", &clean), ("faulty", &faulty)] {
            let t0 = Instant::now();
            let validator = Validator::new();
            let _ = validator.validate(schema);
            let patterns = t0.elapsed();

            let t0 = Instant::now();
            let translation = translate(schema);
            let cx = orm_dl::ExecCx::with_steps(100_000);
            for (role, _) in schema.roles() {
                let _ = translation.role_satisfiable_cx(role, &cx);
            }
            let dl = t0.elapsed();

            let t0 = Instant::now();
            let _ = if schema.fact_type_count() > 0 {
                strong_satisfiability(schema, Bounds::small())
            } else {
                concept_satisfiability(schema, Bounds::small())
            };
            let finder = t0.elapsed();

            println!(
                "{:<14} {:>12.2?} {:>14.2?} {:>14.2?}",
                format!("{label}_{size}"),
                patterns,
                dl,
                finder
            );
        }
    }
    println!(
        "\nshape check (paper §4): patterns stay in microseconds; the complete\n\
         procedures grow by orders of magnitude within a dozen schema elements.\n\
         criterion benches: figures, scaling, patterns_vs_complete, finder_bounds."
    );
}

fn beyond() {
    // E4: subset between roles of unrelated players.
    let mut b = orm_model::SchemaBuilder::new("e4_demo");
    let a = b.entity_type("A").expect("fresh");
    let c = b.entity_type("C").expect("fresh");
    let x = b.entity_type("X").expect("fresh");
    let f1 = b.fact_type("f1", a, x).expect("fresh");
    let f2 = b.fact_type("f2", c, x).expect("fresh");
    let r1 = b.schema().fact_type(f1).first();
    let r3 = b.schema().fact_type(f2).first();
    b.subset(orm_model::RoleSeq::single(r1), orm_model::RoleSeq::single(r3)).expect("valid");
    let schema = b.finish();
    let patterns_only = validate(&schema);
    let with_extensions = Validator::with_settings(ValidatorSettings::all()).validate(&schema);
    let finder = strong_satisfiability(&schema, Bounds::small());
    println!(
        "E4 demo (subset across unrelated players): nine patterns fire: {}; finder \
         verdict: {:?}; extension E4 fires: {}",
        patterns_only.has_unsat(),
        matches!(finder, Outcome::Satisfiable(_)),
        with_extensions.by_code(CheckCode::E4).count() == 1
    );

    // E5: mandatory + acyclic ring.
    let mut b = orm_model::SchemaBuilder::new("e5_demo");
    let t = b.entity_type("T").expect("fresh");
    let f = b.fact_type("precedes", t, t).expect("fresh");
    let r = b.schema().fact_type(f).first();
    b.mandatory(r).expect("valid");
    b.ring(f, [RingKind::Acyclic]).expect("valid");
    let schema = b.finish();
    let patterns_only = validate(&schema);
    let with_extensions = Validator::with_settings(ValidatorSettings::all()).validate(&schema);
    let finder = strong_satisfiability(&schema, Bounds::small());
    println!(
        "E5 demo (mandatory role on acyclic fact): nine patterns fire: {}; finder \
         verdict: {:?}; extension E5 fires: {}",
        patterns_only.has_unsat(),
        matches!(finder, Outcome::Satisfiable(_)),
        with_extensions.by_code(CheckCode::E5).count() == 1
    );
    println!(
        "\nBoth contradiction classes pass all nine patterns yet are refuted by the\n\
         complete reasoners — concrete confirmations of the paper's incompleteness\n\
         caveat, and implemented here as extension checks E4/E5 (paper §5's \"devise\n\
         more patterns\")."
    );
}
