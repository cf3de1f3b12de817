//! `diagbench` — the end-to-end diagnosis benchmark. See `README.md` beside
//! this package for the workloads, the metrics and what each should move.
//!
//! ```text
//! cargo run --release --manifest-path diagbench/Cargo.toml -- \
//!     --workload check_corpus --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path diagbench/Cargo.toml -- --self-test --seed 1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod corpus;
mod edits;
mod pipeline;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, peak_rss_mb, quantile, Stopwatch, Tracer};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The single-client workloads record deterministic counters over their
/// first this-many ops; every run completes at least these.
pub const COUNTED_OPS: usize = 12;

/// Named sums of work counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sums(pub BTreeMap<&'static str, f64>);

impl Sums {
    pub fn add(&mut self, name: &'static str, v: impl Into<f64>) {
        *self.0.entry(name).or_default() += v.into();
    }

    pub fn absorb(&mut self, other: &Sums) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

fn json_object<'a>(entries: impl Iterator<Item = (&'a str, f64)>) -> String {
    let body: Vec<String> = entries.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Add a [`orm_dl::CacheStats`] delta to the per-layer cache counters.
pub fn add_cache(sums: &mut Sums, before: &orm_dl::CacheStats, after: &orm_dl::CacheStats) {
    sums.add("dl.cache_hits", (after.hits - before.hits) as f64);
    sums.add("dl.cache_misses", (after.misses - before.misses) as f64);
    sums.add("dl.cache_retained", (after.retained - before.retained) as f64);
    sums.add("dl.cache_revalidated", (after.revalidated - before.revalidated) as f64);
    sums.add("dl.cache_evicted", (after.evicted - before.evicted) as f64);
}

/// What one measured phase (untraced or traced) produced.
#[derive(Default)]
pub struct Phase {
    /// Ops completed.
    pub ops: u64,
    /// Wall time of every op (of a sample, on `service_mixed`), in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall and CPU time of the timed parts only.
    pub clock: Stopwatch,
    /// Types and roles checked (or requests served, on `service_mixed`).
    pub units: u64,
    /// Units without a definite, certified answer.
    pub units_failed: u64,
    /// Ops that failed outright (shed or interrupted requests).
    pub ops_failed: u64,
    /// Correctness-gate violations; any one fails the run.
    pub violations: Vec<String>,
    /// Per-layer work counters over the whole phase.
    pub layer: Sums,
    /// Counters that must repeat exactly for a given seed.
    pub counted: Sums,
}

impl Phase {
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }
}

/// One benchmark workload, driven through the program's public API.
pub trait Workload: Sized {
    /// The per-query step budget the workload runs under.
    const STEP_BUDGET: u64;

    /// The program work done before the timed phase, from the seed alone.
    fn setup(seed: u64) -> Self;

    /// Untimed preparation of the correctness references (run once).
    fn prepare(&mut self) {}

    /// Run ops in a closed loop for `seconds` of timed work (and at least
    /// `min_ops` ops), checking every output.
    fn measure(&mut self, seconds: f64, min_ops: usize, tracer: &mut Tracer) -> Phase;

    /// Fingerprint of every generated input.
    fn inputs_fingerprint(&self) -> u64;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.workload.is_empty() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {} (expected one of {WORKLOADS:?})", args.workload));
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["check_corpus", "edit_session", "service_mixed"];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diagbench: {e}");
            eprintln!(
                "usage: diagbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
                 diagbench --self-test [--workload <name>] [--seed <n>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ok = if args.self_test {
        let names =
            if args.workload.is_empty() { WORKLOADS.to_vec() } else { vec![&*args.workload] };
        names.into_iter().fold(true, |ok, name| {
            ok & match name {
                "check_corpus" => self_test::<corpus::CheckCorpus>(name, args.seed),
                "edit_session" => self_test::<edits::EditSession>(name, args.seed),
                _ => self_test::<service::ServiceMixed>(name, args.seed),
            }
        })
    } else {
        match args.workload.as_str() {
            "check_corpus" => run::<corpus::CheckCorpus>(&args),
            "edit_session" => run::<edits::EditSession>(&args),
            _ => run::<service::ServiceMixed>(&args),
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of one phase, in `BENCHMARK.json` order.
fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let mut sorted = phase.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let ops = phase.ops as f64;
    let decided = 1.0 - phase.units_failed as f64 / phase.units.max(1) as f64;
    vec![
        ("latency_p50_ms", quantile(&sorted, 0.50), "ms"),
        ("latency_p90_ms", quantile(&sorted, 0.90), "ms"),
        ("latency_p99_ms", quantile(&sorted, 0.99), "ms"),
        ("ops_per_s", ops / phase.clock.wall_s, "1/s"),
        ("cpu_ms_per_op", phase.clock.cpu_s * 1e3 / ops, "ms"),
        ("decided_ratio", decided, "ratio"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Per-layer time metrics: span name → metric. `serve.*` spans are
/// averaged per call (one request or restore each); every other layer is
/// averaged per op, so the layers of an op add up to its latency.
const LAYER_TIMES: [(&str, &str); 13] = [
    ("syntax.parse", "syntax.parse_ms"),
    ("core.validate", "core.validate_ms"),
    ("dl.translate", "dl.translate_ms"),
    ("dl.sweep", "dl.sweep_ms"),
    ("dl.explain", "dl.explain_ms"),
    ("dl.repairs", "dl.repairs_ms"),
    ("dl.saturation", "dl.saturation_ms"),
    ("reasoner.diagnose", "reasoner.diagnose_ms"),
    ("syntax.verbalize", "syntax.verbalize_ms"),
    ("serve.check", "serve.check_ms"),
    ("serve.explain", "serve.explain_ms"),
    ("serve.edit", "serve.edit_ms"),
    ("serve.restore", "serve.restore_ms"),
];

/// Per-layer counters averaged per op.
const LAYER_COUNTS_PER_OP: [&str; 13] = [
    "core.findings",
    "dl.sweep_steps",
    "dl.sweep_proofs",
    "dl.sweep_undecided",
    "dl.explain_steps",
    "dl.explain_probes",
    "dl.family_incomplete",
    "dl.saturation_decided",
    "dl.cache_hits",
    "dl.cache_misses",
    "dl.cache_retained",
    "dl.cache_revalidated",
    "dl.cache_evicted",
];

/// The per-layer metrics `BENCHMARK.json` lists, from a traced phase.
fn per_layer(phase: &Phase, tracer: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let ops = phase.ops.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let get = |name: &str| phase.layer.0.get(name).copied().unwrap_or(0.0);
    let times = tracer.self_times();
    let mut out = Vec::new();
    for (span, metric) in LAYER_TIMES {
        let (ms, calls) = times.get(span).copied().unwrap_or((0.0, 0));
        let per = if span.starts_with("serve.") { calls as f64 } else { ops };
        out.push((metric, ratio(ms, per), "ms"));
    }
    for name in LAYER_COUNTS_PER_OP {
        out.push((name, get(name) / ops, "count"));
    }
    out.push(("dl.axioms", ratio(get("dl.axioms"), get("dl.translations")), "count"));
    out.push(("dl.core_size_mean", ratio(get("dl.core_axioms"), get("dl.cores")), "count"));
    let hits = get("dl.cache_hits");
    out.push(("dl.cache_hit_ratio", ratio(hits, hits + get("dl.cache_misses")), "ratio"));
    let bytes = ratio(get("serve.snapshot_bytes"), get("serve.snapshots"));
    out.push(("serve.snapshot_bytes", bytes, "bytes"));
    out.push(("serve.shed", get("serve.shed"), "count"));
    out.push(("serve.downgraded", get("serve.downgraded"), "count"));
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn run<W: Workload>(args: &Args) -> bool {
    let epoch = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = W::setup(args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPS > 0");
    let setup_s = median(&setups);
    w.prepare();

    let mut untraced = Tracer::new(false, epoch);
    let (phase, traced) = if args.trace {
        // The same inputs twice, first untraced and then traced, so their
        // difference is the tracing overhead.
        let base = w.measure(args.seconds / 2.0, COUNTED_OPS, &mut untraced);
        let mut tracer = Tracer::new(true, epoch);
        let phase = w.measure(args.seconds / 2.0, COUNTED_OPS, &mut tracer);
        (phase, Some((base, tracer)))
    } else {
        (w.measure(args.seconds, COUNTED_OPS, &mut untraced), None)
    };
    // The deterministic counters come from untraced work: the traced phase
    // calls the diagnosis in parts, which does more work.
    let plain = traced.as_ref().map_or(&phase, |(base, _)| base);

    let mut violations = phase.violations.clone();
    let e2e = end_to_end(&phase, setup_s);
    let mut context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"hardware_threads\": {}, \"step_budget\": {}, \"ops\": {}, \"units\": {}, \
         \"units_failed\": {}, \"failed_ratio\": {}, \"inputs_fnv1a\": \"{:016x}\", \
         \"setup_runs_s\": {:?}, \"counters\": {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hardware_threads(),
        W::STEP_BUDGET,
        plain.ops,
        plain.units,
        plain.units_failed,
        plain.units_failed as f64 / plain.units.max(1) as f64,
        w.inputs_fingerprint(),
        setups,
        json_object(plain.counted.0.iter().map(|(k, v)| (*k, *v))),
    );
    let metrics = if let Some((base, tracer)) = &traced {
        violations.extend(base.violations.iter().cloned());
        let rows: Vec<String> = end_to_end(base, setup_s)
            .iter()
            .zip(&e2e)
            .map(|((name, a, unit), (_, b, _))| {
                format!(
                    "\"{name}\": {{\"untraced\": {a}, \"traced\": {b}, \"difference\": {}, \
                     \"unit\": \"{unit}\"}}",
                    b - a
                )
            })
            .collect();
        let _ = write!(context, ", \"tracing_overhead\": {{{}}}", rows.join(", "));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => {
                let _ = write!(context, ", \"spans_file\": \"{}\"", path.display());
            }
            Err(e) => eprintln!("diagbench: could not write spans to {}: {e}", path.display()),
        }
        per_layer(&phase, tracer)
    } else {
        e2e
    };
    context.push('}');
    println!("{context}");

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = violations.is_empty() && finite && !phase.latencies_ms.is_empty();
    for v in &violations {
        eprintln!("diagbench: correctness violation: {v}");
    }
    if !finite {
        eprintln!("diagbench: a metric is not a finite number");
    }
    // A wrong output reports no numbers.
    let shown = if correct { metrics_json(&metrics) } else { "{}".to_owned() };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {shown}}}",
        phase.ops, phase.ops_failed
    );
    correct
}

/// Two setups and two counted prefixes from one seed must agree exactly:
/// same generated inputs, same work counters.
fn self_test<W: Workload>(name: &str, seed: u64) -> bool {
    let epoch = Instant::now();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut w = W::setup(seed);
        w.prepare();
        let phase = w.measure(0.0, COUNTED_OPS, &mut Tracer::new(false, epoch));
        runs.push((w.inputs_fingerprint(), phase));
    }
    let (a, b) = (&runs[0], &runs[1]);
    let same_inputs = a.0 == b.0;
    let same_counts = a.1.counted == b.1.counted;
    let clean = a.1.violations.is_empty() && b.1.violations.is_empty();
    for v in a.1.violations.iter().chain(&b.1.violations) {
        eprintln!("diagbench: {name}: correctness violation: {v}");
    }
    let ok = same_inputs && same_counts && clean && !a.1.counted.0.is_empty();
    let counters = |p: &Phase| json_object(p.counted.0.iter().map(|(k, v)| (*k, *v)));
    println!(
        "{{\"self_test\": \"{name}\", \"seed\": {seed}, \"ok\": {ok}, \"same_inputs\": {same_inputs}, \
         \"same_counters\": {same_counts}, \"inputs_fnv1a\": \"{:016x}\", \"counters\": {}, \
         \"counters_again\": {}}}",
        a.0,
        counters(&a.1),
        counters(&b.1)
    );
    ok
}
