//! `check_corpus`: cold one-shot schema checks on one client thread. Each op
//! takes one `.orm` text through parse → validate → translate → type and
//! role sweeps → `diagnose_with_cx` → `diagnose_saturation` → rendering,
//! with a fresh translation, so the verdict cache never carries over.

use crate::pipeline::{check_cores, sweep_and_diagnose, Sweep};
use crate::trace::{fnv1a, Tracer};
use crate::{add_cache, Phase, Sums, Workload, COUNTED_OPS};
use orm_dl::{ExecCx, SaturationEngine, SaturationOutcome, SearchOutcome, Translation};
use orm_gen::faults::{inject, FaultKind};
use orm_gen::{generate_clean, GenConfig};
use orm_model::Schema;
use orm_reasoner::{diagnose_saturation, DiagnosedElement, Diagnosis, SaturationDiagnosis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generated schemas after the fixed inputs: more than a 30 s run checks,
/// so no schema counts twice. A longer run wraps around.
const GENERATED: usize = 1200;

/// A schema element, named as the `.orm` text names it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Elem {
    Type(String),
    Role(String),
}

/// What the correctness gate expects of one input.
struct Expect {
    /// No element may be diagnosed.
    clean: bool,
    /// Elements the DL or the saturation diagnosis must report.
    doomed: Vec<Elem>,
    /// Only planted elements (named `__…`) may be diagnosed.
    only_planted: bool,
}

struct Input {
    name: String,
    text: String,
    expect: Expect,
}

pub struct CheckCorpus {
    corpus: Vec<Input>,
}

/// The elements a planted fault dooms, by the names `orm_gen::faults`
/// gives them. P5 dooms no single element, only the joint population of
/// its three roles.
fn doomed_by(kind: FaultKind, tag: usize) -> Vec<Elem> {
    let ty = |n: &str| Elem::Type(format!("__{n}_{tag}"));
    let fact =
        |f: &str| vec![Elem::Role(format!("__{f}_{tag}.0")), Elem::Role(format!("__{f}_{tag}.1"))];
    match kind {
        FaultKind::P1 => vec![ty("p1_c")],
        FaultKind::P2 => vec![ty("p2_d")],
        FaultKind::P3 => fact("p3_f2"),
        FaultKind::P4 => fact("p4_f"),
        FaultKind::P5 => Vec::new(),
        FaultKind::P6 => fact("p6_f1"),
        FaultKind::P7 => fact("p7_f"),
        FaultKind::P8 => fact("p8_f"),
        FaultKind::P9 => vec![ty("p9_a"), ty("p9_b"), ty("p9_c")],
        FaultKind::E5Trap => [vec![ty("e5_w")], fact("e5_f")].concat(),
        FaultKind::RingSplit => fact("rs_f"),
        FaultKind::SpanFreq => fact("sf_f"),
    }
}

fn fixed(name: &str, text: String, doomed: &[Elem]) -> Input {
    let expect = Expect { clean: doomed.is_empty(), doomed: doomed.to_vec(), only_planted: false };
    Input { name: name.to_owned(), text, expect }
}

/// The fixed inputs: the three example schemas and the explain battery.
fn fixed_inputs() -> Vec<Input> {
    let (t, r) = (|n: &str| Elem::Type(n.to_owned()), |n: &str| Elem::Role(n.to_owned()));
    let battery = orm_bench::tableau_scenarios::explain_battery(8);
    vec![
        fixed("library.orm", include_str!("../../examples/schemas/library.orm").to_owned(), &[]),
        fixed(
            "fig1_university.orm",
            include_str!("../../examples/schemas/fig1_university.orm").to_owned(),
            &[t("PhdStudent")],
        ),
        fixed(
            "faulty_flight.orm",
            include_str!("../../examples/schemas/faulty_flight.orm").to_owned(),
            &[t("CargoPassengerFlight"), r("departing"), r("origin"), r("earlier"), r("later")],
        ),
        fixed(
            &battery.name,
            orm_syntax::print(&battery.schema),
            &[t("Phd"), r("f2.0"), r("f2.1"), r("f3.0"), r("f3.1")],
        ),
    ]
}

/// Draws without replacement from `items`, reshuffling when empty, so every
/// stretch of the corpus holds a balanced mix of sizes and faults.
struct Deck<T: Copy> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        Deck { items, left: Vec::new() }
    }

    fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.left.is_empty() {
            self.left = self.items.clone();
            for i in (1..self.left.len()).rev() {
                self.left.swap(i, rng.gen_range(0..i + 1));
            }
        }
        self.left.pop().expect("decks are non-empty")
    }
}

/// `generate_clean` schemas of 4–16 object types, each carrying 0–3 faults
/// from `FaultKind::ALL` ∪ `BEYOND_DL`, printed to `.orm` text.
fn generated_inputs(seed: u64) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_4B05);
    let mut kinds: Vec<FaultKind> = FaultKind::ALL.to_vec();
    kinds.extend(FaultKind::BEYOND_DL.iter().filter(|k| !FaultKind::ALL.contains(k)));
    let mut sizes = Deck::new((4..=16).collect());
    let mut fault_counts = Deck::new(vec![0, 1, 2, 3]);
    let mut faults = Deck::new(kinds);
    (0..GENERATED)
        .map(|i| {
            let n = sizes.draw(&mut rng);
            let gen_seed = rng.gen_range(0..u64::MAX);
            let mut schema = generate_clean(&GenConfig {
                n_types: n,
                n_facts: n,
                ..GenConfig::medium(gen_seed)
            });
            let mut planted = Vec::new();
            let mut doomed = Vec::new();
            for tag in 0..fault_counts.draw(&mut rng) {
                let kind = faults.draw(&mut rng);
                schema = inject(&schema, kind, tag);
                planted.push(kind);
                doomed.extend(doomed_by(kind, tag));
            }
            let expect = Expect { clean: planted.is_empty(), doomed, only_planted: true };
            let name = format!("generated #{i} ({n} types, faults {planted:?})");
            Input { name, text: orm_syntax::print(&schema), expect }
        })
        .collect()
}

/// Everything one op produced, kept for the untimed checks.
struct Output {
    schema: Schema,
    translation: Translation,
    sweep: Sweep,
    diagnoses: Vec<Diagnosis>,
    saturation: Vec<SaturationDiagnosis>,
}

/// One op: the whole check of one `.orm` text.
fn check(text: &str, tracer: &mut Tracer, layer: &mut Sums) -> Result<Output, String> {
    let budget = CheckCorpus::STEP_BUDGET;
    let schema =
        tracer.time("syntax.parse", || orm_syntax::parse(text)).map_err(|e| e.to_string())?;
    let report = tracer.time("core.validate", || orm_core::validate(&schema));
    layer.add("core.findings", report.findings.len() as f64);
    let translation = tracer.time("dl.translate", || orm_dl::translate(&schema));
    layer.add("dl.axioms", translation.tbox.axiom_count() as f64);
    layer.add("dl.translations", 1.0);
    let (sweep, diagnoses) = sweep_and_diagnose(&schema, &translation, budget, tracer, layer);
    let cx = ExecCx::with_steps(budget);
    let saturation = tracer.time("dl.saturation", || diagnose_saturation(&schema, &cx));
    layer.add("dl.saturation_decided", saturation.len() as f64);
    let rendered = tracer.time("syntax.verbalize", || {
        let dl = diagnoses.iter().map(ToString::to_string);
        dl.chain(saturation.iter().map(ToString::to_string)).collect::<Vec<_>>().join("\n")
    });
    layer.add("rendered_bytes", rendered.len() as f64);
    add_cache(layer, &orm_dl::CacheStats::default(), &translation.cache_stats());
    Ok(Output { schema, translation, sweep, diagnoses, saturation })
}

fn elem(schema: &Schema, e: DiagnosedElement) -> Elem {
    match e {
        DiagnosedElement::Type(ty) => Elem::Type(schema.object_type(ty).name().to_owned()),
        DiagnosedElement::Role(r) => Elem::Role(schema.role_label(r).to_owned()),
    }
}

/// A DL verdict the saturation engine contradicts. The saturation engine
/// may refute what the DL calls Sat only with a construct the DL cannot
/// express (`beyond_dl`).
fn contradicts(dl: SearchOutcome, saturation: &SaturationOutcome) -> bool {
    match (dl, saturation) {
        (SearchOutcome::Unsat, SaturationOutcome::Sat(_)) => true,
        (SearchOutcome::Sat, SaturationOutcome::Unsat(r)) => !r.beyond_dl,
        _ => false,
    }
}

/// The untimed correctness gate for one op.
fn verify(input: &Input, out: &Output, phase: &mut Phase) {
    let budget = CheckCorpus::STEP_BUDGET;
    check_cores(&out.translation, &out.diagnoses, budget, phase, &input.name);

    let engine = SaturationEngine::new(&out.schema);
    let cx = ExecCx::with_steps(budget);
    for (ty, dl) in &out.sweep.types {
        if contradicts(*dl, &engine.check_type(*ty, &cx)) {
            let name = out.schema.object_type(*ty).name();
            phase.violation(format!("{}: DL and saturation disagree on `{name}`", input.name));
        }
    }
    for (role, dl) in &out.sweep.roles {
        if contradicts(*dl, &engine.check_role(*role, &cx)) {
            let name = out.schema.role_label(*role);
            phase.violation(format!("{}: DL and saturation disagree on `{name}`", input.name));
        }
    }

    let dl = out.diagnoses.iter().map(|d| elem(&out.schema, d.element));
    let reported: Vec<Elem> =
        dl.chain(out.saturation.iter().map(|d| elem(&out.schema, d.element))).collect();
    if input.expect.clean && !reported.is_empty() {
        phase.violation(format!("{}: clean schema diagnosed with {reported:?}", input.name));
    }
    for e in &input.expect.doomed {
        if !reported.contains(e) {
            phase.violation(format!("{}: doomed {e:?} not reported", input.name));
        }
    }
    if input.expect.only_planted {
        for e in &reported {
            let (Elem::Type(n) | Elem::Role(n)) = e;
            if !n.starts_with("__") {
                phase.violation(format!("{}: host element {e:?} diagnosed", input.name));
            }
        }
    }
}

impl Workload for CheckCorpus {
    const STEP_BUDGET: u64 = 2_000;

    fn setup(seed: u64) -> CheckCorpus {
        let mut corpus = fixed_inputs();
        corpus.extend(generated_inputs(seed));
        CheckCorpus { corpus }
    }

    fn measure(&mut self, seconds: f64, min_ops: usize, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut op = 0;
        while phase.clock.wall_s < seconds || op < min_ops {
            let input = &self.corpus[op % self.corpus.len()];
            tracer.set_op(op as u64);
            let mut layer = Sums::default();
            let (out, ms) = phase.clock.run(|| {
                let open = tracer.begin("op");
                let out = check(&input.text, tracer, &mut layer);
                tracer.end(open);
                out
            });
            phase.latencies_ms.push(ms);
            phase.ops += 1;
            match out {
                Ok(out) => {
                    phase.units += out.sweep.units();
                    phase.units_failed += out.sweep.failed(&out.diagnoses);
                    verify(input, &out, &mut phase);
                }
                Err(e) => phase.violation(format!("{}: does not parse: {e}", input.name)),
            }
            phase.layer.absorb(&layer);
            if op < COUNTED_OPS {
                phase.counted.absorb(&layer);
            }
            op += 1;
        }
        phase
    }

    fn inputs_fingerprint(&self) -> u64 {
        let all: Vec<&str> = self.corpus.iter().map(|i| i.text.as_str()).collect();
        fnv1a(all.join("\n").as_bytes())
    }
}
