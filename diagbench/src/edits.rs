//! `edit_session`: the per-keystroke loop on one client thread. Setup gives
//! one `InteractiveSession` over a clean base a full diagnosis and keeps a
//! snapshot of its warm cache. Each op applies one `EditSession` addition,
//! re-sweeps against the warm cache, runs `diagnose_with_cx` and renders
//! the result. Every [`RESTART_EVERY`] ops the session restarts from the
//! base and restores the snapshot, so doomed elements cannot pile up.

use crate::pipeline::{check_cores, sweep_and_diagnose, Sweep};
use crate::trace::{fnv1a, Tracer};
use crate::{add_cache, Phase, Sums, Workload, COUNTED_OPS};
use orm_dl::{ExecCx, SearchOutcome};
use orm_gen::{generate_clean, GenConfig};
use orm_model::{Constraint, ObjectTypeId, RoleId, Schema, SetComparisonKind};
use orm_reasoner::{diagnose_with_cx, DiagnosedElement, Diagnosis, InteractiveSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Object types (and binary fact types) of each clean base.
const BASE_TYPES: usize = 10;
/// Clean bases per run. The session restarts from the next base in turn,
/// so one run averages over many bases instead of resting on one. The
/// bases are the same for every seed: their costs differ by several times,
/// so a seed-drawn pool this small would make the run's figures depend on
/// which bases the seed drew. The seed draws the edit scripts.
const BASES: usize = 16;
/// Ops between restarts from the base.
const RESTART_EVERY: usize = 3;
/// Length of each base's seeded edit script; a run that reaches the end
/// starts over.
const SCRIPT_LEN: usize = 200;
/// Every this-many ops, the warm diagnosis is compared with a cold one.
const COLD_CHECK_EVERY: usize = 16;

/// One constraint addition. The re-assertions change no verdict but still
/// move the TBox revision, so the cache must retain or revalidate every
/// entry; the two plants each doom a few elements.
#[derive(Clone, Copy, Debug)]
enum Edit {
    /// Re-assert the link from a type to one of its ancestors.
    Subtype(ObjectTypeId, ObjectTypeId),
    /// Exclude two types that already have no common supertype.
    RootExclusion(ObjectTypeId, ObjectTypeId),
    /// P2: exclude a leaf type from its own supertype, dooming the leaf.
    PlantP2(ObjectTypeId, ObjectTypeId),
    /// P3: exclude a mandatory role from another role of its player,
    /// dooming the other role.
    PlantP3(RoleId, RoleId),
}

impl Edit {
    fn apply(self, e: &mut orm_dl::EditSession<'_>) {
        match self {
            Edit::Subtype(sub, sup) => e.add_subtype(sub, sup),
            Edit::RootExclusion(a, b) | Edit::PlantP2(a, b) => e.add_type_exclusion(a, b),
            Edit::PlantP3(a, b) => e.add_role_exclusion(a, b),
        }
    }

    /// The element a plant dooms.
    fn dooms(self) -> Option<DiagnosedElement> {
        match self {
            Edit::PlantP2(d, _) => Some(DiagnosedElement::Type(d)),
            Edit::PlantP3(_, r) => Some(DiagnosedElement::Role(r)),
            _ => None,
        }
    }
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

/// The seeded script. Unconstrained random additions doom most of a small
/// schema within a dozen edits, so the script keeps every element
/// satisfiable except that about one addition in five plants a P2 or P3
/// contradiction whose doom stays local: plant targets have no mandatory
/// co-role and head no subset, and no element is planted twice between
/// restarts.
fn script(base: &Schema, seed: u64) -> Vec<Edit> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED_17);
    let idx = base.index();
    let types: Vec<ObjectTypeId> = base.object_types().map(|(t, _)| t).collect();
    let mut subset_sups = BTreeSet::new();
    for (_, c) in base.constraints() {
        if let Constraint::SetComparison(sc) = c {
            if sc.kind != SetComparisonKind::Exclusion {
                subset_sups.extend(sc.args.iter().skip(1).flat_map(|s| s.roles().to_vec()));
            }
        }
    }
    let mandatory = |r: RoleId| idx.mandatory_on(r).is_some();
    // A role whose doom touches nothing else.
    let isolated =
        |r: RoleId| !mandatory(r) && !mandatory(base.co_role(r)) && !subset_sups.contains(&r);

    let mut chains = Vec::new();
    let mut unrelated = Vec::new();
    for (i, &a) in types.iter().enumerate() {
        chains.extend(idx.supers(a).iter().map(|&sup| Edit::Subtype(a, sup)));
        for &b in &types[i + 1..] {
            if !idx.may_overlap(a, b) {
                unrelated.push(Edit::RootExclusion(a, b));
            }
        }
    }
    let mut plants = Vec::new();
    for &d in &types {
        let roles = &idx.roles_of_type[d.index()];
        if idx.subs_direct[d.index()].is_empty() && roles.iter().all(|r| isolated(*r)) {
            plants.extend(idx.direct_supers(d).first().map(|&x| Edit::PlantP2(d, x)));
        }
    }
    for &(r1, _) in &idx.mandatory_roles {
        let player = base.player(r1);
        let others = idx.roles_of_type[player.index()].iter().filter(|&&r| r != r1 && isolated(r));
        plants.extend(others.map(|&r3| Edit::PlantP3(r1, r3)));
    }

    // Roles doomed since the last restart (with the types a P2 dooms).
    let mut doomed: BTreeSet<RoleId> = BTreeSet::new();
    let mut doomed_types: BTreeSet<ObjectTypeId> = BTreeSet::new();
    (0..SCRIPT_LEN)
        .map(|i| {
            if i.is_multiple_of(RESTART_EVERY) {
                doomed.clear();
                doomed_types.clear();
            }
            let pool: Vec<Edit> = match rng.gen_range(0..10) {
                0 | 1 => plants
                    .iter()
                    .copied()
                    .filter(|e| match *e {
                        Edit::PlantP2(d, _) => !doomed_types.contains(&d),
                        Edit::PlantP3(r1, r3) => !doomed.contains(&r1) && !doomed.contains(&r3),
                        _ => true,
                    })
                    .collect(),
                2..=5 => chains.clone(),
                _ => unrelated.clone(),
            };
            let edit = pick(&mut rng, &pool)
                .or_else(|| pick(&mut rng, &unrelated))
                .unwrap_or(Edit::Subtype(types[0], types[0]));
            match edit {
                Edit::PlantP2(d, _) => {
                    doomed_types.insert(d);
                    for &r in &idx.roles_of_type[d.index()] {
                        doomed.extend([r, base.co_role(r)]);
                    }
                }
                Edit::PlantP3(_, r3) => doomed.extend([r3, base.co_role(r3)]),
                _ => {}
            }
            edit
        })
        .collect()
}

/// One clean base: its schema, the snapshot of its fully diagnosed
/// session, and its edit script.
struct Base {
    schema: Schema,
    snapshot: Vec<u8>,
    script: Vec<Edit>,
}

pub struct EditSession {
    bases: Vec<Base>,
    setup_counts: Sums,
}

fn render(diagnoses: &[Diagnosis]) -> String {
    diagnoses.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
}

/// The cores of a family, order-free.
fn core_set(d: &Diagnosis) -> BTreeSet<Vec<orm_dl::AxiomId>> {
    d.family.cores.iter().map(|c| c.axioms.clone()).collect()
}

/// Warm and cold runs may differ only where the step budget cut one of
/// them short: no element may be Sat in one and Unsat in the other, and
/// a family both runs enumerated completely must hold the same cores.
fn warm_matches_cold(warm: (&Sweep, &[Diagnosis]), cold: (&Sweep, &[Diagnosis])) -> bool {
    let opposite = |a: Option<SearchOutcome>, b: Option<SearchOutcome>| {
        matches!(
            (a, b),
            (Some(SearchOutcome::Sat), Some(SearchOutcome::Unsat))
                | (Some(SearchOutcome::Unsat), Some(SearchOutcome::Sat))
        )
    };
    let verdicts_agree = warm.0.elements().all(|e| !opposite(warm.0.verdict(e), cold.0.verdict(e)));
    let families_agree = warm.1.iter().all(|w| {
        cold.1
            .iter()
            .filter(|c| c.element == w.element)
            .all(|c| !(w.family.complete && c.family.complete) || core_set(w) == core_set(c))
    });
    verdicts_agree && families_agree
}

impl Workload for EditSession {
    const STEP_BUDGET: u64 = 5_000;

    fn setup(seed: u64) -> EditSession {
        let mut setup_counts = Sums::default();
        let mut bases = Vec::with_capacity(BASES);
        for k in 0u64.. {
            assert!(k < 8 * BASES as u64, "too few clean bases decide within the step budget");
            let schema = generate_clean(&GenConfig {
                n_types: BASE_TYPES,
                n_facts: BASE_TYPES,
                ..GenConfig::medium(k ^ 0xBA5E)
            });
            let session = InteractiveSession::new(&schema);
            let cx = ExecCx::with_steps(Self::STEP_BUDGET);
            let types = session.type_sweep_cx(&schema, &cx);
            let roles = session.role_sweep_cx(&schema, &cx);
            setup_counts.add("setup.candidates", 1.0);
            setup_counts.add("setup.steps", cx.meter().steps() as f64);
            setup_counts.add("setup.proofs", cx.meter().proofs() as f64);
            // Only bases the tableau decides completely: the edit loop then
            // does cold tableau work only where an edit makes it necessary.
            let decided =
                |v: &SearchOutcome| matches!(v, SearchOutcome::Sat | SearchOutcome::Unsat);
            if !(types.iter().all(|(_, v)| decided(v)) && roles.iter().all(|(_, v)| decided(v))) {
                continue;
            }
            let diagnoses = diagnose_with_cx(&schema, session.translation(), &cx);
            let snapshot = session.snapshot();
            setup_counts.add("setup.diagnoses", diagnoses.len() as f64);
            setup_counts.add("setup.snapshot_bytes", snapshot.len() as f64);
            let script = script(&schema, seed ^ k);
            bases.push(Base { schema, snapshot, script });
            if bases.len() == BASES {
                break;
            }
        }
        EditSession { bases, setup_counts }
    }

    fn measure(&mut self, seconds: f64, min_ops: usize, tracer: &mut Tracer) -> Phase {
        let budget = Self::STEP_BUDGET;
        let mut phase = Phase { counted: self.setup_counts.clone(), ..Phase::default() };
        let mut session: Option<InteractiveSession> = None;
        let mut planted: Vec<DiagnosedElement> = Vec::new();
        let mut op = 0;
        while phase.clock.wall_s < seconds || op < min_ops {
            tracer.set_op(op as u64);
            let mut layer = Sums::default();
            // Segments of RESTART_EVERY ops visit the bases in turn.
            let segment = op / RESTART_EVERY;
            let base = &self.bases[segment % BASES];
            if op.is_multiple_of(RESTART_EVERY) {
                // A restart is timed work but not part of any op's latency.
                let (restarted, _) = phase.clock.run(|| {
                    let s = tracer.time("dl.translate", || InteractiveSession::new(&base.schema));
                    let restored = tracer.time("reasoner.restore", || s.restore(&base.snapshot));
                    (s, restored)
                });
                if let Err(e) = restarted.1 {
                    phase.violation(format!(
                        "edit_session: a setup snapshot does not restore: {e:?}"
                    ));
                }
                layer.add("dl.axioms", restarted.0.translation().tbox.axiom_count() as f64);
                layer.add("dl.translations", 1.0);
                session = Some(restarted.0);
                planted.clear();
            }
            let s = session.as_mut().expect("a session starts at op 0");
            let step = (segment / BASES) * RESTART_EVERY + op % RESTART_EVERY;
            let edit = base.script[step % base.script.len()];
            let before = s.cache_stats();
            let ((sweep, diagnoses), ms) = phase.clock.run(|| {
                let open = tracer.begin("op");
                edit.apply(&mut s.edit());
                let (sweep, diagnoses) =
                    sweep_and_diagnose(&base.schema, s.translation(), budget, tracer, &mut layer);
                let rendered = tracer.time("syntax.verbalize", || render(&diagnoses));
                layer.add("rendered_bytes", rendered.len() as f64);
                tracer.end(open);
                (sweep, diagnoses)
            });
            phase.latencies_ms.push(ms);
            phase.ops += 1;
            add_cache(&mut layer, &before, &s.cache_stats());

            phase.units += sweep.units();
            phase.units_failed += sweep.failed(&diagnoses);
            let what = format!("edit #{op} {edit:?}");
            check_cores(s.translation(), &diagnoses, budget, &mut phase, &what);
            planted.extend(edit.dooms());
            for &target in &planted {
                if sweep.verdict(target) == Some(SearchOutcome::Sat) {
                    phase.violation(format!("{what}: planted doom of {target:?} swept Sat"));
                }
            }
            if op % COLD_CHECK_EVERY == COLD_CHECK_EVERY - 1 {
                // A clone shares the TBox but starts with an empty cache.
                let cold = s.translation().clone();
                let (mut off, mut scratch) = (tracer.fork_off(), Sums::default());
                let (cold_sweep, cold_diagnoses) =
                    sweep_and_diagnose(&base.schema, &cold, budget, &mut off, &mut scratch);
                if !warm_matches_cold((&sweep, &diagnoses), (&cold_sweep, &cold_diagnoses)) {
                    phase.violation(format!("{what}: warm diagnosis contradicts a cold one"));
                }
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
        let all: Vec<String> = self
            .bases
            .iter()
            .map(|b| format!("{}\n{:?}", orm_syntax::print(&b.schema), b.script))
            .collect();
        fnv1a(all.join("\n").as_bytes())
    }
}
