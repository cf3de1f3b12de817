//! The DL half of an op, shared by `check_corpus` and `edit_session`:
//! sweep every type and role, diagnose the doomed ones, and check what
//! came back.

use crate::trace::Tracer;
use crate::{Phase, Sums};
use orm_dl::explain::core_refutes;
use orm_dl::{Concept, ExecCx, MusEnumeration, SearchOutcome, Translation};
use orm_model::{ObjectTypeId, RoleId, Schema};
use orm_reasoner::{diagnose_with_cx, DiagnosedElement, Diagnosis, FAMILY_LIMIT};

/// Verdicts of one type sweep and one role sweep.
pub struct Sweep {
    pub types: Vec<(ObjectTypeId, SearchOutcome)>,
    pub roles: Vec<(RoleId, SearchOutcome)>,
}

fn decided(v: SearchOutcome) -> bool {
    matches!(v, SearchOutcome::Sat | SearchOutcome::Unsat)
}

impl Sweep {
    pub fn units(&self) -> u64 {
        (self.types.len() + self.roles.len()) as u64
    }

    /// Every swept element.
    pub fn elements(&self) -> impl Iterator<Item = DiagnosedElement> + '_ {
        let types = self.types.iter().map(|(t, _)| DiagnosedElement::Type(*t));
        types.chain(self.roles.iter().map(|(r, _)| DiagnosedElement::Role(*r)))
    }

    pub fn verdict(&self, e: DiagnosedElement) -> Option<SearchOutcome> {
        match e {
            DiagnosedElement::Type(ty) => {
                self.types.iter().find(|(t, _)| *t == ty).map(|(_, v)| *v)
            }
            DiagnosedElement::Role(r) => self.roles.iter().find(|(x, _)| *x == r).map(|(_, v)| *v),
        }
    }

    fn undecided(&self) -> usize {
        let types = self.types.iter().filter(|(_, v)| !decided(*v)).count();
        types + self.roles.iter().filter(|(_, v)| !decided(*v)).count()
    }

    /// Units without a definite verdict, or Unsat without a certified
    /// core in `diagnoses`.
    pub fn failed(&self, diagnoses: &[Diagnosis]) -> u64 {
        let diagnosed = |e: DiagnosedElement| diagnoses.iter().any(|d| d.element == e);
        let failed = |v: SearchOutcome, e: DiagnosedElement| {
            !decided(v) || (v == SearchOutcome::Unsat && !diagnosed(e))
        };
        let types = self.types.iter().filter(|(t, v)| failed(*v, DiagnosedElement::Type(*t)));
        let roles = self.roles.iter().filter(|(r, v)| failed(*v, DiagnosedElement::Role(*r)));
        (types.count() + roles.count()) as u64
    }
}

pub fn element_query(t: &Translation, element: DiagnosedElement) -> Concept {
    match element {
        DiagnosedElement::Type(ty) => t.type_concept(ty),
        DiagnosedElement::Role(role) => t.role_concept(role),
    }
}

/// Sweep, then diagnose, each stage under a fresh context of its own so
/// its meter counts that stage alone.
pub fn sweep_and_diagnose(
    schema: &Schema,
    t: &Translation,
    budget: u64,
    tracer: &mut Tracer,
    layer: &mut Sums,
) -> (Sweep, Vec<Diagnosis>) {
    let cx = ExecCx::with_steps(budget);
    let sweep = tracer.time("dl.sweep", || Sweep {
        types: t.type_sweep_cx(schema, &cx),
        roles: t.role_sweep_cx(schema, &cx),
    });
    layer.add("dl.sweep_steps", cx.meter().steps() as f64);
    layer.add("dl.sweep_proofs", cx.meter().proofs() as f64);
    layer.add("dl.sweep_undecided", sweep.undecided() as f64);
    if tracer.is_on() {
        diagnose_in_parts(schema, t, budget, tracer, layer);
    }
    let cx = ExecCx::with_steps(budget);
    let diagnoses = tracer.time("reasoner.diagnose", || diagnose_with_cx(schema, t, &cx));
    layer.add("reasoner.diagnose_steps", cx.meter().steps() as f64);
    layer.add("reasoner.diagnose_proofs", cx.meter().proofs() as f64);
    layer.add("reasoner.diagnoses", diagnoses.len() as f64);
    for d in &diagnoses {
        layer.add("dl.family_incomplete", f64::from(u8::from(!d.family.complete)));
        layer.add("dl.cores", d.family.len() as f64);
        layer.add("dl.core_axioms", d.family.cores.iter().map(|c| c.len()).sum::<usize>() as f64);
    }
    (sweep, diagnoses)
}

/// The traced run splits `diagnose_with_cx` from outside: it first calls
/// that function's public parts in the same order — the per-element
/// satisfiability check, `enumerate_*_cx`, `repairs_for_cx` — so the
/// final `reasoner.diagnose` span holds only the work that remains.
fn diagnose_in_parts(
    schema: &Schema,
    t: &Translation,
    budget: u64,
    tracer: &mut Tracer,
    layer: &mut Sums,
) {
    let (recheck, explain, repairs) =
        (ExecCx::with_steps(budget), ExecCx::with_steps(budget), ExecCx::with_steps(budget));
    let parts = |query: Concept, enumerate: &dyn Fn() -> MusEnumeration, tracer: &mut Tracer| {
        let found = tracer.time("dl.explain", enumerate);
        if let MusEnumeration::Unsat(family) = found {
            tracer.time("dl.repairs", || t.repairs_for_cx(&query, &repairs, &family));
        }
    };
    for (ty, _) in schema.object_types() {
        if tracer.time("dl.recheck", || t.type_satisfiable_cx(ty, &recheck)) == SearchOutcome::Unsat
        {
            parts(t.type_concept(ty), &|| t.enumerate_type_cx(ty, &explain, FAMILY_LIMIT), tracer);
        }
    }
    for (role, _) in schema.roles() {
        if tracer.time("dl.recheck", || t.role_satisfiable_cx(role, &recheck))
            == SearchOutcome::Unsat
        {
            parts(
                t.role_concept(role),
                &|| t.enumerate_role_cx(role, &explain, FAMILY_LIMIT),
                tracer,
            );
        }
    }
    layer.add("dl.explain_steps", explain.meter().steps() as f64);
    layer.add("dl.explain_probes", explain.meter().proofs() as f64);
}

/// Every core of every diagnosis must refute its element on its own.
pub fn check_cores(
    t: &Translation,
    diagnoses: &[Diagnosis],
    budget: u64,
    phase: &mut Phase,
    what: &str,
) {
    for d in diagnoses {
        let query = element_query(t, d.element);
        for core in &d.family.cores {
            if !core_refutes(&t.tbox, core, &query, budget) {
                phase
                    .violation(format!("{what}: a core of `{}` does not refute it alone", d.label));
            }
        }
    }
}
