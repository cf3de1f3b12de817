//! `service_mixed`: reads beside writes on one `ReasonerService` with the
//! default config, serving `explain_battery(8)`. Two client threads run a
//! closed loop of about 85% `check_type`/`check_role`, 10% `explain_type`
//! and 5% tautological edits. Each epoch starts a fresh service and
//! restores the snapshot taken in setup.

use crate::trace::{fnv1a, Tracer};
use crate::{add_cache, Phase, Sums, Workload};
use orm_dl::explain::core_refutes;
use orm_dl::{CacheStats, EditSession, ExecCx, Explanation, SearchOutcome};
use orm_model::{ObjectTypeId, RoleId, Schema};
use orm_serve::{ReasonerService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Client threads, matching the two hardware threads of the box the
/// workload was designed on.
const CLIENTS: usize = 2;
/// Requests per client per epoch.
const EPOCH_REQUESTS: usize = 2048;
/// Most requests are sub-microsecond cache hits, so a run serves millions.
/// Every request is served and checked, but only every this-many (by
/// position in its client's stream) is timed and traced, which keeps the
/// samples small without biasing them.
const SAMPLE_EVERY: usize = 256;

/// An edit that re-asserts an axiom the TBox already implies, so no
/// verdict changes — but the TBox revision still moves and forces the
/// cache to revalidate.
#[derive(Clone, Copy, Debug)]
enum Tautology {
    /// An existing subtype link.
    Subtype(ObjectTypeId, ObjectTypeId),
    /// The implicit exclusion of two types without a common supertype.
    Exclusion(ObjectTypeId, ObjectTypeId),
}

#[derive(Clone, Copy, Debug)]
enum Request {
    CheckType(ObjectTypeId),
    CheckRole(RoleId),
    ExplainType(ObjectTypeId),
    Edit(Tautology),
}

enum Answer {
    Verdict(SearchOutcome),
    Explained(Explanation),
    Edited,
    Shed,
}

impl Answer {
    fn failed(&self) -> bool {
        match self {
            Answer::Verdict(v) => !matches!(v, SearchOutcome::Sat | SearchOutcome::Unsat),
            Answer::Explained(e) => matches!(e, Explanation::ResourceLimit),
            Answer::Edited => false,
            Answer::Shed => true,
        }
    }
}

/// One client's seeded request stream.
struct Script {
    rng: StdRng,
}

impl Script {
    fn new(seed: u64, client: usize) -> Script {
        Script { rng: StdRng::seed_from_u64(seed ^ (0x5E_0000 + client as u64)) }
    }

    fn next(&mut self, w: &ServiceMixed) -> Request {
        let rng = &mut self.rng;
        let roll = rng.gen_range(0..100);
        if roll < 85 {
            let i = rng.gen_range(0..w.types.len() + w.roles.len());
            match w.types.get(i) {
                Some(&ty) => Request::CheckType(ty),
                None => Request::CheckRole(w.roles[i - w.types.len()]),
            }
        } else if roll < 95 {
            Request::ExplainType(w.types[rng.gen_range(0..w.types.len())])
        } else {
            Request::Edit(w.tautologies[rng.gen_range(0..w.tautologies.len())])
        }
    }
}

pub struct ServiceMixed {
    seed: u64,
    schema: Schema,
    types: Vec<ObjectTypeId>,
    roles: Vec<RoleId>,
    tautologies: Vec<Tautology>,
    snapshot: Vec<u8>,
    setup_counts: Sums,
    /// Sequential verdicts of a fresh translation at the service's budget.
    reference: BTreeMap<(bool, u32), SearchOutcome>,
}

fn key(req: Request) -> Option<(bool, u32)> {
    match req {
        Request::CheckType(ty) | Request::ExplainType(ty) => Some((false, ty.raw())),
        Request::CheckRole(role) => Some((true, role.raw())),
        Request::Edit(_) => None,
    }
}

fn serve(service: &ReasonerService, req: Request, tracer: &mut Tracer) -> Answer {
    let cx = ExecCx::unlimited();
    let verdict = |r: Result<SearchOutcome, _>| r.map_or(Answer::Shed, Answer::Verdict);
    match req {
        Request::CheckType(ty) => {
            verdict(tracer.time("serve.check", || service.check_type(ty, &cx)))
        }
        Request::CheckRole(r) => verdict(tracer.time("serve.check", || service.check_role(r, &cx))),
        Request::ExplainType(ty) => tracer
            .time("serve.explain", || service.explain_type(ty, &cx))
            .map_or(Answer::Shed, Answer::Explained),
        Request::Edit(t) => {
            tracer.time("serve.edit", || {
                service.edit(|e: &mut EditSession<'_>| match t {
                    Tautology::Subtype(sub, sup) => e.add_subtype(sub, sup),
                    Tautology::Exclusion(a, b) => e.add_type_exclusion(a, b),
                })
            });
            Answer::Edited
        }
    }
}

/// One client's share of an epoch: its answers (with the latency of the
/// sampled ones) and its spans.
type ClientLog = (Vec<(Request, Answer, Option<f64>)>, Tracer);

impl ServiceMixed {
    /// Every client's next `EPOCH_REQUESTS` requests.
    fn next_requests(&self, scripts: &mut [Script]) -> Vec<Vec<Request>> {
        scripts.iter_mut().map(|s| (0..EPOCH_REQUESTS).map(|_| s.next(self)).collect()).collect()
    }

    /// Run one epoch: a fresh service, the setup snapshot restored, then
    /// one client thread per request list.
    fn epoch(
        &self,
        requests: Vec<Vec<Request>>,
        first_op: u64,
        tracer: &mut Tracer,
    ) -> (ReasonerService, Vec<ClientLog>, CacheStats) {
        let service = tracer
            .time("dl.translate", || ReasonerService::new(&self.schema, ServiceConfig::default()));
        tracer
            .time("serve.restore", || service.restore(&self.snapshot))
            .expect("the setup snapshot restores into a fresh service");
        let restored = service.stats();
        let logs = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .into_iter()
                .enumerate()
                .map(|(client, reqs)| {
                    let (mut t, mut off) = (tracer.fork(), tracer.fork_off());
                    let service = &service;
                    scope.spawn(move || {
                        let mut log = Vec::with_capacity(reqs.len());
                        for (i, req) in reqs.into_iter().enumerate() {
                            if !i.is_multiple_of(SAMPLE_EVERY) {
                                log.push((req, serve(service, req, &mut off), None));
                                continue;
                            }
                            t.set_op(first_op + (client * EPOCH_REQUESTS + i) as u64);
                            let open = t.begin("op");
                            let t0 = Instant::now();
                            let answer = serve(service, req, &mut t);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            t.end(open);
                            log.push((req, answer, Some(ms)));
                        }
                        (log, t)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        (service, logs, restored)
    }
}

impl Workload for ServiceMixed {
    const STEP_BUDGET: u64 = 100_000;

    fn setup(seed: u64) -> ServiceMixed {
        let schema = orm_bench::tableau_scenarios::explain_battery(8).schema;
        let service = ReasonerService::new(&schema, ServiceConfig::default());
        let cx = ExecCx::unlimited();
        let types = service.type_sweep(&schema, &cx).expect("an idle service admits a sweep");
        service.role_sweep(&schema, &cx).expect("an idle service admits a sweep");
        for &(ty, v) in &types {
            if v == SearchOutcome::Unsat {
                service.explain_type(ty, &cx).expect("an idle service admits a query");
            }
        }
        let snapshot = service.snapshot();
        let mut setup_counts = Sums::default();
        setup_counts.add("setup.steps", service.meter().steps() as f64);
        setup_counts.add("setup.proofs", service.meter().proofs() as f64);
        setup_counts.add("setup.snapshot_bytes", snapshot.len() as f64);

        let idx = schema.index();
        let types: Vec<ObjectTypeId> = schema.object_types().map(|(t, _)| t).collect();
        let mut tautologies: Vec<Tautology> =
            schema.subtype_links().map(|l| Tautology::Subtype(l.sub, l.sup)).collect();
        for (i, &a) in types.iter().enumerate() {
            for &b in &types[i + 1..] {
                if !idx.may_overlap(a, b) {
                    tautologies.push(Tautology::Exclusion(a, b));
                }
            }
        }
        ServiceMixed {
            seed,
            roles: schema.roles().map(|(r, _)| r).collect(),
            schema,
            types,
            tautologies,
            snapshot,
            setup_counts,
            reference: BTreeMap::new(),
        }
    }

    fn prepare(&mut self) {
        let t = orm_dl::translate(&self.schema);
        let cx = ExecCx::with_steps(Self::STEP_BUDGET);
        for &ty in &self.types {
            self.reference.insert((false, ty.raw()), t.type_satisfiable_cx(ty, &cx));
        }
        for &role in &self.roles {
            self.reference.insert((true, role.raw()), t.role_satisfiable_cx(role, &cx));
        }
        for v in self.reference.values() {
            self.setup_counts.add(
                match v {
                    SearchOutcome::Sat => "reference.sat",
                    SearchOutcome::Unsat => "reference.unsat",
                    _ => "reference.undecided",
                },
                1.0,
            );
        }
    }

    fn measure(&mut self, seconds: f64, _min_ops: usize, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase { counted: self.setup_counts.clone(), ..Phase::default() };
        phase.layer.add("serve.snapshot_bytes", self.snapshot.len() as f64);
        phase.layer.add("serve.snapshots", 1.0);
        let mut scripts: Vec<Script> = (0..CLIENTS).map(|c| Script::new(self.seed, c)).collect();
        let mut certified: BTreeSet<(u32, Vec<orm_dl::AxiomId>)> = BTreeSet::new();
        let mut first_op = 0;
        while phase.clock.wall_s < seconds || first_op == 0 {
            let requests = self.next_requests(&mut scripts);
            let ((service, logs, restored), _) =
                phase.clock.run(|| self.epoch(requests, first_op, tracer));
            first_op += (CLIENTS * EPOCH_REQUESTS) as u64;
            add_cache(&mut phase.layer, &restored, &service.stats());
            phase.layer.add("dl.axioms", service.with_translation(|t| t.tbox.axiom_count()) as f64);
            phase.layer.add("dl.translations", 1.0);
            phase.layer.add("serve.shed", service.meter().sheds() as f64);
            phase.layer.add("serve.downgraded", service.meter().downgrades() as f64);

            // Untimed: every decided answer must equal the reference, and
            // every explained core must refute its type alone.
            for (log, client_tracer) in logs {
                tracer.absorb(client_tracer);
                for (req, answer, ms) in log {
                    phase.latencies_ms.extend(ms);
                    phase.ops += 1;
                    phase.units += 1;
                    if answer.failed() {
                        phase.units_failed += 1;
                        phase.ops_failed += 1;
                    }
                    let expected = key(req).and_then(|k| self.reference.get(&k)).copied();
                    let got = match &answer {
                        Answer::Verdict(v) => Some(*v),
                        Answer::Explained(Explanation::Unsat(_)) => Some(SearchOutcome::Unsat),
                        Answer::Explained(Explanation::Satisfiable) => Some(SearchOutcome::Sat),
                        _ => None,
                    };
                    let decided = |v: Option<SearchOutcome>| {
                        matches!(v, Some(SearchOutcome::Sat | SearchOutcome::Unsat))
                    };
                    if decided(expected) && decided(got) && expected != got {
                        phase
                            .violation(format!("{req:?} answered {got:?}, reference {expected:?}"));
                    }
                    if let (Request::ExplainType(ty), Answer::Explained(Explanation::Unsat(core))) =
                        (req, &answer)
                    {
                        if certified.insert((ty.raw(), core.axioms.clone())) {
                            let refutes = service.with_translation(|t| {
                                core_refutes(&t.tbox, core, &t.type_concept(ty), Self::STEP_BUDGET)
                            });
                            if !refutes {
                                phase.violation(format!("{req:?}: core does not refute alone"));
                            }
                        }
                    }
                }
            }
        }
        phase
    }

    fn inputs_fingerprint(&self) -> u64 {
        let mut scripts: Vec<Script> = (0..CLIENTS).map(|c| Script::new(self.seed, c)).collect();
        let first = self.next_requests(&mut scripts);
        fnv1a(format!("{}\n{first:?}", orm_syntax::print(&self.schema)).as_bytes())
    }
}
