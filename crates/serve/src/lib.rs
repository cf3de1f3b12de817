//! # orm-serve — a fault-tolerant reasoning service core
//!
//! The paper frames unsatisfiability reasoning as something an ORM
//! modeling tool calls *continuously* — every constraint edit triggers
//! fresh satisfiability checks. A production tool therefore wraps the
//! reasoner in a long-lived service: many editor sessions multiplexed
//! over one warm verdict cache, a process that survives restarts without
//! re-proving its world, and overload behavior that degrades *honestly*
//! (a fast `Unknown` beats a stalled editor; a wrong verdict is never
//! acceptable).
//!
//! [`ReasonerService`] is that core, deliberately transport-free — bind
//! it to whatever RPC surface a tool uses:
//!
//! * **Admission control** — each request arrives with its own
//!   [`ExecCx`] (deadline, budget, cancellation). The service classifies
//!   it ([`Admission`]): `Full` under normal load, `Degraded` (a tighter
//!   step budget via [`ExecCx::with_step_budget`]) once concurrent
//!   sessions cross the soft limit, `Shed` ([`Overloaded`]) at the hard
//!   limit or when the request's own deadline is already hopeless.
//!   Degraded runs end in an honest `BudgetExhausted`; the verdict cache
//!   guarantees a starved retry can never *weaken* a richer cached
//!   `Unknown`, and a definitive verdict is never displaced. Sheds and
//!   downgrades are counted once, in the service [`Meter`]; admission
//!   takes no lock, so a shed answers at once even while an edit holds
//!   the write lock.
//! * **Crash-safe snapshots** — [`ReasonerService::snapshot`] serializes
//!   the warm cache (verdicts, witnesses, unsat cores, MUS families,
//!   seed pool) into a versioned, checksummed blob;
//!   [`ReasonerService::restore`] installs one into a freshly started
//!   service after validating integrity and TBox provenance. Corrupt or
//!   mismatched blobs degrade to a cold cache — never a panic, never a
//!   stale verdict (see `docs/SERVE.md` for the soundness argument).
//! * **Panic isolation** — queries run on a shared [`std::sync::RwLock`]
//!   whose guards recover from poisoning, and the parallel sweeps
//!   underneath isolate per-item panics (`orm_dl::par::fan_out_cx`), so
//!   one poisoned session cannot take the service down or wedge its
//!   siblings.
//!
//! ```
//! use orm_model::SchemaBuilder;
//! use orm_serve::{ReasonerService, ServiceConfig};
//! use orm_dl::{ExecCx, SearchOutcome};
//!
//! let mut b = SchemaBuilder::new("demo");
//! let student = b.entity_type("Student").unwrap();
//! let employee = b.entity_type("Employee").unwrap();
//! let phd = b.entity_type("PhdStudent").unwrap();
//! b.subtype(phd, student).unwrap();
//! b.subtype(phd, employee).unwrap();
//! b.exclusive_types([student, employee]).unwrap();
//! let schema = b.finish();
//!
//! let service = ReasonerService::new(&schema, ServiceConfig::default());
//! let verdict = service.check_type(phd, &ExecCx::unlimited()).unwrap();
//! assert_eq!(verdict, SearchOutcome::Unsat);
//!
//! // Warm restart: snapshot, then restore into a fresh process.
//! let blob = service.snapshot();
//! let restarted = ReasonerService::new(&schema, ServiceConfig::default());
//! restarted.restore(&blob).unwrap();
//! assert_eq!(restarted.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
//! assert_eq!(restarted.stats().misses, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use orm_dl::{
    translate, CacheStats, EditSession, ExecCx, Explanation, Meter, RestoreReport, SearchOutcome,
    SnapshotError, Translation,
};
use orm_model::{ObjectTypeId, RoleId, Schema};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Load thresholds and degradation budgets for a [`ReasonerService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Hard concurrency cap: a request arriving with this many already
    /// in flight is shed ([`Overloaded`]). `0` sheds everything — a
    /// drain/maintenance mode.
    pub max_inflight: usize,
    /// Soft cap: at or above this many in flight, new requests are
    /// admitted *degraded* — their step budget tightened to
    /// [`ServiceConfig::degraded_steps`]. `0` degrades everything.
    pub soft_inflight: usize,
    /// Step budget granted to a fully admitted request (the request's
    /// own budget still applies if tighter).
    pub full_steps: u64,
    /// Step budget granted to a degraded request — small enough to end
    /// in a prompt, honest `BudgetExhausted` under overload.
    pub degraded_steps: u64,
    /// Requests whose deadline leaves less than this are shed outright:
    /// admitting work that cannot possibly finish only steals capacity
    /// from requests that can.
    pub min_deadline: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_inflight: 256,
            soft_inflight: 64,
            full_steps: 100_000,
            degraded_steps: 2_000,
            min_deadline: Duration::from_micros(50),
        }
    }
}

/// How the admission layer classified a request under current load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Normal load: full step budget.
    Full,
    /// Soft overload: admitted with [`ServiceConfig::degraded_steps`].
    Degraded,
    /// Hard overload (or a hopeless deadline): refused.
    Shed,
}

/// The service refused a request at admission — hard overload, a
/// deadline too close to matter, or an already-cancelled context.
/// Retry later or with a saner deadline; nothing was proved and nothing
/// was cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded;

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request shed: reasoning service overloaded")
    }
}

impl std::error::Error for Overloaded {}

/// RAII in-flight slot: admission reserves it with a `fetch_add`, drop
/// releases it — including on panic, so a poisoned request can never
/// leak capacity.
struct Permit<'a> {
    inflight: &'a AtomicUsize,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A long-lived reasoning service multiplexing any number of concurrent
/// sessions over one shared [`Translation`] (and thus one warm sharded
/// verdict cache). Queries take a read lock and run concurrently; edits
/// take the write lock. See the [crate docs](self) for the admission and
/// recovery story.
pub struct ReasonerService {
    translation: RwLock<Translation>,
    /// Requests currently executing — the admission layer's load signal.
    inflight: AtomicUsize,
    /// Service-lifetime meter: every admitted request's context is
    /// re-pointed at it ([`ExecCx::with_meter`]), so steps, proofs,
    /// sheds and downgrades aggregate service-wide.
    meter: Arc<Meter>,
    cfg: ServiceConfig,
}

impl ReasonerService {
    /// Translate `schema` and serve it.
    pub fn new(schema: &Schema, cfg: ServiceConfig) -> ReasonerService {
        ReasonerService::from_translation(translate(schema), cfg)
    }

    /// Serve an existing translation (e.g. one that already has a warm
    /// cache from a previous life as a batch job).
    pub fn from_translation(translation: Translation, cfg: ServiceConfig) -> ReasonerService {
        ReasonerService {
            translation: RwLock::new(translation),
            inflight: AtomicUsize::new(0),
            meter: Arc::new(Meter::default()),
            cfg,
        }
    }

    /// The admission policy's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The service-lifetime meter (shared with every admitted request).
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// Requests currently executing.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    // -- locking ----------------------------------------------------------

    /// Read access that survives poisoning: a panic inside a *write*
    /// critical section poisons the lock, but the translation is only
    /// ever mutated through `EditSession`, whose operations don't
    /// half-apply — recovering the guard is strictly better than
    /// cascading the panic to every session.
    fn read(&self) -> RwLockReadGuard<'_, Translation> {
        self.translation.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Translation> {
        self.translation.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` against the shared translation (read lock).
    pub fn with_translation<R>(&self, f: impl FnOnce(&Translation) -> R) -> R {
        f(&self.read())
    }

    // -- admission --------------------------------------------------------

    fn deadline_hopeless(&self, cx: &ExecCx) -> bool {
        cx.deadline().is_some_and(|deadline| {
            deadline
                .checked_duration_since(Instant::now())
                .is_none_or(|left| left < self.cfg.min_deadline)
        })
    }

    /// Peek at how a request with this context would be admitted right
    /// now, without booking anything. Racy by nature (load moves);
    /// useful for load-shedding hints in a transport layer.
    pub fn admission(&self, cx: &ExecCx) -> Admission {
        if self.deadline_hopeless(cx) || cx.is_cancelled() {
            return Admission::Shed;
        }
        let inflight = self.inflight.load(Ordering::SeqCst);
        if inflight >= self.cfg.max_inflight {
            Admission::Shed
        } else if inflight >= self.cfg.soft_inflight {
            Admission::Degraded
        } else {
            Admission::Full
        }
    }

    /// Reserve an in-flight slot or shed. On success returns the permit
    /// and the admitted step cap.
    fn try_admit(&self, cx: &ExecCx) -> Result<(Permit<'_>, u64), Overloaded> {
        if self.deadline_hopeless(cx) || cx.is_cancelled() {
            self.meter.add_shed();
            return Err(Overloaded);
        }
        // Reserve first, then check: the slot is visible to concurrent
        // admissions for exactly as long as we might use it.
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        let permit = Permit { inflight: &self.inflight };
        if prev >= self.cfg.max_inflight {
            drop(permit);
            self.meter.add_shed();
            return Err(Overloaded);
        }
        if prev >= self.cfg.soft_inflight {
            self.meter.add_downgrade();
            Ok((permit, self.cfg.degraded_steps))
        } else {
            Ok((permit, self.cfg.full_steps))
        }
    }

    /// Admit, derive the request's effective context, and run `f` under
    /// the read lock. The derived context keeps the caller's deadline,
    /// cancellation token and auto-cancel trigger ([`ExecCx::isolated`]
    /// — a trigger that fires trips this request, not the caller's
    /// token), but meters into the service-wide [`Meter`] and caps the
    /// step budget at the admitted tier (the caller's own budget still
    /// applies if tighter).
    fn run<R>(
        &self,
        cx: &ExecCx,
        f: impl FnOnce(&Translation, &ExecCx) -> R,
    ) -> Result<R, Overloaded> {
        let (permit, cap) = self.try_admit(cx)?;
        let budget = cx.steps().unwrap_or(u64::MAX).min(cap);
        let run_cx = cx.isolated().with_meter(Arc::clone(&self.meter)).with_step_budget(budget);
        let translation = self.read();
        let out = f(&translation, &run_cx);
        drop(translation);
        drop(permit);
        Ok(out)
    }

    // -- queries ----------------------------------------------------------

    /// Is the object type's concept satisfiable? Interrupts and budget
    /// exhaustion surface as their honest [`SearchOutcome`] variants;
    /// nothing half-proved is cached.
    pub fn check_type(&self, ty: ObjectTypeId, cx: &ExecCx) -> Result<SearchOutcome, Overloaded> {
        self.run(cx, |t, run| t.type_satisfiable_cx(ty, run))
    }

    /// Is the ORM role's concept satisfiable?
    pub fn check_role(&self, role: RoleId, cx: &ExecCx) -> Result<SearchOutcome, Overloaded> {
        self.run(cx, |t, run| t.role_satisfiable_cx(role, run))
    }

    /// Why is the object type unsatisfiable? (A certified minimal core,
    /// cached beside the verdict.)
    pub fn explain_type(&self, ty: ObjectTypeId, cx: &ExecCx) -> Result<Explanation, Overloaded> {
        self.run(cx, |t, run| t.explain_type_cx(ty, run))
    }

    /// The per-type satisfiability sweep — one admission covers the
    /// whole battery (it is one editor gesture, not `n` requests).
    pub fn type_sweep(
        &self,
        schema: &Schema,
        cx: &ExecCx,
    ) -> Result<Vec<(ObjectTypeId, SearchOutcome)>, Overloaded> {
        self.run(cx, |t, run| t.type_sweep_cx(schema, run))
    }

    /// The per-role satisfiability sweep.
    pub fn role_sweep(
        &self,
        schema: &Schema,
        cx: &ExecCx,
    ) -> Result<Vec<(RoleId, SearchOutcome)>, Overloaded> {
        self.run(cx, |t, run| t.role_sweep_cx(schema, run))
    }

    // -- edits ------------------------------------------------------------

    /// Apply constraint additions under the write lock (all sessions
    /// observe the edit atomically; the warm cache survives monotone
    /// additions via delta retention). Edits are never shed — refusing
    /// a schema change would desynchronize the tool from its service.
    pub fn edit<R>(&self, f: impl FnOnce(&mut EditSession<'_>) -> R) -> R {
        let mut translation = self.write();
        let mut session = translation.edit();
        f(&mut session)
    }

    // -- persistence ------------------------------------------------------

    /// Serialize the warm verdict cache (see
    /// [`orm_dl::SatShards::snapshot`]). Persist the bytes beside the
    /// schema; hand them to [`ReasonerService::restore`] after a restart.
    pub fn snapshot(&self) -> Vec<u8> {
        self.read().snapshot()
    }

    /// Install a snapshot into this freshly started service. Corrupt
    /// bytes or a snapshot of a diverged terminology are rejected with
    /// the cache untouched ([`SnapshotError`]) and the service simply
    /// starts cold — never a panic, never a stale verdict.
    pub fn restore(&self, bytes: &[u8]) -> Result<RestoreReport, SnapshotError> {
        self.read().restore(bytes)
    }

    /// Aggregated cache counters, including `snapshots`, `restores` and
    /// `corrupt_rejected`. Admission sheds and downgrades are on
    /// [`ReasonerService::meter`].
    pub fn stats(&self) -> CacheStats {
        self.read().cache_stats()
    }
}

impl fmt::Debug for ReasonerService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReasonerService")
            .field("inflight", &self.inflight())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orm_model::SchemaBuilder;

    /// Fig. 1 of the paper: PhdStudent ⊑ Student ⊓ Employee with the two
    /// supertypes exclusive — PhdStudent is doomed, everything else fine.
    fn fig1() -> (Schema, ObjectTypeId, ObjectTypeId) {
        let mut b = SchemaBuilder::new("fig1");
        let person = b.entity_type("Person").unwrap();
        let student = b.entity_type("Student").unwrap();
        let employee = b.entity_type("Employee").unwrap();
        let phd = b.entity_type("PhdStudent").unwrap();
        b.subtype(student, person).unwrap();
        b.subtype(employee, person).unwrap();
        b.subtype(phd, student).unwrap();
        b.subtype(phd, employee).unwrap();
        b.exclusive_types([student, employee]).unwrap();
        (b.finish(), phd, person)
    }

    #[test]
    fn serves_verdicts_and_meters_work() {
        let (schema, phd, person) = fig1();
        let service = ReasonerService::new(&schema, ServiceConfig::default());
        assert_eq!(service.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
        assert_eq!(service.check_type(person, &ExecCx::unlimited()), Ok(SearchOutcome::Sat));
        assert!(service.meter().proofs() >= 2);
        assert_eq!(service.inflight(), 0, "permit leaked");
        // Re-asks are cache hits.
        assert_eq!(service.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
        assert_eq!(service.stats().hits, 1);
    }

    #[test]
    fn drain_mode_sheds_everything_and_counts() {
        let (schema, phd, _) = fig1();
        let cfg = ServiceConfig { max_inflight: 0, ..ServiceConfig::default() };
        let service = ReasonerService::new(&schema, cfg);
        assert_eq!(service.check_type(phd, &ExecCx::unlimited()), Err(Overloaded));
        assert_eq!(service.admission(&ExecCx::unlimited()), Admission::Shed);
        assert_eq!(service.meter().sheds(), 1);
        assert_eq!(service.inflight(), 0, "shed request held its slot");
    }

    #[test]
    fn hopeless_deadlines_and_dead_tokens_are_shed_up_front() {
        let (schema, phd, _) = fig1();
        let service = ReasonerService::new(&schema, ServiceConfig::default());
        let expired = ExecCx::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(service.check_type(phd, &expired), Err(Overloaded));
        let cancelled = ExecCx::unlimited();
        cancelled.cancel();
        assert_eq!(service.check_type(phd, &cancelled), Err(Overloaded));
        assert_eq!(service.meter().sheds(), 2);
        // Nothing was proved or cached by either.
        assert_eq!(service.stats().misses, 0);
    }

    /// Admission decides a hopeless request without the translation lock,
    /// so it is shed at once even while an edit holds the write lock.
    #[test]
    fn hopeless_requests_are_shed_while_an_edit_holds_the_lock() {
        let (schema, phd, _) = fig1();
        let service = ReasonerService::new(&schema, ServiceConfig::default());
        let cancelled = ExecCx::unlimited();
        cancelled.cancel();
        let expired = ExecCx::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (answer_tx, answer_rx) = std::sync::mpsc::channel();
        let (service, cancelled, expired) = (&service, &cancelled, &expired);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                service.edit(|_| {
                    locked_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            });
            locked_rx.recv().unwrap();
            scope.spawn(move || {
                for cx in [cancelled, expired] {
                    let _ = answer_tx.send(service.check_type(phd, cx));
                }
            });
            let answers: Vec<_> = (0..2)
                .map(|_| answer_rx.recv_timeout(Duration::from_millis(100)))
                .take_while(Result::is_ok)
                .collect();
            release_tx.send(()).unwrap();
            assert_eq!(
                answers,
                [Ok(Err(Overloaded)), Ok(Err(Overloaded))],
                "shed waited on the edit"
            );
        });
        assert_eq!(service.meter().sheds(), 2);
    }

    #[test]
    fn soft_overload_degrades_to_an_honest_unknown() {
        // Person's Sat verdict needs two steps (one worklist pop, one
        // completeness certificate); Phd's doom is found by lazy
        // unfolding before the first step, so it would not starve.
        let (schema, _, person) = fig1();
        let cfg = ServiceConfig { soft_inflight: 0, degraded_steps: 1, ..ServiceConfig::default() };
        let service = ReasonerService::new(&schema, cfg);
        let verdict = service.check_type(person, &ExecCx::unlimited()).unwrap();
        assert_eq!(verdict, SearchOutcome::BudgetExhausted, "degraded run wasn't honest");
        assert_eq!(service.meter().downgrades(), 1);
        // The degraded Unknown gates equally-starved retries (hit), but
        // never masks the richer truth: a fresh service at full budget
        // proves Sat — and so would this one once load drops.
        let again = service.check_type(person, &ExecCx::unlimited()).unwrap();
        assert_eq!(again, SearchOutcome::BudgetExhausted);
        assert_eq!(service.stats().hits, 1, "starved retry re-proved instead of hitting");
    }

    #[test]
    fn admission_tiers_follow_inflight_load() {
        let (schema, _, _) = fig1();
        let cfg = ServiceConfig { max_inflight: 8, soft_inflight: 4, ..ServiceConfig::default() };
        let service = ReasonerService::new(&schema, cfg);
        let cx = ExecCx::unlimited();
        assert_eq!(service.admission(&cx), Admission::Full);
        service.inflight.store(4, Ordering::SeqCst);
        assert_eq!(service.admission(&cx), Admission::Degraded);
        service.inflight.store(8, Ordering::SeqCst);
        assert_eq!(service.admission(&cx), Admission::Shed);
        service.inflight.store(0, Ordering::SeqCst);
    }

    #[test]
    fn concurrent_sessions_share_the_warm_cache() {
        let (schema, phd, person) = fig1();
        let service = ReasonerService::new(&schema, ServiceConfig::default());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    assert_eq!(
                        service.check_type(phd, &ExecCx::unlimited()),
                        Ok(SearchOutcome::Unsat)
                    );
                    assert_eq!(
                        service.check_type(person, &ExecCx::unlimited()),
                        Ok(SearchOutcome::Sat)
                    );
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.hits + stats.misses, 16);
        assert_eq!(service.inflight(), 0);
    }

    #[test]
    fn edits_keep_sessions_warm() {
        let (schema, phd, person) = fig1();
        let service = ReasonerService::new(&schema, ServiceConfig::default());
        assert_eq!(service.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
        assert_eq!(service.check_type(person, &ExecCx::unlimited()), Ok(SearchOutcome::Sat));
        service.edit(|e| e.add_subtype(phd, person));
        assert_eq!(service.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
        let stats = service.stats();
        assert_eq!(stats.invalidations, 0, "edit thrashed the shared cache");
        assert!(stats.retained >= 1);
    }

    #[test]
    fn warm_restart_round_trip() {
        let (schema, phd, person) = fig1();
        let service = ReasonerService::new(&schema, ServiceConfig::default());
        assert_eq!(service.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
        assert_eq!(service.check_type(person, &ExecCx::unlimited()), Ok(SearchOutcome::Sat));
        let blob = service.snapshot();
        assert_eq!(service.stats().snapshots, 1);

        let restarted = ReasonerService::new(&schema, ServiceConfig::default());
        let report = restarted.restore(&blob).expect("round trip");
        assert_eq!(report.entries, 2);
        assert_eq!(restarted.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
        assert_eq!(restarted.check_type(person, &ExecCx::unlimited()), Ok(SearchOutcome::Sat));
        let stats = restarted.stats();
        assert_eq!((stats.misses, stats.restores), (0, 1));

        // A corrupt blob degrades the next restart to a cold (correct) start.
        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let cold = ReasonerService::new(&schema, ServiceConfig::default());
        assert!(cold.restore(&bad).is_err());
        assert_eq!(cold.stats().corrupt_rejected, 1);
        assert_eq!(cold.check_type(phd, &ExecCx::unlimited()), Ok(SearchOutcome::Unsat));
    }
}
