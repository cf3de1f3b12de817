//! A unified execution context for every reasoning entry point.
//!
//! The paper's tableau procedures are worst-case exponential, so any
//! service-shaped deployment must be able to *meter*, *deadline*, and
//! *cancel* individual proofs without corrupting shared state. Before
//! this module, resource control was an ad-hoc `budget: u64` copied
//! through a dozen signatures; [`ExecCx`] turns that number into an
//! enforced, observable execution policy:
//!
//! * a **step budget** ([`ExecCx::with_steps`]) — the familiar
//!   rule-application budget, applied *per proof* so a batch entry point
//!   gives every member query the same ceiling a sequential loop would
//!   (this is what keeps parallel and sequential sweeps verdict-identical);
//! * an optional **wall-clock deadline** ([`ExecCx::with_deadline`] /
//!   [`ExecCx::with_timeout`]) — shared across every proof run under the
//!   context, checked cooperatively every [`CHECK_INTERVAL`] worklist
//!   pops;
//! * a shared **cancellation token** ([`CancelToken`]) — a relaxed
//!   atomic flag checked at every choice point and worklist pop, with
//!   parent-chained child tokens ([`ExecCx::child`]) so cancelling one
//!   batch item never poisons its siblings;
//! * **metering counters** ([`Meter`]) — steps and proofs aggregated
//!   across every engine run and scheduler worker that shares the
//!   context, plus a service's admission sheds and downgrades. Per-batch
//!   scheduling counts live in [`crate::par::SchedStats`] instead.
//!
//! Interrupted runs surface as the distinct [`Interrupt`] variants
//! (`Cancelled` / `DeadlineExceeded`), which the tableau maps into
//! [`crate::tableau::SearchOutcome`] — never into a wrong verdict, and
//! never into a cache entry (see `dl::cache`: only genuine
//! `BudgetExhausted` runs record `Unknown`, stamped with the budget they
//! starved at).
//!
//! ```
//! use orm_dl::exec::ExecCx;
//!
//! // A context with a per-proof step budget and a 50 ms wall deadline.
//! let cx = ExecCx::with_steps(100_000).with_timeout(std::time::Duration::from_millis(50));
//! assert_eq!(cx.steps(), Some(100_000));
//! assert!(cx.check().is_ok());
//!
//! // Cancelling the context trips every clone and child sharing the token.
//! let child = cx.child();
//! cx.cancel();
//! assert!(child.check().is_err());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many worklist pops the tableau runs between *expensive* context
/// checks (deadline reads of the monotonic clock, meter flushes). The
/// cancellation flag itself is a relaxed atomic load and is checked at
/// every pop and choice point; only the clock read is amortized. At
/// ~64 pops per check a cancelled or expired proof is observed within
/// microseconds on every workload in the bench battery.
pub const CHECK_INTERVAL: u64 = 64;

/// Why a run stopped before reaching a verdict — the two *external*
/// interruptions, as opposed to [`crate::tableau::SearchOutcome::BudgetExhausted`]
/// which is the context's own per-proof step policy running out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The context's cancellation token (or an ancestor's) was tripped.
    Cancelled,
    /// The context's wall-clock deadline passed.
    DeadlineExceeded,
}

/// A shared cancellation flag with optional parent chaining: a token is
/// *tripped* when its own flag — or any ancestor's — is set. Cloning
/// shares the same flag; [`CancelToken::child`] derives a token that
/// observes the parent but can be cancelled independently, which is how
/// the scheduler isolates batch items from each other.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, untripped token with no parent.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip this token: every clone, and every child derived from it,
    /// observes the cancellation on its next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has this token — or any ancestor — been tripped? A relaxed load
    /// per level, cheap enough for every worklist pop.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// Derive a child token: tripped whenever `self` is, but cancelling
    /// the child leaves `self` (and its other children) untouched.
    #[must_use]
    pub fn child(&self) -> Self {
        Self { flag: Arc::new(AtomicBool::new(false)), parent: Some(Arc::new(self.clone())) }
    }
}

/// Shared metering counters, aggregated across every engine run and
/// scheduler worker that holds a clone of the owning [`ExecCx`]. All
/// counters are relaxed atomics — they are observability, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Meter {
    /// Tableau rule applications (worklist pops, choice points,
    /// generators, quiescence certifications) across all proofs.
    steps: AtomicU64,
    /// Individual proofs started under this context.
    proofs: AtomicU64,
    /// Requests refused outright by a service admission layer.
    sheds: AtomicU64,
    /// Requests admitted with a tightened step budget by a service
    /// admission layer.
    downgrades: AtomicU64,
}

impl Meter {
    /// Total tableau steps flushed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Proofs started under the owning context.
    #[must_use]
    pub fn proofs(&self) -> u64 {
        self.proofs.load(Ordering::Relaxed)
    }

    /// Requests refused outright by a service admission layer.
    #[must_use]
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Requests admitted with a tightened step budget.
    #[must_use]
    pub fn downgrades(&self) -> u64 {
        self.downgrades.load(Ordering::Relaxed)
    }

    /// Record one shed request. Public because admission control lives
    /// above this crate (in `orm-serve`), not inside the engine.
    pub fn add_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one downgraded request.
    pub fn add_downgrade(&self) {
        self.downgrades.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_steps(&self, n: u64) {
        self.steps.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_proof(&self) {
        self.proofs.fetch_add(1, Ordering::Relaxed);
    }
}

/// The unified execution context: per-proof step budget, optional
/// wall-clock deadline, shared cancellation token, and metering. Cheap
/// to clone (two `Arc`s and two `Copy` fields); clones share the token,
/// the meter, and the optional auto-cancel trigger.
///
/// **Propagation rules** (documented in `docs/ARCHITECTURE.md`):
/// pass `&ExecCx` down; clone only to move across a thread boundary;
/// derive with [`ExecCx::child`] exactly when the callee must be
/// cancellable independently of its siblings (the scheduler does this
/// per batch item). The step budget is *per proof*, not shared — a
/// context's deadline and token are the shared resources.
#[derive(Clone, Debug)]
pub struct ExecCx {
    steps: Option<u64>,
    deadline: Option<Instant>,
    cancel: CancelToken,
    meter: Arc<Meter>,
    /// Auto-trip the token once the shared meter crosses this many
    /// steps — the deterministic cancellation trigger used by tests and
    /// the bench battery (wall-clock cancellation is inherently racy;
    /// step counts are not).
    cancel_at_steps: Option<u64>,
}

impl Default for ExecCx {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl ExecCx {
    /// A context with no step budget, no deadline, and a fresh token —
    /// what [`ExecCx::with_steps`] returns for `u64::MAX`.
    #[must_use]
    pub fn unlimited() -> Self {
        Self {
            steps: None,
            deadline: None,
            cancel: CancelToken::new(),
            meter: Arc::new(Meter::default()),
            cancel_at_steps: None,
        }
    }

    /// A context whose every proof gets `steps` rule applications — the
    /// way a caller that only wants a step budget calls any engine.
    /// `u64::MAX` means unmetered (no per-step countdown at all).
    #[must_use]
    pub fn with_steps(steps: u64) -> Self {
        Self { steps: (steps != u64::MAX).then_some(steps), ..Self::unlimited() }
    }

    /// Attach an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a deadline `timeout` from now.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Replace the cancellation token (e.g. with one the caller holds on
    /// another thread).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Share metering with a caller-held [`Meter`] — the service layer
    /// uses this so every admitted request, whatever its budget or
    /// deadline, aggregates into one service-lifetime meter that the
    /// admission policy reads for load.
    #[must_use]
    pub fn with_meter(mut self, meter: Arc<Meter>) -> Self {
        self.meter = meter;
        self
    }

    /// Replace the per-proof step budget on an existing context, keeping
    /// its deadline, token, meter and auto-cancel trigger — the
    /// admission layer's *downgrade* primitive: an overloaded service
    /// re-issues a request's context with a tighter budget, so the run
    /// ends in an honest `BudgetExhausted` instead of holding a slot.
    /// `u64::MAX` clears the budget (unmetered).
    #[must_use]
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.steps = (steps != u64::MAX).then_some(steps);
        self
    }

    /// Auto-cancel once the shared meter crosses `n` total steps — the
    /// deterministic stand-in for "a user pressed stop mid-batch" that
    /// tests and the bench battery use. The trip happens inside
    /// [`ExecCx::check`], so it is observed at the same points a real
    /// cancellation would be.
    #[must_use]
    pub fn cancel_after_steps(mut self, n: u64) -> Self {
        self.cancel_at_steps = Some(n);
        self
    }

    /// The per-proof step budget, if any.
    #[must_use]
    pub fn steps(&self) -> Option<u64> {
        self.steps
    }

    /// The wall-clock deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The context's cancellation token.
    #[must_use]
    pub fn token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The shared metering counters.
    #[must_use]
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Trip the context's token.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Has the token (or an ancestor) been tripped? Cheap — suitable for
    /// every worklist pop.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Derive a child context: same deadline, step policy, and meter,
    /// but a [`CancelToken::child`] token — cancelling the child leaves
    /// siblings running; cancelling `self` still stops everyone.
    #[must_use]
    pub fn child(&self) -> Self {
        Self { cancel: self.cancel.child(), ..self.clone() }
    }

    /// A context for a callee whose own auto-cancel trigger
    /// ([`ExecCx::cancel_after_steps`]) must not trip the caller's
    /// token: a [`ExecCx::child`] when the trigger is set, a plain clone
    /// otherwise. Nothing but that trigger cancels a token the callee
    /// alone holds, so without it the child's two allocations buy
    /// nothing — the service's per-request path uses this.
    #[must_use]
    pub fn isolated(&self) -> Self {
        if self.cancel_at_steps.is_some() {
            self.child()
        } else {
            self.clone()
        }
    }

    /// Flush `steps` into the meter and run the *expensive* checks:
    /// the auto-cancel step trigger and the wall-clock deadline. The
    /// engine calls this every [`CHECK_INTERVAL`] pops; the cancellation
    /// flag itself is checked far more often via [`ExecCx::is_cancelled`].
    pub fn check_after(&self, steps: u64) -> Result<(), Interrupt> {
        if steps > 0 {
            self.meter.add_steps(steps);
        }
        if let Some(limit) = self.cancel_at_steps {
            if self.meter.steps() >= limit {
                self.cancel.cancel();
            }
        }
        self.check()
    }

    /// The full interrupt check: cancellation first (deterministic,
    /// cheap), then the deadline (a monotonic clock read).
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Record the start of one proof under this context.
    pub(crate) fn note_proof(&self) {
        self.meter.add_proof();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_never_interrupts() {
        let cx = ExecCx::unlimited();
        assert_eq!(cx.steps(), None);
        assert!(cx.check().is_ok());
        assert!(cx.check_after(1_000_000).is_ok());
    }

    #[test]
    fn steps_max_means_unmetered() {
        assert_eq!(ExecCx::with_steps(u64::MAX).steps(), None);
        assert_eq!(ExecCx::with_steps(42).steps(), Some(42));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let cx = ExecCx::unlimited();
        let clone = cx.clone();
        assert!(clone.check().is_ok());
        cx.cancel();
        assert_eq!(clone.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn child_cancellation_does_not_poison_siblings_or_parent() {
        let parent = ExecCx::unlimited();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert_eq!(a.check(), Err(Interrupt::Cancelled));
        assert!(b.check().is_ok(), "sibling must keep running");
        assert!(parent.check().is_ok(), "parent must keep running");
        // But a parent cancellation reaches every child.
        parent.cancel();
        assert_eq!(b.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn isolated_contexts_keep_the_trigger_away_from_the_caller() {
        // With a trigger, the isolated context trips its own token only.
        let caller = ExecCx::unlimited().cancel_after_steps(10);
        let run = caller.isolated();
        assert_eq!(run.check_after(10), Err(Interrupt::Cancelled));
        assert!(caller.check().is_ok(), "the trigger reached the caller");
        // Without one, it shares the caller's token: a caller-side
        // cancellation still stops the run.
        let caller = ExecCx::unlimited();
        let run = caller.isolated();
        caller.cancel();
        assert_eq!(run.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let cx = ExecCx::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(cx.check(), Err(Interrupt::DeadlineExceeded));
        // Cancellation wins over the deadline when both apply — it is
        // the deterministic signal.
        cx.cancel();
        assert_eq!(cx.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn far_deadline_does_not_interrupt() {
        let cx = ExecCx::unlimited().with_timeout(Duration::from_secs(3600));
        assert!(cx.check().is_ok());
    }

    #[test]
    fn cancel_after_steps_trips_deterministically() {
        let cx = ExecCx::unlimited().cancel_after_steps(100);
        assert!(cx.check_after(50).is_ok());
        assert_eq!(cx.check_after(50), Err(Interrupt::Cancelled));
        // Once tripped, stays tripped.
        assert_eq!(cx.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn with_meter_shares_a_caller_held_meter() {
        let meter = Arc::new(Meter::default());
        let a = ExecCx::unlimited().with_meter(Arc::clone(&meter));
        let b = ExecCx::with_steps(10).with_meter(Arc::clone(&meter));
        let _ = a.check_after(7);
        let _ = b.check_after(5);
        meter.add_shed();
        meter.add_downgrade();
        meter.add_downgrade();
        assert_eq!(meter.steps(), 12);
        assert_eq!(meter.sheds(), 1);
        assert_eq!(meter.downgrades(), 2);
    }

    #[test]
    fn meter_aggregates_across_clones() {
        let cx = ExecCx::unlimited();
        let clone = cx.clone();
        let _ = cx.check_after(10);
        let _ = clone.check_after(5);
        clone.meter().add_proof();
        assert_eq!(cx.meter().steps(), 15);
        assert_eq!(cx.meter().proofs(), 1);
    }
}
